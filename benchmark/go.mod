module sebdb/benchmark

go 1.22

require sebdb v0.0.0

replace sebdb => ../
