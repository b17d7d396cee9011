// Package sebdb's root benchmark suite: BenchmarkFigures drives every
// figure of the internal/bench registry — the same definitions
// bchainbench tabulates — through the testing.B driver at a fixed small
// scale, one sub-benchmark per cell:
//
//	go test -run '^$' -bench 'Figures/fig12' -benchmem .
//
// reports fig12/<results>/<series> with ns/op and allocs/op. Run
// `bchainbench -scale 1` for paper-scale sweeps. The ablation
// benchmarks (ablation_test.go) sweep what no figure covers.
package sebdb

import (
	"fmt"
	"testing"

	"sebdb/internal/bench"
)

func BenchmarkFigures(b *testing.B) {
	env := &bench.Env{Dir: b.TempDir(), Scale: 0.02}
	for _, f := range bench.Figures {
		b.Run(fmt.Sprintf("fig%02d", f.Num), func(b *testing.B) { env.Bench(b, f) })
	}
}
