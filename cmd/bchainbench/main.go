// Command bchainbench regenerates the paper's evaluation figures
// (Figs. 7-22) and the repo's own (23-27) using the BChainBench
// workload (Table II). Each figure prints as a table of the same series
// the paper plots. The figures themselves — numbers, names, titles,
// series — are the internal/bench registry; `bchainbench -h` lists the
// selectors -fig accepts.
//
// Usage:
//
//	bchainbench [-fig N|NAME] [-scale S] [-dir DIR] [-workers W] \
//	    [-json PATH] [-trace-sample N]
//
//	-fig F     regenerate only figure F, by number or by name; default
//	           all, with figures that share a sweep (17-19) measured once
//	-scale S   dataset scale relative to paper sizes (default 0.05;
//	           1.0 loads paper-scale datasets and can take a while)
//	-dir DIR   scratch directory for datasets (default a temp dir;
//	           reusing a directory reuses its datasets across runs)
//	-workers W upper bound of figure 23's worker sweep and the commit
//	           pipeline / signature-check parallelism of figure 7
//	           (default GOMAXPROCS); "-fig 7 -workers 1" vs
//	           "-fig 7 -workers 4" compares the serial and staged
//	           write paths
//	-json PATH also write the generated tables as a JSON array of
//	           {figure, title, x, series, rows, note, quantiles}
//	           objects: series are {name, unit}, rows are {x, values}
//	           with values as numbers in their series' unit ("ms"
//	           milliseconds, "B" bytes), quantiles carries each latency
//	           histogram's p50/p90/p99
//	-trace-sample N
//	           run the benchmark engines under the statement flight
//	           recorder, tracing one statement in every N (0 = off);
//	           "-fig 23" vs "-fig 23 -trace-sample 1" prices the
//	           recorder's overhead
package main

import (
	"flag"
	"fmt"
	"os"

	"sebdb/internal/bench"
)

func main() {
	fig := flag.String("fig", "", "figure to regenerate: "+bench.Selectors()+"; empty = all")
	scale := flag.Float64("scale", 0.05, "dataset scale relative to the paper")
	dir := flag.String("dir", "", "scratch directory for datasets")
	workers := flag.Int("workers", 0, "worker sweep bound for figure 23 and commit-pipeline workers for figure 7 (0 = GOMAXPROCS)")
	jsonPath := flag.String("json", "", "also write results as JSON to this file")
	traceSample := flag.Int("trace-sample", 0, "run benchmark engines under the flight recorder, tracing one statement in N (0 = recorder off); compare -fig 23 with and without to price the recorder")
	flag.Parse()
	figures := bench.Figures
	if *fig != "" {
		f, err := bench.Lookup(*fig)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bchainbench:", err)
			os.Exit(2)
		}
		figures = []*bench.Figure{f}
	}
	if err := run(figures, *jsonPath, &bench.Env{Dir: *dir, Scale: *scale, Workers: *workers, TraceSample: *traceSample}); err != nil {
		fmt.Fprintln(os.Stderr, "bchainbench:", err)
		os.Exit(1)
	}
}

func run(figures []*bench.Figure, jsonPath string, env *bench.Env) error {
	if env.Dir == "" {
		var err error
		if env.Dir, err = os.MkdirTemp("", "bchainbench-*"); err != nil {
			return err
		}
		defer os.RemoveAll(env.Dir) //sebdb:ignore-err scratch directory removal at process exit
	}

	var results []bench.FigureJSON
	for _, f := range figures {
		t, err := env.Table(f)
		if err != nil {
			return err
		}
		t.Fprint(os.Stdout)
		if jsonPath != "" {
			results = append(results, bench.FigureJSON{Figure: f.Num, Table: t, Quantiles: bench.HistogramQuantiles(nil)})
		}
	}
	if jsonPath == "" {
		return nil
	}
	out, err := os.Create(jsonPath)
	if err != nil {
		return err
	}
	if err := bench.WriteJSON(out, results); err != nil {
		out.Close() //sebdb:ignore-err encode error already reported
		return err
	}
	return out.Close()
}
