// Command benchmark is SEBDB's measuring stick: four seeded workloads
// driven over loopback TCP against real sebdb-server processes
// (end-to-end metrics), and a separate in-process traced run that
// prices each layer (per-layer metrics). BENCHMARK.json at the
// repository root names every metric and workload; README.md here says
// how each is measured and what should move it.
//
// Usage (from the repository root):
//
//	bash benchmark/run.sh --workload hot_point --seed 1 --seconds 10 --trace 0
//	bash benchmark/run.sh --seed 1 -out results.json     # all four workloads
//	bash benchmark/run.sh --seed 1 --trace 1             # per-layer ledger, all workloads
//	bash benchmark/run.sh -compare parent.json change.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

func main() {
	workload := flag.String("workload", "", "workload to run (default: all four, one after the other)")
	seed := flag.Int64("seed", 1, "seed of the dataset, the statement stream and the open-loop schedule")
	seconds := flag.Float64("seconds", 10, "measured seconds per workload (warm-up, closed loop and open loop share them)")
	trace := flag.Int("trace", 0, "1 = the in-process traced run that reports the per-layer metrics")
	out := flag.String("out", "", "also write the results as numeric JSON to this file")
	scratch := flag.String("scratch", "", "scratch directory (default .bench_build/run-<pid> under the repository root)")
	compare := flag.Bool("compare", false, "compare two -out files: benchmark -compare PARENT.json CHANGE.json")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result files"))
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1), os.Stdout))
	}

	root, err := repoRoot()
	if err != nil {
		fatal(err)
	}
	spec, err := loadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		fatal(err)
	}
	run := []*Workload{}
	if *workload == "" {
		run = Workloads
	} else if w := workloadByName(*workload); w != nil {
		run = append(run, w)
	} else {
		fatal(fmt.Errorf("unknown workload %q", *workload))
	}

	dir := *scratch
	if dir == "" {
		dir = filepath.Join(root, ".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	cleanup := func() {
		killAllServers()
		os.RemoveAll(dir) //sebdb:ignore-err scratch cleanup on the way out
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		cleanup()
		os.Exit(1)
	}()

	var results []*Result
	for _, w := range run {
		var res *Result
		if *trace != 0 {
			res, err = runTraced(w, *seed, *seconds, FullSize, filepath.Join(dir, "trace"),
				filepath.Join(root, "benchmark", "out"))
		} else {
			var bin string
			if bin, err = buildServer(root, filepath.Join(root, ".bench_build", "bin")); err == nil {
				res, err = runE2E(w, *seed, RunOptions{
					Seconds: *seconds, Size: FullSize, SetupRounds: setupRounds, RestartRounds: restartRounds,
					Launch:  func(dir, log string, flags []string) (proc, error) { return startServer(bin, dir, log, flags) },
					Scratch: dir,
				})
			}
		}
		if err != nil {
			cleanup()
			fatal(fmt.Errorf("%s: %w", w.Name, err))
		}
		results = append(results, res)
		printResult(os.Stdout, res)
	}
	cleanup()

	declared := spec.EndToEnd
	if *trace != 0 {
		declared = spec.PerLayer
	}
	if *out != "" {
		if err := writeResults(*out, root, *seed, *seconds, *trace != 0, results); err != nil {
			fatal(err)
		}
	}
	// The last line of standard output is the contract's result object.
	// With several workloads it sums the counts and reports the last
	// workload's metrics; the per-workload numbers are in the lines above
	// and in -out.
	last := results[len(results)-1]
	final := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{Metrics: map[string]valueUnit{}}
	for _, r := range results {
		final.Attempted += r.Attempted
		final.Failed += r.Failed
	}
	final.Correct = final.Failed == 0
	for _, d := range declared {
		m, ok := last.Metrics[d.Name]
		if !ok {
			fatal(fmt.Errorf("%s: declared metric %q was not measured", last.Workload, d.Name))
		}
		final.Metrics[d.Name] = valueUnit{m.Value, d.Unit}
	}
	if len(last.Metrics) != len(declared) {
		fatal(fmt.Errorf("%s: measured %d metrics, BENCHMARK.json declares %d", last.Workload, len(last.Metrics), len(declared)))
	}
	line, err := json.Marshal(final)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// repoRoot finds the SEBDB module the benchmark sits in: the nearest
// directory at or above the working directory holding cmd/sebdb-server.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "sebdb-server", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no SEBDB repository (cmd/sebdb-server) at or above the working directory")
		}
		dir = parent
	}
}
