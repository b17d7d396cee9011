package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// Reading BENCHMARK.json, printing results, and the numeric result file
// that -compare reads.

// MetricSpec is one declared metric of BENCHMARK.json.
type MetricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// Spec is the part of BENCHMARK.json the program needs.
type Spec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []MetricSpec `json:"end_to_end"`
	PerLayer []MetricSpec `json:"per_layer"`
}

func loadSpec(path string) (*Spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func (s *Spec) find(name string) *MetricSpec {
	for _, list := range [][]MetricSpec{s.EndToEnd, s.PerLayer} {
		for i := range list {
			if list[i].Name == name {
				return &list[i]
			}
		}
	}
	return nil
}

// printResult writes one "workload metric value unit n" line per
// metric, diagnostics after the bounded metrics, then any notes.
func printResult(w io.Writer, r *Result) {
	for _, name := range sortedNames(r.Metrics) {
		m := r.Metrics[name]
		fmt.Fprintf(w, "%s %s %.6g %s %d\n", r.Workload, name, m.Value, m.Unit, m.N)
	}
	for _, name := range sortedNames(r.Diagnostics) {
		m := r.Diagnostics[name]
		fmt.Fprintf(w, "%s %s %.6g %s %d diagnostic\n", r.Workload, name, m.Value, m.Unit, m.N)
	}
	ratio := 0.0
	if r.Attempted > 0 {
		ratio = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Fprintf(w, "%s fail_ratio %.6g ratio %d\n", r.Workload, ratio, r.Attempted)
	for _, n := range r.Notes {
		fmt.Fprintf(w, "# %s: %s\n", r.Workload, n)
	}
}

// RunRecord is one workload run in a result file.
type RunRecord struct {
	Workload    string            `json:"workload"`
	Seed        int64             `json:"seed"`
	Seconds     float64           `json:"seconds"`
	Traced      bool              `json:"traced"`
	Commit      string            `json:"commit"`
	GoVersion   string            `json:"go_version"`
	GOMAXPROCS  int               `json:"gomaxprocs"`
	NumCPU      int               `json:"nproc"`
	Attempted   int               `json:"attempted"`
	Failed      int               `json:"failed"`
	Metrics     map[string]Metric `json:"metrics"`
	Diagnostics map[string]Metric `json:"diagnostics,omitempty"`
	Notes       []string          `json:"notes,omitempty"`
}

// ResultFile is what -out writes: every run appended so far. A claim of
// no gain, which is all the benchmark's own change may make, is
// "claim": null.
type ResultFile struct {
	Claim *string     `json:"claim"`
	Runs  []RunRecord `json:"runs"`
}

func commitHash(root string) string {
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	outb, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(outb))
}

func readResults(path string) (*ResultFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f ResultFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// writeResults appends this invocation's runs to path (creating it), so
// repeated invocations build the run set a comparison needs.
func writeResults(path, root string, seed int64, seconds float64, traced bool, results []*Result) error {
	f, err := readResults(path)
	if os.IsNotExist(err) {
		f, err = &ResultFile{}, nil
	}
	if err != nil {
		return err
	}
	commit := commitHash(root)
	for _, r := range results {
		f.Runs = append(f.Runs, RunRecord{
			Workload: r.Workload, Seed: seed, Seconds: seconds, Traced: traced,
			Commit: commit, GoVersion: runtime.Version(),
			GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
			Attempted: r.Attempted, Failed: r.Failed,
			Metrics: r.Metrics, Diagnostics: r.Diagnostics, Notes: r.Notes,
		})
	}
	raw, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
