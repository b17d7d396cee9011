package main

import (
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"text/tabwriter"
)

// benchmark -compare PARENT.json CHANGE.json: one row per (workload,
// metric) with both medians and the ratio with its base, judged by the
// direction and bound BENCHMARK.json fixes for the metric.

type sideStats struct {
	median, spread float64
	n              int
}

func side(runs []RunRecord, workload, metric string, diag bool) sideStats {
	var v []float64
	for _, r := range runs {
		if r.Workload != workload {
			continue
		}
		m, ok := r.Metrics[metric]
		if diag {
			m, ok = r.Diagnostics[metric]
		}
		if ok {
			v = append(v, m.Value)
		}
	}
	s := sortedCopy(v)
	st := sideStats{median: Median(s), n: len(s)}
	if len(s) >= 2 {
		st.spread = Spread(s)
	}
	return st
}

// verdict applies a metric's direction and bound. worse is the share of
// the parent's median by which the change is worse (negative = better).
func verdict(spec *MetricSpec, parent, change sideStats) (string, bool) {
	if spec == nil || spec.Bound == 0 {
		return "info", false
	}
	worse := (change.median - parent.median) / parent.median
	if spec.Better == "higher" {
		worse = -worse
	}
	spread := parent.spread
	if change.spread > spread {
		spread = change.spread
	}
	switch {
	case worse > spec.Bound:
		return fmt.Sprintf("REGRESSION (worse by %.1f%% of parent, bound %.0f%%)", worse*100, spec.Bound*100), true
	case parent.n < 2 || change.n < 2:
		return "unresolved (needs at least 2 runs a side)", false
	case spread > spec.Bound:
		return fmt.Sprintf("unresolved (run-to-run spread %.1f%% exceeds bound %.0f%%)", spread*100, spec.Bound*100), false
	case worse < -spread:
		return fmt.Sprintf("better by %.1f%% of parent", -worse*100), false
	default:
		return "unchanged", false
	}
}

func failRatio(runs []RunRecord, workload string) float64 {
	att, failed := 0, 0
	for _, r := range runs {
		if r.Workload == workload {
			att += r.Attempted
			failed += r.Failed
		}
	}
	if att == 0 {
		return 0
	}
	return float64(failed) / float64(att)
}

// compareFiles prints the comparison and returns the process exit code:
// 1 when any bounded metric regressed or any workload's fail ratio rose.
func compareFiles(parentPath, changePath string, w io.Writer) int {
	parent, err := readResults(parentPath)
	if err != nil {
		fmt.Fprintln(w, "benchmark:", err)
		return 2
	}
	change, err := readResults(changePath)
	if err != nil {
		fmt.Fprintln(w, "benchmark:", err)
		return 2
	}
	root, err := repoRoot()
	if err != nil {
		fmt.Fprintln(w, "benchmark:", err)
		return 2
	}
	spec, err := loadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintln(w, "benchmark:", err)
		return 2
	}
	return compareRuns(spec, parent.Runs, change.Runs, w)
}

func compareRuns(spec *Spec, parent, change []RunRecord, w io.Writer) int {
	type key struct {
		name string
		diag bool
	}
	workloads := map[string]map[key]bool{}
	for _, r := range append(append([]RunRecord(nil), parent...), change...) {
		if workloads[r.Workload] == nil {
			workloads[r.Workload] = map[key]bool{}
		}
		for n := range r.Metrics {
			workloads[r.Workload][key{n, false}] = true
		}
		for n := range r.Diagnostics {
			workloads[r.Workload][key{n, true}] = true
		}
	}
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)

	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tparent median (n)\tchange median (n)\tchange/parent\tverdict")
	code := 0
	for _, wl := range names {
		keys := make([]key, 0, len(workloads[wl]))
		for k := range workloads[wl] {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].diag != keys[j].diag {
				return !keys[i].diag
			}
			return keys[i].name < keys[j].name
		})
		for _, k := range keys {
			p, c := side(parent, wl, k.name, k.diag), side(change, wl, k.name, k.diag)
			if p.n == 0 || c.n == 0 {
				fmt.Fprintf(tw, "%s\t%s\t-\t-\t-\tonly on one side\n", wl, k.name)
				continue
			}
			var ms *MetricSpec
			if !k.diag {
				ms = spec.find(k.name)
			}
			v, regressed := verdict(ms, p, c)
			if regressed {
				code = 1
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g (%d)\t%.6g (%d)\t%.4f of %.6g\t%s\n",
				wl, k.name, p.median, p.n, c.median, c.n, c.median/p.median, p.median, v)
		}
		pf, cf := failRatio(parent, wl), failRatio(change, wl)
		v := "unchanged"
		if cf > pf {
			v, code = "REGRESSION (more failed requests)", 1
		}
		fmt.Fprintf(tw, "%s\tfail_ratio\t%.6g\t%.6g\t-\t%s\n", wl, pf, cf, v)
	}
	tw.Flush() //sebdb:ignore-err the writer is standard output
	return code
}
