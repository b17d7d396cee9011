package main

import (
	"bytes"
	"strings"
	"testing"
)

func runsOf(workload, metric string, values ...float64) []RunRecord {
	var out []RunRecord
	for _, v := range values {
		out = append(out, RunRecord{Workload: workload, Attempted: 100,
			Metrics: map[string]Metric{metric: {Value: v, Unit: "ms"}}})
	}
	return out
}

func TestCompareVerdicts(t *testing.T) {
	spec := &Spec{EndToEnd: []MetricSpec{
		{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.10},
		{Name: "throughput_ops_s", Unit: "ops/s", Better: "higher", Bound: 0.10},
	}}
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.02}
	cases := []struct {
		name, metric string
		change       []float64
		want         string
		code         int
	}{
		{"slower latency regresses", "p50_ms", []float64{1.20, 1.21, 1.19, 1.20, 1.22}, "REGRESSION", 1},
		{"faster latency is better", "p50_ms", []float64{0.80, 0.81, 0.79, 0.80, 0.82}, "better by", 0},
		{"same is unchanged", "p50_ms", steady, "unchanged", 0},
		{"noisy is unresolved, not unchanged", "p50_ms", []float64{0.7, 1.3, 1.0, 0.8, 1.25}, "unresolved", 0},
		{"one run a side is unresolved", "p50_ms", []float64{1.0}, "unresolved", 0},
		{"lower throughput regresses", "throughput_ops_s", []float64{0.80, 0.81, 0.79, 0.80, 0.82}, "REGRESSION", 1},
		{"higher throughput is better", "throughput_ops_s", []float64{1.20, 1.21, 1.19, 1.20, 1.22}, "better by", 0},
	}
	for _, c := range cases {
		var buf bytes.Buffer
		code := compareRuns(spec, runsOf("hot_point", c.metric, steady...), runsOf("hot_point", c.metric, c.change...), &buf)
		var row string
		for _, line := range strings.Split(buf.String(), "\n") {
			if strings.Contains(line, c.metric) {
				row = line
			}
		}
		if !strings.Contains(row, c.want) || code != c.code {
			t.Errorf("%s: exit %d, row %q; want exit %d and %q", c.name, code, row, c.code, c.want)
		}
		if !strings.Contains(row, " of 1") {
			t.Errorf("%s: the ratio must name its base: %q", c.name, row)
		}
	}
}

func TestCompareFailsOnMoreFailedRequests(t *testing.T) {
	spec := &Spec{EndToEnd: []MetricSpec{{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.10}}}
	parent := runsOf("cold_scan", "p50_ms", 1, 1, 1)
	change := runsOf("cold_scan", "p50_ms", 1, 1, 1)
	change[1].Failed = 1
	var buf bytes.Buffer
	if code := compareRuns(spec, parent, change, &buf); code != 1 || !strings.Contains(buf.String(), "more failed requests") {
		t.Fatalf("exit %d:\n%s", code, buf.String())
	}
}
