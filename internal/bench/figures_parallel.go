package bench

import (
	"context"
	"fmt"

	"sebdb/internal/core"
	"sebdb/internal/exec"
)

// workerSteps returns the 1, 2, 4, ..., max sweep, always ending at
// max itself.
func workerSteps(max int) []int {
	var out []int
	for w := 1; w < max; w *= 2 {
		out = append(out, w)
	}
	return append(out, max)
}

// figParallel — not a paper figure: Q4 (range query) latency under the
// three access methods as the read pipeline's worker bound grows. The
// scan path fans whole-block fetch + predicate evaluation across the
// pool, so it should speed up with workers until the disk or
// GOMAXPROCS saturates; the layered path parallelizes its per-block
// second-level probes, so its gain tracks the number of candidate blocks.
var figParallel = &Figure{
	Num:   23,
	Name:  "parallel",
	Title: "Fig. 23 — parallel read pipeline: Q4 latency at 1..{workers} workers",
	Note:  "scan/bitmap should drop as workers grow; all methods return identical results",
	Sweep: &Sweep{
		X:      "workers",
		Series: []Series{{"scan", Millis}, {"bitmap", Millis}, {"layered", Millis}},
		Points: parallelPoints,
	},
}

func parallelPoints(s *Scope) ([]Point, error) {
	e, err := s.Engine(Dataset{
		Name: "figp",
		Load: func(e *core.Engine) error {
			return LoadRange(e, GenConfig{
				Blocks: s.scaled(2_000, 40), TxPerBlock: 100, ResultSize: s.scaled(10_000, 200),
				Dist: Uniform, Seed: 1,
			})
		},
	})
	if err != nil {
		return nil, err
	}
	want := -1 // the first answer; every later one must match it
	var out []Point
	for _, w := range workerSteps(s.workers()) {
		out = append(out, Point{X: fmt.Sprint(w), Open: func(*Scope) ([]Probe, error) {
			e.SetParallelism(w)
			var probes []Probe
			for _, m := range []exec.Method{exec.MethodScan, exec.MethodBitmap, exec.MethodLayered} {
				// Each query runs as one recorder statement (a no-op while
				// Env.TraceSample is 0, when Recorder() is nil), so this
				// figure with and without -trace-sample prices the
				// recorder's per-statement overhead on an otherwise
				// identical workload.
				probes = append(probes, func() (int, error) {
					_, st := e.Recorder().Begin(context.Background(), "Q4 range "+m.String())
					st.SetStage("select")
					n, err := Q4(e, RangeLo, RangeHi, m)
					st.Finish(err)
					if want < 0 {
						want = n
					}
					if err == nil && n != want {
						err = fmt.Errorf("%s at %d workers returned %d rows, want %d", m, w, n, want)
					}
					return n, err
				})
			}
			return probes, nil
		}})
	}
	return out, nil
}
