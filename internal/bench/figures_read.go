package bench

import (
	"fmt"
	"math"

	"sebdb/internal/core"
	"sebdb/internal/exec"
	"sebdb/internal/sqlparser"
)

// Figs. 8, 9 and 11-16 are one experiment: a query under the three
// access methods over a uniformly and a Gaussian placed dataset — the
// SU/SG/BU/BG/LU/LG series — swept either over the chain size or over
// the result size.

var methodSeries = []Series{
	{"SU", Millis}, {"SG", Millis}, {"BU", Millis}, {"BG", Millis}, {"LU", Millis}, {"LG", Millis},
}

// readPoint is one x position of a method sweep.
type readPoint struct {
	// x labels the row and names the dataset directories.
	x int
	// blocks is the chain size, result the size of the answer every
	// method must return.
	blocks, result int
}

// bySize sweeps the chain size at a fixed result size.
func bySize(env *Env, result int) []readPoint {
	var out []readPoint
	for _, blocks := range env.blockSizes() {
		out = append(out, readPoint{x: blocks, blocks: blocks, result: result})
	}
	return out
}

// byResult sweeps the result size — the paper sizes scaled, capped at
// max — over a fixed chain.
func byResult(env *Env, blocks int, paper []int, max int) []readPoint {
	var out []readPoint
	for _, n := range paper {
		result := env.scaled(n, 20)
		if result > max {
			result = max
		}
		out = append(out, readPoint{x: result, blocks: blocks, result: result})
	}
	return out
}

var rangeResults = []int{1_000, 2_500, 5_000, 7_500, 10_000}

// methodSweep builds the sweep: at every point one dataset per
// placement, in directory prefix-x-U / prefix-x-G, loaded by load (and,
// where the figure needs it, patched up on reuse by reopen), then
// query once per method and placement.
func methodSweep(x, prefix string,
	points func(env *Env) []readPoint,
	load func(env *Env, e *core.Engine, p readPoint, dist Distribution) error,
	reopen func(e *core.Engine, p readPoint) error,
	query func(e *core.Engine, m exec.Method) (int, error)) *Sweep {
	open := func(p readPoint) func(s *Scope) ([]Probe, error) {
		return func(s *Scope) ([]Probe, error) {
			engines := map[Distribution]*core.Engine{}
			for _, dist := range []Distribution{Uniform, Gaussian} {
				d := Dataset{
					Name: fmt.Sprintf("%s-%d-%s", prefix, p.x, dist),
					Load: func(e *core.Engine) error { return load(s.Env, e, p, dist) },
				}
				if reopen != nil {
					d.Reopen = func(e *core.Engine) error { return reopen(e, p) }
				}
				e, err := s.Engine(d)
				if err != nil {
					return nil, err
				}
				engines[dist] = e
			}
			var probes []Probe
			for _, m := range []exec.Method{exec.MethodScan, exec.MethodBitmap, exec.MethodLayered} {
				for _, dist := range []Distribution{Uniform, Gaussian} {
					e := engines[dist]
					probes = append(probes, counted(p.result, func() (int, error) { return query(e, m) }))
				}
			}
			return probes, nil
		}
	}
	return &Sweep{X: x, Series: methodSeries, Points: func(s *Scope) ([]Point, error) {
		var out []Point
		for _, p := range points(s.Env) {
			out = append(out, Point{X: fmt.Sprint(p.x), Open: open(p)})
		}
		return out, nil
	}}
}

func q2(e *core.Engine, m exec.Method) (int, error) { return Q2(e, "org1", m) }
func q4(e *core.Engine, m exec.Method) (int, error) { return Q4(e, RangeLo, RangeHi, m) }

// generated adapts LoadTracking and LoadRange: p.result answer rows
// among 100 transactions per block (more where the answer would not
// fit), Gaussian placement with the given sigma.
func generated(load func(*core.Engine, GenConfig) error, sigma float64) func(*Env, *core.Engine, readPoint, Distribution) error {
	return func(_ *Env, e *core.Engine, p readPoint, dist Distribution) error {
		txPerBlock := 100
		if need := p.result/p.blocks + 1; need > txPerBlock {
			txPerBlock = need
		}
		return load(e, GenConfig{
			Blocks: p.blocks, TxPerBlock: txPerBlock, ResultSize: p.result,
			Dist: dist, Sigma: sigma, Seed: 1,
		})
	}
}

// Both join datasets hold 10,000 rows per joined table (paper scale).
func joinRows(env *Env) int { return env.scaled(10_000, 100) }

func loadJoin(env *Env, e *core.Engine, p readPoint, dist Distribution) error {
	return LoadJoin(e, p.blocks, 100, joinRows(env), p.result, dist, 20, 1)
}

func loadOnOff(env *Env, e *core.Engine, p readPoint, dist Distribution) error {
	return LoadOnOff(e, p.blocks, 100, joinRows(env), p.result, dist, 20, 1)
}

// reopenOnOff reloads the off-chain side, which lives in memory.
func reopenOnOff(e *core.Engine, p readPoint) error {
	return SetupOffChain(e.OffChain(), p.result)
}

var fig8 = &Figure{
	Num:   8,
	Title: "Fig. 8 — Tracking (Q2) latency, varying blockchain size",
	Note:  "expect layered << bitmap << scan; Gaussian <= uniform for B/L",
	// Result fixed at 10,000.
	Sweep: methodSweep("blocks", "f8",
		func(env *Env) []readPoint { return bySize(env, env.scaled(10_000, 60)) },
		generated(LoadTracking, 20), nil, q2),
}

var fig9 = &Figure{
	Num:   9,
	Title: "Fig. 9 — Tracking (Q2) latency, varying result size",
	Note:  "method gap narrows as the result size grows",
	// 1,000 blocks, Gaussian σ=50.
	Sweep: methodSweep("results", "f9",
		func(env *Env) []readPoint {
			blocks := env.scaled(1000, 20)
			return byResult(env, blocks, []int{2_000, 10_000, 50_000, 250_000, 1_250_000}, blocks*2000)
		},
		generated(LoadTracking, 50), nil, q2),
}

var fig11 = &Figure{
	Num:   11,
	Title: "Fig. 11 — Range query (Q4) latency, varying blockchain size",
	Note:  "layered wins on the selective range; scan grows with chain size",
	// Result fixed at 1,000.
	Sweep: methodSweep("blocks", "f11",
		func(env *Env) []readPoint { return bySize(env, env.scaled(1_000, 40)) },
		generated(LoadRange, 20), nil, q4),
}

var fig12 = &Figure{
	Num:   12,
	Title: "Fig. 12 — Range query (Q4) latency, varying result size",
	Note:  "scan/bitmap insensitive to result size; layered grows with it",
	// 1,000 blocks.
	Sweep: methodSweep("results", "f12",
		func(env *Env) []readPoint {
			return byResult(env, env.scaled(1000, 20), rangeResults, math.MaxInt)
		},
		generated(LoadRange, 20), nil, q4),
}

var fig13 = &Figure{
	Num:   13,
	Title: "Fig. 13 — On-chain join (Q5) latency, varying blockchain size",
	Note:  "layered compares only intersecting block pairs; LU grows with block count",
	// 5,000 join results.
	Sweep: methodSweep("blocks", "f13",
		func(env *Env) []readPoint { return bySize(env, env.scaled(5_000, 50)) },
		loadJoin, nil, Q5),
}

var fig14 = &Figure{
	Num:   14,
	Title: "Fig. 14 — On-chain join (Q5) latency, varying result size",
	Note:  "layered latency grows with result size as more block pairs join",
	// 1,000 blocks.
	Sweep: methodSweep("results", "f14",
		func(env *Env) []readPoint { return byResult(env, env.scaled(1000, 20), rangeResults, joinRows(env)) },
		loadJoin, nil, Q5),
}

var fig15 = &Figure{
	Num:   15,
	Title: "Fig. 15 — On-off-chain join (Q6) latency, varying blockchain size",
	Note:  "layered reads only blocks the off-chain side's range/values flag",
	Sweep: methodSweep("blocks", "f15",
		func(env *Env) []readPoint { return bySize(env, env.scaled(5_000, 50)) },
		loadOnOff, reopenOnOff, Q6),
}

var fig16 = &Figure{
	Num:   16,
	Title: "Fig. 16 — On-off-chain join (Q6) latency, varying result size",
	Note:  "layered grows with result size; scan/bitmap dominated by block reads",
	// 1,000 blocks.
	Sweep: methodSweep("results", "f16",
		func(env *Env) []readPoint { return byResult(env, env.scaled(1000, 20), rangeResults, joinRows(env)) },
		loadOnOff, reopenOnOff, Q6),
}

// Fig. 10 — two-dimension tracking (Q3) over shrinking time windows
// TW1..TW5; SI (index on operator only) vs TI (both indexes).
var fig10 = &Figure{
	Num:   10,
	Title: "Fig. 10 — Two-dimension tracking (Q3) latency over time windows",
	Note:  "TI below SI; all methods speed up as the window shrinks",
	Sweep: &Sweep{
		X:      "window",
		Series: []Series{{"SIU", Millis}, {"SIG", Millis}, {"TIU", Millis}, {"TIG", Millis}},
		Points: twoDimPoints,
	},
}

func twoDimPoints(s *Scope) ([]Point, error) {
	blocks := s.scaled(1000, 40)
	nBoth := s.scaled(1_000, 20)
	extra := s.scaled(9_000, 40)
	engines := map[Distribution]*core.Engine{}
	for _, dist := range []Distribution{Uniform, Gaussian} {
		e, err := s.Engine(Dataset{
			Name: fmt.Sprintf("f10-%s", dist),
			Load: func(e *core.Engine) error {
				return LoadTwoDim(e, blocks, 40, nBoth, extra, extra, dist, 20, 1)
			},
		})
		if err != nil {
			return nil, err
		}
		engines[dist] = e
	}
	endTs := int64(blocks+1) * 1000
	var out []Point
	for i := 1; i <= 5; i++ {
		startBlock := blocks - blocks/(1<<(i-1))
		win := &sqlparser.Window{Start: int64(startBlock+1) * 1000, End: endTs}
		if i == 1 {
			win.Start = 0
		}
		out = append(out, Point{X: fmt.Sprintf("TW%d", i), Open: func(*Scope) ([]Probe, error) {
			var probes []Probe
			for _, two := range []bool{false, true} {
				for _, dist := range []Distribution{Uniform, Gaussian} {
					e := engines[dist]
					probes = append(probes, func() (int, error) { return Q3(e, "org1", "transfer", win, two) })
				}
			}
			return probes, nil
		}})
	}
	return out, nil
}
