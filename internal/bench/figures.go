package bench

import (
	"fmt"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"

	"sebdb/internal/core"
	"sebdb/internal/obs"
)

// A figure is data: what it is called, what its axes are, and how to
// open each of its x-axis points. Two drivers (driver.go) consume that
// shape — the table driver behind bchainbench and the testing.B driver
// behind BenchmarkFigures — and nothing else opens, times or closes a
// figure's engines, so every figure has exactly one definition.

// Env is the run environment the drivers hand to every figure.
type Env struct {
	// Dir is the scratch directory; datasets found there are reused.
	Dir string
	// Scale shrinks the paper-scale parameters (1.0 = paper-like sizes,
	// fit for a workstation; smoke runs use ~0.01).
	Scale float64
	// Workers is the commit-pipeline and signature-check parallelism of
	// figure 7 and the upper bound of figure 23's 1, 2, 4, ... sweep;
	// 0 means GOMAXPROCS.
	Workers int
	// TraceSample, when positive, runs the figures' engines under the
	// statement flight recorder, tracing one statement in every
	// TraceSample; 0 leaves the recorder out so figures measure the bare
	// engine. Comparing figure 23 with and without it prices the
	// recorder.
	TraceSample int

	// sweeps memoizes measured sweeps, so figures that project one sweep
	// (17-19) describe a single run.
	sweeps map[*Sweep][]Row
}

func (env *Env) workers() int {
	if env.Workers > 0 {
		return env.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// scaled multiplies a paper-scale quantity by the harness scale,
// keeping at least min.
func (env *Env) scaled(paper, min int) int {
	if v := int(float64(paper) * env.Scale); v > min {
		return v
	}
	return min
}

// blockSizes returns the paper's 500..2500 block sweep, scaled.
func (env *Env) blockSizes() []int {
	out := make([]int, 0, 5)
	for _, b := range []int{500, 1000, 1500, 2000, 2500} {
		out = append(out, env.scaled(b, 10))
	}
	return out
}

// Figure is one reproducible experiment: a titled view of a sweep.
type Figure struct {
	// Num is the paper's figure number (23 and up are our own).
	Num int
	// Name optionally names a non-paper figure, so `bchainbench -fig
	// recovery` works without remembering the numbering.
	Name string
	// Title heads the table; "{workers}" stands for Env.Workers.
	Title string
	// Note carries the expected shape, printed under the table.
	Note string
	// Sweep is what gets measured. Figures may share one.
	*Sweep
	// Cols selects the sweep's series this figure shows; nil shows all.
	Cols []int
}

// Sweep is a measurable grid: series by x-axis points.
type Sweep struct {
	// X labels the x axis.
	X string
	// Series names every column and its unit.
	Series []Series
	// Points lists the x-axis points for one run. Whatever it opens
	// through s is shared by all points and closed by the driver after
	// the last one.
	Points func(s *Scope) ([]Point, error)
}

// Point is one x-axis position. Exactly one of Open and Row is set.
type Point struct {
	// X is the row label.
	X string
	// Open loads or reopens the point's datasets through s — the driver
	// closes them when it is done with the point — and returns one probe
	// per series of the sweep.
	Open func(s *Scope) ([]Probe, error)
	// Row is for points that measure a whole phase rather than one call
	// (concurrent clients, a restart, readers racing a writer): it runs
	// the phase and returns one value per series.
	Row func(s *Scope) ([]float64, error)
}

// Probe is one cell's measurement: a query returning its result count,
// or a size in bytes. For a Millis series the driver times the call;
// for any other unit the returned number is the cell.
type Probe func() (int, error)

// counted makes query fail unless it returns want results.
func counted(want int, query Probe) Probe {
	return func() (int, error) {
		n, err := query()
		if err == nil && n != want {
			err = fmt.Errorf("got %d results, want %d", n, want)
		}
		return n, err
	}
}

// Scope owns what a sweep or one of its points opens; the drivers
// close it, in reverse order of opening.
type Scope struct {
	*Env
	closers []func() error
}

// Defer registers f to run when the driver closes the scope.
func (s *Scope) Defer(f func() error) { s.closers = append(s.closers, f) }

// close runs the deferred closers, newest first, and reports the first
// failure through *errp unless an earlier error is already there.
func (s *Scope) close(errp *error) {
	for i := len(s.closers) - 1; i >= 0; i-- {
		if err := s.closers[i](); err != nil && *errp == nil {
			*errp = err
		}
	}
	s.closers = nil
}

// Dataset describes one engine directory of a figure.
type Dataset struct {
	// Name is the directory under Env.Dir.
	Name string
	// Cache is the engine's cache policy (off unless a figure is about
	// caching, so access-path comparisons measure I/O).
	Cache core.CacheMode
	// Load, when set, builds the chain and its indexes in an empty
	// directory. A reused directory replays both on Open.
	Load func(e *core.Engine) error
	// Reopen, when set, restores on reuse what Load built outside the
	// directory (the in-memory off-chain store).
	Reopen func(e *core.Engine) error
}

// Engine opens d under the scope, loading it on first use.
func (s *Scope) Engine(d Dataset) (*core.Engine, error) {
	cfg := engineConfig(filepath.Join(s.Dir, d.Name), d.Cache)
	if s.TraceSample > 0 {
		cfg.Recorder = obs.NewRecorder(obs.RecorderConfig{SampleEvery: s.TraceSample})
	}
	e, err := core.Open(cfg)
	if err != nil {
		return nil, err
	}
	s.Defer(e.Close)
	switch {
	case e.Height() == 0 && d.Load != nil:
		err = d.Load(e)
	case e.Height() > 0 && d.Reopen != nil:
		err = d.Reopen(e)
	}
	return e, err
}

// Figures lists every evaluation figure of the paper in order, plus
// five of our own: 23, the parallel read pipeline's worker-scaling
// sweep; 24, the checkpoint subsystem's restart and bootstrap recovery
// sweep (the paper's runs are single-threaded and replay the full chain
// on every start); 25, read throughput through the height-pinned views
// while the commit pipeline runs beside the readers; 26, aggregate
// read throughput across a streaming-replication fleet versus replica
// count; and 27, the tiered storage read path (pread vs mmap backends
// over plain vs recompressed segments).
var Figures = []*Figure{
	fig7, fig8, fig9, fig10, fig11, fig12, fig13, fig14, fig15, fig16,
	fig17, fig18, fig19, fig20, fig21, fig22,
	figParallel, figRecovery, figReadView, figReplicas, figStorage,
}

// Selectors describes what Lookup accepts, for usage and error text:
// the figure-number range and every named figure.
func Selectors() string {
	var names []string
	for _, f := range Figures {
		if f.Name != "" {
			names = append(names, fmt.Sprintf("%q (%d)", f.Name, f.Num))
		}
	}
	return fmt.Sprintf("%d..%d or %s", Figures[0].Num, Figures[len(Figures)-1].Num, strings.Join(names, ", "))
}

// Lookup resolves a figure selector: a figure number or the name of
// one of the named figures.
func Lookup(sel string) (*Figure, error) {
	num, numErr := strconv.Atoi(sel)
	for _, f := range Figures {
		if (numErr == nil && f.Num == num) || (f.Name != "" && f.Name == sel) {
			return f, nil
		}
	}
	return nil, fmt.Errorf("bench: unknown figure %q (want %s)", sel, Selectors())
}
