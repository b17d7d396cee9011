package bench

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"
)

// Timed measures probe's wall time in milliseconds, reporting the
// fastest of three runs to damp page-cache and scheduler noise.
func Timed(probe Probe) (float64, error) {
	var best time.Duration
	for r := 0; r < 3; r++ {
		start := time.Now()
		if _, err := probe(); err != nil {
			return 0, err
		}
		if d := time.Since(start); r == 0 || d < best {
			best = d
		}
	}
	return millis(best), nil
}

func (f *Figure) title(env *Env) string {
	return strings.ReplaceAll(f.Title, "{workers}", strconv.Itoa(env.workers()))
}

// cols returns the indexes of the sweep's series that f shows.
func (f *Figure) cols() []int {
	if f.Cols != nil {
		return f.Cols
	}
	all := make([]int, len(f.Series))
	for i := range all {
		all[i] = i
	}
	return all
}

// Table is the table driver: it measures f's sweep — every Millis cell
// the best of three runs — unless an earlier figure of this Env already
// did, and returns f's view of it.
func (env *Env) Table(f *Figure) (*Table, error) {
	rows, done := env.sweeps[f.Sweep]
	if !done {
		var err error
		if rows, err = env.measure(f.Sweep); err != nil {
			return nil, fmt.Errorf("fig %d: %w", f.Num, err)
		}
		if env.sweeps == nil {
			env.sweeps = make(map[*Sweep][]Row)
		}
		env.sweeps[f.Sweep] = rows
	}
	t := &Table{Title: f.title(env), X: f.X, Note: f.Note}
	cols := f.cols()
	for _, c := range cols {
		t.Series = append(t.Series, f.Series[c])
	}
	for _, row := range rows {
		view := Row{X: row.X}
		for _, c := range cols {
			view.Values = append(view.Values, row.Values[c])
		}
		t.Rows = append(t.Rows, view)
	}
	return t, nil
}

func (env *Env) measure(sw *Sweep) (rows []Row, err error) {
	s := &Scope{Env: env}
	defer s.close(&err)
	points, err := sw.Points(s)
	if err != nil {
		return nil, err
	}
	for _, p := range points {
		values, err := env.measurePoint(sw, p)
		if err != nil {
			return nil, fmt.Errorf("at %s %s: %w", sw.X, p.X, err)
		}
		rows = append(rows, Row{X: p.X, Values: values})
	}
	return rows, nil
}

// measurePoint opens one point, takes one value per series and closes
// the point again.
func (env *Env) measurePoint(sw *Sweep, p Point) (values []float64, err error) {
	s := &Scope{Env: env}
	defer s.close(&err)
	if p.Row != nil {
		return p.Row(s)
	}
	probes, err := p.Open(s)
	if err != nil {
		return nil, err
	}
	values = make([]float64, len(sw.Series))
	for i, probe := range probes {
		if sw.Series[i].Unit == Millis {
			values[i], err = Timed(probe)
		} else {
			var n int
			n, err = probe()
			values[i] = float64(n)
		}
		if err != nil {
			return nil, err
		}
	}
	return values, nil
}

// Bench is the testing.B driver: every cell f shows becomes a
// sub-benchmark point/series whose b.N loop runs the cell's probe
// (non-Millis cells also report their value as a metric); a
// self-measured point is one sub-benchmark whose series are reported
// metrics. It returns the point/series names it ran, in order.
func (env *Env) Bench(b *testing.B, f *Figure) []string {
	names, err := env.bench(b, f)
	if err != nil {
		b.Fatal(err)
	}
	return names
}

func (env *Env) bench(b *testing.B, f *Figure) (names []string, err error) {
	s := &Scope{Env: env}
	defer s.close(&err)
	points, err := f.Points(s)
	if err != nil {
		return nil, err
	}
	cols := f.cols()
	for _, p := range points {
		for _, c := range cols {
			names = append(names, p.X+"/"+f.Series[c].Name)
		}
		b.Run(p.X, func(b *testing.B) {
			if err := env.benchPoint(b, f, p); err != nil {
				b.Fatal(err)
			}
		})
	}
	return names, nil
}

func (env *Env) benchPoint(b *testing.B, f *Figure, p Point) (err error) {
	if p.Row != nil {
		return env.benchRow(b, f, p)
	}
	s := &Scope{Env: env}
	defer s.close(&err)
	probes, err := p.Open(s)
	if err != nil {
		return err
	}
	for _, c := range f.cols() {
		b.Run(f.Series[c].Name, func(b *testing.B) {
			b.ReportAllocs()
			var v int
			for i := 0; i < b.N; i++ {
				var err error
				if v, err = probes[c](); err != nil {
					b.Fatal(err)
				}
			}
			if u := f.Series[c].Unit; u != Millis {
				b.ReportMetric(float64(v), string(u))
			}
		})
	}
	return nil
}

// benchRow runs a self-measured point b.N times, each on a fresh
// scope, and reports the last run's values under the series' names.
func (env *Env) benchRow(b *testing.B, f *Figure, p Point) error {
	b.ReportAllocs()
	var values []float64
	for i := 0; i < b.N; i++ {
		var err error
		if values, err = env.measurePoint(f.Sweep, p); err != nil {
			return err
		}
	}
	for _, c := range f.cols() {
		s := f.Series[c]
		label := strings.ReplaceAll(s.Name, " ", "_")
		if !strings.HasSuffix(s.Name, string(s.Unit)) {
			label += "-" + string(s.Unit)
		}
		b.ReportMetric(values[c], label)
	}
	return nil
}
