package bench

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"sebdb/internal/core"
	"sebdb/internal/exec"
)

func TestResultPlacementUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	got := resultPlacement(GenConfig{Blocks: 10, ResultSize: 100, Dist: Uniform}, rng)
	counts := make([]int, 10)
	for _, b := range got {
		if b < 0 || b >= 10 {
			t.Fatalf("block %d out of range", b)
		}
		counts[b]++
	}
	for b, c := range counts {
		if c != 10 {
			t.Errorf("block %d got %d results, want 10", b, c)
		}
	}
}

func TestResultPlacementGaussian(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	got := resultPlacement(GenConfig{Blocks: 100, ResultSize: 1000, Dist: Gaussian, Sigma: 10}, rng)
	center, tails := 0, 0
	for _, b := range got {
		if b < 0 || b >= 100 {
			t.Fatalf("block %d out of range", b)
		}
		if b >= 40 && b < 60 {
			center++
		}
		if b < 20 || b >= 80 {
			tails++
		}
	}
	if center < tails*3 {
		t.Errorf("gaussian not concentrated: center=%d tails=%d", center, tails)
	}
}

func TestLoadTrackingCountsExact(t *testing.T) {
	e, err := NewEngine(t.TempDir(), core.CacheNone)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	cfg := GenConfig{Blocks: 10, TxPerBlock: 20, ResultSize: 50, Dist: Gaussian, Sigma: 3, Seed: 1}
	if err := LoadTracking(e, cfg); err != nil {
		t.Fatal(err)
	}
	n, err := Q2(e, "org1", exec.MethodLayered)
	if err != nil {
		t.Fatal(err)
	}
	if n != 50 {
		t.Errorf("Q2 = %d, want 50", n)
	}
	// All three methods agree.
	for _, m := range []exec.Method{exec.MethodScan, exec.MethodBitmap} {
		if n2, _ := Q2(e, "org1", m); n2 != 50 {
			t.Errorf("%v = %d", m, n2)
		}
	}
}

func TestLoadRangeAndJoinAndOnOff(t *testing.T) {
	e, err := NewEngine(t.TempDir(), core.CacheNone)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := LoadRange(e, GenConfig{Blocks: 8, TxPerBlock: 25, ResultSize: 40, Dist: Uniform, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	for _, m := range []exec.Method{exec.MethodScan, exec.MethodBitmap, exec.MethodLayered} {
		n, err := Q4(e, RangeLo, RangeHi, m)
		if err != nil || n != 40 {
			t.Errorf("Q4 %v = %d, %v", m, n, err)
		}
	}

	e2, err := NewEngine(t.TempDir(), core.CacheNone)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if err := LoadJoin(e2, 8, 40, 100, 30, Gaussian, 2, 3); err != nil {
		t.Fatal(err)
	}
	for _, m := range []exec.Method{exec.MethodScan, exec.MethodBitmap, exec.MethodLayered} {
		n, err := Q5(e2, m)
		if err != nil || n != 30 {
			t.Errorf("Q5 %v = %d, %v", m, n, err)
		}
	}

	e3, err := NewEngine(t.TempDir(), core.CacheNone)
	if err != nil {
		t.Fatal(err)
	}
	defer e3.Close()
	if err := LoadOnOff(e3, 8, 40, 100, 25, Uniform, 0, 4); err != nil {
		t.Fatal(err)
	}
	for _, m := range []exec.Method{exec.MethodScan, exec.MethodBitmap, exec.MethodLayered} {
		n, err := Q6(e3, m)
		if err != nil || n != 25 {
			t.Errorf("Q6 %v = %d, %v", m, n, err)
		}
	}
}

func TestLoadTwoDimCounts(t *testing.T) {
	e, err := NewEngine(t.TempDir(), core.CacheNone)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := LoadTwoDim(e, 10, 30, 20, 40, 40, Uniform, 0, 5); err != nil {
		t.Fatal(err)
	}
	// Both-dimension result = nBoth.
	n, err := Q3(e, "org1", "transfer", nil, true)
	if err != nil || n != 20 {
		t.Errorf("Q3 TI = %d, %v", n, err)
	}
	// Single-index path agrees.
	n, err = Q3(e, "org1", "transfer", nil, false)
	if err != nil || n != 20 {
		t.Errorf("Q3 SI = %d, %v", n, err)
	}
	// org1's total = nBoth + org1Only.
	n, err = Q2(e, "org1", exec.MethodLayered)
	if err != nil || n != 60 {
		t.Errorf("Q2 = %d, %v", n, err)
	}
}

func TestQ7(t *testing.T) {
	e, err := NewEngine(t.TempDir(), core.CacheNone)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := LoadTracking(e, GenConfig{Blocks: 5, TxPerBlock: 10, ResultSize: 10, Dist: Uniform, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if n, err := Q7(e, 2); err != nil || n != 1 {
		t.Errorf("Q7 = %d, %v", n, err)
	}
}

// TestFiguresSmoke drives every registered figure at a tiny scale
// through both drivers. The table driver must yield one row per point
// and one finite, non-negative cell per declared series, measuring a
// sweep that several figures view (17-19) only once; the testing.B
// driver, run at one iteration per cell, must enumerate exactly the
// table's (point, series) names.
func TestFiguresSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("figure smoke test is slow")
	}
	benchtime := flag.Lookup("test.benchtime")
	defer benchtime.Value.Set(benchtime.Value.String())
	if err := benchtime.Value.Set("1x"); err != nil {
		t.Fatal(err)
	}
	tables := &Env{Dir: t.TempDir(), Scale: 0.01}
	benches := &Env{Dir: t.TempDir(), Scale: 0.01}
	for _, f := range Figures {
		t.Run(fmt.Sprintf("fig%02d", f.Num), func(t *testing.T) {
			measured := tables.sweeps[f.Sweep] // by an earlier figure over the same sweep
			tbl, err := tables.Table(f)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			tbl.Fprint(&buf)
			t.Log(buf.String())
			if measured != nil && &measured[0] != &tables.sweeps[f.Sweep][0] {
				t.Error("a shared sweep was measured again")
			}
			if len(tbl.Rows) == 0 {
				t.Fatal("table has no rows")
			}
			var want []string
			for _, row := range tbl.Rows {
				if len(row.Values) != len(f.cols()) {
					t.Fatalf("row %s has %d cells for %d declared series", row.X, len(row.Values), len(f.cols()))
				}
				for i, v := range row.Values {
					if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
						t.Errorf("row %s series %s = %v, want a finite value >= 0", row.X, tbl.Series[i].Name, v)
					}
					want = append(want, row.X+"/"+tbl.Series[i].Name)
				}
			}
			var got []string
			failed := true
			testing.Benchmark(func(b *testing.B) {
				defer func() { failed = b.Failed() }()
				got = benches.Bench(b, f)
			})
			if failed {
				t.Fatal("the testing.B driver failed")
			}
			if !slices.Equal(got, want) {
				t.Errorf("testing.B driver ran cells\n%q\ntable driver measured\n%q", got, want)
			}
		})
	}
}

// TestTableJSONNumeric checks the two edges a measured table leaves
// through: JSON carries numbers with a unit per series, text renders
// the same cells the way the figures always printed them.
func TestTableJSONNumeric(t *testing.T) {
	tbl := &Table{
		Title: "Fig. 0 — units", X: "blocks",
		Series: []Series{{"latency", Millis}, {"VO", Bytes}, {"rate", "tx/s"}, {"digest", Hex}},
		Rows: []Row{
			{X: "10", Values: []float64{2.134, 1.7 * (1 << 20), 1234.4, 0x4d31cd9abf26}},
			{X: "20", Values: []float64{0.05, 900, 7, 1}},
			{X: "30", Values: []float64{150.6, 41.2 * (1 << 10), 0, 2}},
		},
	}
	var text bytes.Buffer
	tbl.Fprint(&text)
	for _, want := range []string{
		"2.13ms", "1.7MB", "1234", "4d31cd9abf26", "0.050ms", "900B", "000000000001", "151ms", "41.2KB",
	} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("rendered table lacks %q:\n%s", want, text.String())
		}
	}

	var raw bytes.Buffer
	if err := WriteJSON(&raw, []FigureJSON{{Figure: 12, Table: tbl}}); err != nil {
		t.Fatal(err)
	}
	var out []struct {
		Figure int
		X      string
		Series []Series
		Rows   []Row
	}
	if err := json.Unmarshal(raw.Bytes(), &out); err != nil {
		t.Fatalf("values are not numbers: %v\n%s", err, raw.String())
	}
	if fig := out[0]; fig.Figure != 12 || fig.X != "blocks" || !slices.Equal(fig.Series, tbl.Series) ||
		!slices.EqualFunc(fig.Rows, tbl.Rows, func(a, b Row) bool { return a.X == b.X && slices.Equal(a.Values, b.Values) }) {
		t.Errorf("decoded %+v, want figure 12 with the table's x, series and rows", fig)
	}
}

func TestLookup(t *testing.T) {
	for _, f := range Figures {
		for _, sel := range []string{strconv.Itoa(f.Num), f.Name} {
			if sel == "" {
				continue
			}
			if got, err := Lookup(sel); err != nil || got != f {
				t.Errorf("Lookup(%q) = %v, %v; want figure %d", sel, got, err, f.Num)
			}
			if sel == f.Name && !strings.Contains(Selectors(), strconv.Quote(sel)) {
				t.Errorf("Selectors() = %s, lacks %q", Selectors(), sel)
			}
		}
	}
	for _, sel := range []string{"nope", "99", ""} {
		if _, err := Lookup(sel); err == nil || !strings.Contains(err.Error(), Selectors()) {
			t.Errorf("Lookup(%q) = %v, want an error listing the selectors", sel, err)
		}
	}
}
