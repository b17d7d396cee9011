package core

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"sebdb/internal/types"
)

// oddChain gives e the odd table and one block whose a column holds −0
// and +Inf and whose b column holds only −Inf: histogram bounds JSON
// cannot carry as numbers. (A NaN cannot reach the chain.)
func oddChain(t *testing.T, e *Engine) {
	t.Helper()
	mustExec(t, e, `CREATE odd (a decimal, b decimal, s string)`)
	if err := e.FlushAt(1); err != nil {
		t.Fatal(err)
	}
	var batch []*types.Transaction
	for i := 0; i < 8; i++ {
		a := math.Copysign(0, -1)
		if i >= 4 {
			a = math.Inf(1)
		}
		tx, err := e.NewTransaction("org0", "odd", []types.Value{types.Dec(a), types.Dec(math.Inf(-1)), types.Str("x")})
		if err != nil {
			t.Fatal(err)
		}
		batch = append(batch, tx)
	}
	if _, err := e.CommitBlock(batch, 2); err != nil {
		t.Fatal(err)
	}
}

// replicaOf opens an engine over a fresh directory and applies every
// block of src to it.
func replicaOf(t *testing.T, src *Engine) *Engine {
	t.Helper()
	e, err := Open(Config{Dir: t.TempDir(), BlockMaxTxs: 8, HistogramDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	for h := uint64(0); h < src.Height(); h++ {
		b, err := src.Block(h)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.ApplyBlock(b); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// TestAdoptedDefinitionsBitForBit: a node that adopts another's
// definitions buckets with the same bounds — −0, +Inf and a sole −Inf
// included — for layered indexes and ALIs alike, and persists them.
func TestAdoptedDefinitionsBitForBit(t *testing.T) {
	src, err := Open(Config{Dir: t.TempDir(), BlockMaxTxs: 8, HistogramDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	oddChain(t, src)
	for _, col := range []string{"a", "b", "s"} {
		if err := src.CreateIndex("odd", col); err != nil {
			t.Fatal(err)
		}
		if err := src.CreateAuthIndex("odd", col); err != nil {
			t.Fatal(err)
		}
	}
	if err := src.CreateAuthIndex("", "tname"); err != nil {
		t.Fatal(err)
	}
	raw, err := src.IndexDefs()
	if err != nil {
		t.Fatal(err)
	}

	dst := replicaOf(t, src)
	defs, err := dst.ParseIndexDefs(raw)
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.AdoptIndexDefs(defs); err != nil {
		t.Fatal(err)
	}
	for key, idx := range src.lidx {
		got := dst.lidx[key]
		if got == nil {
			t.Fatalf("layered %s not adopted", key)
		}
		if h := idx.Histogram(); h != nil && !reflect.DeepEqual(boundBits(got.Histogram()), boundBits(h)) {
			t.Errorf("layered %s bounds %x, source %x", key, boundBits(got.Histogram()), boundBits(h))
		}
	}
	for key, ali := range src.alis {
		got := dst.alis[key]
		if got == nil {
			t.Fatalf("ALI %s not adopted", key)
		}
		if h := ali.Histogram(); h != nil && !reflect.DeepEqual(boundBits(got.Histogram()), boundBits(h)) {
			t.Errorf("ALI %s bounds %x, source %x", key, boundBits(got.Histogram()), boundBits(h))
		}
	}
	if got, want := aliRoots(dst), aliRoots(src); got != want {
		t.Errorf("MB-roots differ after adoption:\n%s---\n%s", got, want)
	}
	if back, err := dst.IndexDefs(); err != nil || string(back) != string(raw) {
		t.Errorf("adopted definitions render as\n%s\nsource renders\n%s(err %v)", back, raw, err)
	}
	if got := readDefs(t, dst.cfg.Dir); len(got.Indexes) != 7 {
		t.Errorf("indexes.json holds %d definitions, want 7", len(got.Indexes))
	}
}

// TestPeerDefinitionsRefused: definitions from a peer are outside
// input. Each malformed or inconsistent set is refused whole by the
// validating parse, before anything registers: the node keeps its
// height, gains no index and writes no indexes.json.
func TestPeerDefinitionsRefused(t *testing.T) {
	bits := func(fs ...float64) string {
		var q []string
		for _, f := range fs {
			q = append(q, fmt.Sprintf(`"%016x"`, math.Float64bits(f)))
		}
		return "[" + strings.Join(q, ",") + "]"
	}
	def := func(family, key string, continuous bool, bounds string) string {
		s := fmt.Sprintf(`{"family":%q,"key":%q,"continuous":%v`, family, key, continuous)
		if bounds != "" {
			s += `,"bounds":` + bounds
		}
		return s + "}"
	}
	set := func(defs ...string) string { return `{"indexes":[` + strings.Join(defs, ",") + `]}` }
	good := def("layered", "odd.a", true, bits(0, 1))
	many := make([]float64, maxPeerBounds+1)
	for i := range many {
		many[i] = float64(i)
	}

	for name, raw := range map[string]string{
		"malformed JSON":        `{"indexes":[`,
		"not JSON":              `indexes`,
		"bound not hex":         set(def("layered", "odd.a", true, `["1.5"]`)),
		"unknown family":        set(def("btree", "odd.a", true, "")),
		"unknown table":         set(def("layered", "nosuch.a", true, "")),
		"unknown column":        set(def("auth", "odd.nosuch", true, "")),
		"table in another case": set(def("layered", "ODD.a", true, "")),
		"layered system column": set(def("layered", ".tname", false, "")),
		"unknown system column": set(def("auth", ".nosuch", false, "")),
		"continuous string":     set(def("layered", "odd.s", true, "")),
		"discrete number":       set(def("auth", "odd.a", false, "")),
		"continuous system":     set(def("auth", ".ts", true, "")),
		"discrete with bounds":  set(def("layered", "odd.s", false, bits(1))),
		"descending bounds":     set(def("layered", "odd.a", true, bits(2, 1))),
		"repeated bound":        set(def("auth", "odd.a", true, bits(1, 1))),
		"NaN beside a bound":    set(def("layered", "odd.b", true, bits(math.NaN(), 1))),
		"bound beside a NaN":    set(def("layered", "odd.b", true, bits(1, math.NaN()))),
		"too many bounds":       set(def("layered", "odd.a", true, bits(many...))),
		"listed twice":          set(good, def("layered", "odd.a", true, bits(0, 2))),
		"names only":            `{"layered":["odd.a"]}`,
		"good then bad":         set(good, def("auth", "odd.nosuch", true, "")),
	} {
		t.Run(name, func(t *testing.T) {
			e, err := Open(Config{Dir: t.TempDir(), BlockMaxTxs: 8, HistogramDepth: 4})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			oddChain(t, e)
			height := e.Height()
			defs, err := e.ParseIndexDefs([]byte(raw))
			if err == nil {
				t.Fatalf("accepted %s", raw)
			}
			// What a caller that ignored the refusal could register is
			// nothing: the zero set adopts nothing.
			if err := e.AdoptIndexDefs(defs); err != nil {
				t.Fatal(err)
			}
			if e.Height() != height {
				t.Errorf("height %d, want %d", e.Height(), height)
			}
			v := e.CurrentView()
			if len(v.lidx) != 2 || len(v.alis) != 0 { // the two system indexes
				t.Errorf("registered indexes: %d layered, %d ALIs", len(v.lidx), len(v.alis))
			}
			if _, err := os.Stat(filepath.Join(e.cfg.Dir, indexMetaFile)); !errors.Is(err, os.ErrNotExist) {
				t.Errorf("indexes.json written (stat err %v)", err)
			}
		})
	}

	// The bounds rule is the one layered.NewEqualDepth keeps, so a sole
	// NaN bound is accepted.
	e, err := Open(Config{Dir: t.TempDir(), BlockMaxTxs: 8, HistogramDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	oddChain(t, e)
	if _, err := e.ParseIndexDefs([]byte(set(good, def("auth", "odd.b", true, bits(math.NaN()))))); err != nil {
		t.Errorf("a sole NaN bound refused: %v", err)
	}
}
