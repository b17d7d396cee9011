package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"sebdb/internal/clock"
	"sebdb/internal/schema"
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

// TestAdoptedDefinitionsBitForBit: a node that applies another's blocks
// takes its index definitions from their _index records and buckets with
// the same bounds — −0, +Inf and a sole −Inf included — for layered
// indexes and ALIs alike, and caches the same definitions.
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

	dst := replicaOf(t, src)
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
	want, err := os.ReadFile(filepath.Join(src.cfg.Dir, indexMetaFile))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(filepath.Join(dst.cfg.Dir, indexMetaFile)); err != nil || !bytes.Equal(got, want) {
		t.Errorf("the replica caches\n%s\nthe source caches\n%s(err %v)", got, want, err)
	}
	if got := readDefs(t, dst.cfg.Dir); len(got) != 7 {
		t.Errorf("indexes.json holds %d definitions, want 7", len(got))
	}
}

// malformedIndexRecords are _index record payloads a node must refuse,
// as one block's records each, over oddChain's odd table.
func malformedIndexRecords() map[string][]string {
	bits := func(fs ...float64) string {
		var q []string
		for _, f := range fs {
			q = append(q, fmt.Sprint(math.Float64bits(f)))
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
	good := def("layered", "odd.a", true, bits(0, 1))
	many := make([]float64, maxIndexBounds+1)
	for i := range many {
		many[i] = float64(i)
	}
	one := func(raw string) []string { return []string{raw} }
	return map[string][]string{
		"malformed JSON":        one(`{"indexes":[`),
		"not JSON":              one(`indexes`),
		"bound not hex":         one(def("layered", "odd.a", true, `["1.5"]`)),
		"unknown family":        one(def("btree", "odd.a", true, "")),
		"unknown table":         one(def("layered", "nosuch.a", true, "")),
		"unknown column":        one(def("auth", "odd.nosuch", true, "")),
		"table in another case": one(def("layered", "ODD.a", true, "")),
		"layered system column": one(def("layered", ".tname", false, "")),
		"unknown system column": one(def("auth", ".nosuch", false, "")),
		"continuous string":     one(def("layered", "odd.s", true, "")),
		"discrete number":       one(def("auth", "odd.a", false, "")),
		"continuous system":     one(def("auth", ".ts", true, "")),
		"discrete with bounds":  one(def("layered", "odd.s", false, bits(1))),
		"descending bounds":     one(def("layered", "odd.a", true, bits(2, 1))),
		"repeated bound":        one(def("auth", "odd.a", true, bits(1, 1))),
		"NaN beside a bound":    one(def("layered", "odd.b", true, bits(math.NaN(), 1))),
		"bound beside a NaN":    one(def("layered", "odd.b", true, bits(1, math.NaN()))),
		"sole NaN bound":        one(def("auth", "odd.b", true, bits(math.NaN()))),
		"too many bounds":       one(def("layered", "odd.a", true, bits(many...))),
		"listed twice":          {good, def("layered", "odd.a", true, bits(0, 2))},
		"names only":            one(`{"layered":["odd.a"]}`),
		"good then bad":         {good, def("auth", "odd.nosuch", true, "")},
		"not canonical":         one(` ` + good),
	}
}

func indexRecords(payloads ...string) []*types.Transaction {
	txs := make([]*types.Transaction, len(payloads))
	for i, p := range payloads {
		txs[i] = &types.Transaction{Ts: 3, SenID: "mallory", Tname: indexTable, Args: []types.Value{types.Str(p)}}
	}
	return txs
}

// TestPeerDefinitionsRefused: an index definition from a peer is outside
// input, and reaches a node only as an _index record in a block. A block
// carrying a malformed or inconsistent definition is refused whole by
// both doors of the install stage: the node keeps its height, gains no
// index and writes no indexes.json. The well-formed record the cases
// vary is accepted by both.
func TestPeerDefinitionsRefused(t *testing.T) {
	doors := map[string]func(e *Engine, txs []*types.Transaction) error{
		"CommitBlock": func(e *Engine, txs []*types.Transaction) error {
			_, err := e.CommitBlock(txs, 3)
			return err
		},
		// A foreign block: well-formed, signed and linked to the tip, as a
		// peer would deliver it.
		"ApplyBlock": func(e *Engine, txs []*types.Transaction) error {
			return e.ApplyBlock(e.prepareBlock(txs, 3))
		},
	}
	open := func(t *testing.T) *Engine {
		e, err := Open(Config{Dir: t.TempDir(), BlockMaxTxs: 8, HistogramDepth: 4, Clock: clock.Fixed(1)})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { e.Close() })
		oddChain(t, e)
		return e
	}
	for name, payloads := range malformedIndexRecords() {
		t.Run(name, func(t *testing.T) {
			for door, deliver := range doors {
				e := open(t)
				height := e.Height()
				if err := deliver(e, indexRecords(payloads...)); err == nil {
					t.Fatalf("%s accepted %s", door, payloads)
				}
				if e.Height() != height {
					t.Errorf("%s: height %d, want %d", door, e.Height(), height)
				}
				v := e.CurrentView()
				if len(v.lidx) != 2 || len(v.alis) != 0 || len(v.defs.indexes) != 0 { // the two system indexes
					t.Errorf("%s: registered %d layered, %d ALIs, %d definitions", door, len(v.lidx), len(v.alis), len(v.defs.indexes))
				}
				if _, err := os.Stat(filepath.Join(e.cfg.Dir, indexMetaFile)); !errors.Is(err, os.ErrNotExist) {
					t.Errorf("%s: indexes.json written (stat err %v)", door, err)
				}
			}
		})
	}
	good := fmt.Sprintf(`{"family":"layered","key":"odd.a","continuous":true,"bounds":[%d,%d]}`,
		math.Float64bits(0), math.Float64bits(1))
	for door, deliver := range doors {
		e := open(t)
		if err := deliver(e, indexRecords(good, good)); err != nil {
			t.Fatalf("%s refused a well-formed record, repeated: %v", door, err)
		}
		if idx := e.CurrentView().Layered("odd", "a"); idx == nil || !reflect.DeepEqual(idx.Histogram().Bounds(), []float64{0, 1}) {
			t.Errorf("%s: the record did not build its index", door)
		}
	}
}

// allocated returns the bytes fn allocates.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzIndexRecord feeds arbitrary bytes to the one door a peer's index
// definition has, an _index record's payload resolved against the odd
// table. It must never panic and never allocate beyond a multiple of
// the input, and whatever it accepts must re-encode to the very bytes
// it was given: every node keeps a definition in one byte form.
func FuzzIndexRecord(f *testing.F) {
	for _, payloads := range malformedIndexRecords() {
		for _, p := range payloads {
			f.Add([]byte(p))
		}
	}
	f.Add([]byte(fmt.Sprintf(`{"family":"auth","key":"odd.b","continuous":true,"bounds":[%d]}`, math.Float64bits(math.Inf(-1)))))
	f.Add([]byte(`{"family":"auth","key":".senid","continuous":false}`))
	odd, err := schema.NewTable("odd", []schema.Column{
		{Name: "a", Kind: types.KindDecimal}, {Name: "b", Kind: types.KindDecimal}, {Name: "s", Kind: types.KindString}})
	if err != nil {
		f.Fatal(err)
	}
	d0 := emptyDefs()
	d0.tables = map[string]*schema.Table{"odd": odd}

	f.Fuzz(func(t *testing.T, raw []byte) {
		limit := uint64(64*len(raw) + 1<<16)
		txs := indexRecords(string(raw))
		var d chainDefs
		var err error
		if n := allocated(func() { d, err = d0.resolve(txs) }); n > limit {
			t.Fatalf("a %d-byte record made resolve allocate %d bytes", len(raw), n)
		}
		if err != nil {
			return
		}
		if len(d.indexes) != 1 {
			t.Fatalf("an accepted record defined %d indexes", len(d.indexes))
		}
		for _, x := range d.indexes {
			if enc, err := x.encode(); err != nil || !bytes.Equal(enc, raw) {
				t.Fatalf("an accepted record re-encodes as %q (err %v)", enc, err)
			}
		}
	})
}
