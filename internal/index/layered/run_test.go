package layered

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"sebdb/internal/index/bitmap"
	"sebdb/internal/types"
)

// negInf and posInf are exec's bounds of an open range: below and above
// every value in types.Compare's order.
var (
	negInf = types.Null
	posInf = types.Value{Kind: types.KindTimestamp + 100}
)

// specials are the keys a tag with bit 7 set draws: the edges a word
// column must order as types.Compare does, and the kinds that force a
// mixed run.
var specials = []types.Value{
	types.Dec(math.Copysign(0, -1)), types.Dec(math.NaN()), types.Dec(math.Inf(1)), types.Dec(math.Inf(-1)),
	types.Dec(5e-324), types.Dec(-5e-324), types.Dec(1 << 53),
	types.Int(1 << 53), types.Int(1<<53 + 1), types.Int(-1<<53 - 1), types.Int(math.MinInt64), types.Int(math.MaxInt64),
	types.Time(-3), types.Time(2), types.Time(1 << 60), types.Bool(false), types.Bool(true),
}

// fuzzKey decodes one key from two bytes. Bit 0 of col picks a numeric
// or a string column; with bit 1 set the column is mixed and bit 5 of
// each tag picks instead. Keys sit on a small grid, so duplicates are
// common, and numbers mix Int and Dec, so are cross-kind ties; a tag
// with bit 7 set draws from specials.
func fuzzKey(col, tag, v byte) types.Value {
	numeric := col&1 != 0
	if col&2 != 0 {
		numeric = tag&0x20 != 0
	}
	switch {
	case tag%8 == 0:
		return types.Null
	case tag&0x80 != 0:
		return specials[int(v)%len(specials)]
	case !numeric:
		return types.Str(strings.Repeat("ab", int(v%3)) + string(rune('a'+v%5)))
	case tag%2 == 0:
		return types.Int(int64(v%16) - 8)
	default:
		return types.Dec(float64(int(v%32)-16) / 2)
	}
}

// fuzzBound decodes a query bound: one of exec's sentinels or a key.
func fuzzBound(col, tag, v byte) types.Value {
	switch tag % 16 {
	case 14:
		return negInf
	case 15:
		return posInf
	}
	return fuzzKey(col, tag, v)
}

// decodeFuzzBlocks reads a fuzz input: a column byte (see fuzzKey), two
// bounds of two bytes each, then (tag, value) pairs, one entry each; a
// tag with bit 6 set closes the block before its entry. Positions count
// up within each block, as the engine assigns them.
func decodeFuzzBlocks(data []byte) (lo, hi types.Value, blocks [][]Entry) {
	if len(data) < 5 {
		return negInf, posInf, nil
	}
	col := data[0]
	lo, hi = fuzzBound(col, data[1], data[2]), fuzzBound(col, data[3], data[4])
	blocks = [][]Entry{nil}
	for i := 5; i+1 < len(data) && i < 5+2*512; i += 2 {
		tag := data[i]
		if tag&0x40 != 0 && len(blocks) < 16 {
			blocks = append(blocks, nil)
		}
		b := &blocks[len(blocks)-1]
		*b = append(*b, Entry{Key: fuzzKey(col, tag, data[i+1]), Pos: uint32(len(*b))})
	}
	return lo, hi, blocks
}

// ordered reports whether types.Compare is a total preorder on vals,
// which a sorted run and the brute-force sort it is held to both need.
// It is not once a NaN meets another number, since a NaN compares equal
// to every number.
func ordered(vals []types.Value) bool {
	var nans, numbers int
	for _, v := range vals {
		switch {
		case !v.Numeric():
		case v.Float() != v.Float():
			nans++
		default:
			numbers++
		}
	}
	return nans == 0 || numbers == 0
}

// inRange filters key-sorted entries to those with lo <= key <= hi.
func inRange(sorted []Entry, lo, hi types.Value) []Entry {
	var out []Entry
	for _, e := range sorted {
		if types.Compare(e.Key, lo) >= 0 && types.Compare(e.Key, hi) <= 0 {
			out = append(out, e)
		}
	}
	return out
}

func sameEntries(a, b []Entry) bool {
	return slices.EqualFunc(a, b, func(x, y Entry) bool { return x.Pos == y.Pos && identical(x.Key, y.Key) })
}

// FuzzLayeredBlock indexes fuzzed blocks — duplicates, mixed Int and
// Dec, Null, float and integer edges, Timestamps, Bools, strings beside
// numbers, so numeric, string and mixed runs all get built — and holds
// every second-level read to a brute-force stable sort of the block's
// entries: BlockEntries is that sort and round-trips through
// AppendBlock, BlockRange is its filter for bounds that include exec's
// open-range sentinels, BlockValueRange its ends. Both first levels
// must keep every block the second level matches. Inputs on which
// types.Compare is no total preorder have no sort to hold anything to
// and are passed over; a continuous index is built only on a column of
// Nulls and numbers, the only one the engine gives it.
func FuzzLayeredBlock(f *testing.F) {
	f.Add([]byte{1, 14, 0, 3, 9, 3, 1, 2, 1, 3, 1, 0x43, 5, 1, 7, 2, 1, 8, 0, 0x41, 30})
	f.Add([]byte{0, 3, 1, 15, 0, 3, 2, 3, 2, 3, 0, 0x43, 4, 8, 0, 3, 7})
	f.Add([]byte{1, 0x81, 0, 0x83, 10, 0x81, 0, 0x81, 2, 0x81, 3, 0x81, 7, 0x41, 0x81, 8, 0x81, 9, 0x81, 10, 1, 4, 0x43, 0x81, 11, 0x81, 12, 0x81, 13})
	f.Add([]byte{2, 0x21, 3, 0x83, 15, 0x21, 3, 1, 2, 0x23, 5, 0x81, 14, 0x41, 0x81, 1, 0x81, 15, 1, 4, 0x81, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		qlo, qhi, blocks := decodeFuzzBlocks(data)
		if blocks == nil {
			return
		}
		vals := []types.Value{qlo, qhi}
		numeric := true
		var sample []float64
		for _, es := range blocks {
			for _, e := range es {
				vals = append(vals, e.Key)
				numeric = numeric && (e.Key.Numeric() || e.Key.IsNull())
				if e.Key.Numeric() {
					sample = append(sample, e.Key.Float())
				}
			}
		}
		if !ordered(vals) {
			return
		}
		fresh := []func() *Index{func() *Index { return NewDiscrete("v") }}
		if numeric {
			hist := NewEqualDepth(sample, 4)
			fresh = append(fresh, func() *Index { return NewContinuous("v", hist) })
		}
		bounds := [][2]types.Value{{qlo, qhi}, {negInf, posInf}, {negInf, qhi}, {qlo, posInf}, {qlo, qlo}}
		for _, mk := range fresh {
			x := mk()
			for bid, es := range blocks {
				in := slices.Clone(es)
				x.AppendBlock(uint64(bid), es)
				if !sameEntries(in, es) {
					t.Fatalf("block %d: AppendBlock reordered its input", bid)
				}
			}
			matched := make([]*bitmap.Bitmap, len(bounds))
			for i := range matched {
				matched[i] = bitmap.New()
			}
			for bid, es := range blocks {
				want := slices.Clone(es)
				sort.SliceStable(want, func(i, j int) bool { return types.Compare(want[i].Key, want[j].Key) < 0 })
				got := x.BlockEntries(uint64(bid))
				if !sameEntries(got, want) {
					t.Fatalf("continuous=%v block %d: BlockEntries %v, want %v", x.Continuous(), bid, got, want)
				}
				y := mk()
				y.AppendBlock(uint64(bid), got)
				if again := y.BlockEntries(uint64(bid)); !sameEntries(again, want) {
					t.Fatalf("block %d: BlockEntries does not round-trip: %v, want %v", bid, again, want)
				}
				lo, hi, ok := x.BlockValueRange(uint64(bid))
				if ok != (len(want) > 0) || ok && (!identical(lo, want[0].Key) || !identical(hi, want[len(want)-1].Key)) {
					t.Fatalf("block %d: BlockValueRange = %v..%v, %v", bid, lo, hi, ok)
				}
				for i, q := range bounds {
					var ranged []Entry
					x.BlockRange(uint64(bid), q[0], q[1], func(k types.Value, pos uint32) bool {
						ranged = append(ranged, Entry{Key: k, Pos: pos})
						return true
					})
					if want := inRange(want, q[0], q[1]); !sameEntries(ranged, want) {
						t.Fatalf("block %d: BlockRange(%v, %v) = %v, want %v", bid, q[0], q[1], ranged, want)
					}
					if len(ranged) > 0 {
						matched[i].Set(bid)
					}
				}
			}
			for i, q := range bounds {
				cand := x.CandidateBlocks(q[0], q[1])
				var missed []int
				matched[i].ForEach(func(bid int) bool {
					if !cand.Get(bid) {
						missed = append(missed, bid)
					}
					return true
				})
				if len(missed) > 0 {
					t.Fatalf("continuous=%v: CandidateBlocks(%v, %v) = %v drops matching blocks %v",
						x.Continuous(), q[0], q[1], cand.Slice(), missed)
				}
			}
		}
	})
}

// TestLayeredBytesPerEntry bounds what a built index keeps per indexed
// transaction: 1,000 blocks of 200 entries from 50 Zipf-distributed
// senders, every key a fresh string as a decoded transaction carries
// it. A run keeps one copy of each distinct key per block, so the
// strings of the repeats must not stay reachable.
func TestLayeredBytesPerEntry(t *testing.T) {
	const blocks, perBlock = 1000, 200
	zipf := rand.NewZipf(rand.New(rand.NewPCG(1, 2)), 1.1, 1, 49)
	senders := make([]string, 50)
	for i := range senders {
		senders[i] = fmt.Sprintf("org-sender-%03d", i)
	}
	es := make([]Entry, perBlock)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	x := NewDiscrete("senid")
	for b := 0; b < blocks; b++ {
		for i := range es {
			es[i] = Entry{Key: types.Str(strings.Clone(senders[zipf.Uint64()])), Pos: uint32(i)}
		}
		x.AppendBlock(uint64(b), es)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(x)
	per := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / (blocks * perBlock)
	t.Logf("%.1f B of live heap per indexed entry", per)
	if per > 24 {
		t.Errorf("the index keeps %.1f B per entry, want at most 24", per)
	}
}

// TestLayeredBytesPerNumericEntry bounds the same for a decimal column
// of the shape of donate.amount: 1,000 blocks of 140 rows, each block's
// amounts distinct and drawn from a 1,000-wide band at a random place,
// on a continuous index. A numeric run keeps a word, a kind and the
// positions per key; the raw bytes only when a word cannot give them
// back.
func TestLayeredBytesPerNumericEntry(t *testing.T) {
	const blocks, perBlock = 1000, 140
	rng := rand.New(rand.NewPCG(3, 4))
	sample := make([]float64, 10_000)
	for i := range sample {
		sample[i] = float64(rng.IntN(1_000_000))
	}
	hist := NewEqualDepth(sample, 100)
	es := make([]Entry, perBlock)
	offsets := make([]int, 1000)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	x := NewContinuous("amount", hist)
	for b := 0; b < blocks; b++ {
		center := rng.IntN(1_000_000 - 1000)
		for i := range offsets {
			offsets[i] = i
		}
		rng.Shuffle(len(offsets), func(i, j int) { offsets[i], offsets[j] = offsets[j], offsets[i] })
		for i := range es {
			es[i] = Entry{Key: types.Dec(float64(center + offsets[i])), Pos: uint32(i)}
		}
		x.AppendBlock(uint64(b), es)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(x)
	per := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / (blocks * perBlock)
	t.Logf("%.1f B of live heap per indexed entry", per)
	if per > 24 {
		t.Errorf("the index keeps %.1f B per entry, want at most 24", per)
	}
}

// fuzzValue decodes one value from a tag byte and 8 payload bytes:
// Null, a string over {a, b} of length 0-4 (so empty strings and shared
// prefixes are common), an Int, Dec or Timestamp either from the
// payload's raw bits, from a small grid or from specials, a Bool, or one
// of exec's open-range sentinels.
func fuzzValue(tag byte, p uint64) types.Value {
	grid := int64(p%17) - 8
	switch tag % 8 {
	case 0:
		return types.Null
	case 1:
		b := make([]byte, p%5)
		for i := range b {
			b[i] = 'a' + byte(p>>(8+i))&1
		}
		return types.Str(string(b))
	case 2, 5:
		k := types.KindInt
		if tag%8 == 5 {
			k = types.KindTimestamp
		}
		switch tag / 8 % 3 {
		case 0:
			return types.Value{Kind: k, I: int64(p)}
		case 1:
			return types.Value{Kind: k, I: grid}
		}
		return types.Value{Kind: k, I: specials[p%uint64(len(specials))].I}
	case 3:
		switch tag / 8 % 3 {
		case 0:
			return types.Dec(math.Float64frombits(p))
		case 1:
			return types.Dec(float64(grid) / 2)
		}
		return specials[p%uint64(len(specials))]
	case 4:
		return types.Bool(p&1 != 0)
	case 6:
		return negInf
	}
	return posInf
}

// FuzzRunKeyOrder holds the numeric column's words and bound mapping to
// types.Compare. Any two keys a word column may hold compare as their
// words do; a bound a numeric run places on a word sits against every
// key of the run as Compare says; every run gives its keys back bit for
// bit, kind included, from the column its keys' kinds choose; and a
// numeric or string run answers every range its brute-force filter
// does, whichever path — words, arena or Compare — the bounds take.
// The first input byte filters the keys to a numeric, a string or any
// column; the rest are 9-byte values (fuzzValue).
func FuzzRunKeyOrder(f *testing.F) {
	// seed is a filter byte, then (tag, payload) pairs.
	seed := func(filter byte, vs ...uint64) []byte {
		out := []byte{filter}
		for i := 0; i+1 < len(vs); i += 2 {
			out = binary.LittleEndian.AppendUint64(append(out, byte(vs[i])), vs[i+1])
		}
		return out
	}
	negZero, nan := math.Float64bits(math.Copysign(0, -1)), math.Float64bits(math.NaN())
	f.Add(seed(1, 3, 0, 3, negZero, 3, 1, 3, 1<<63|1, 2, 1<<53, 2, 1<<53+1, 2, 1<<63, 5, 7, 0, 0, 4, 1, 6, 0, 7, 0))
	f.Add(seed(2, 1, 2<<8, 1, 0x0300<<8, 1, 0x0403<<8, 1, 0, 0, 0, 6, 0, 7, 0, 2, 4<<8, 4, 0))
	f.Add(seed(0, 3, nan, 1, 3<<8, 4, 0, 0, 0, 2, 9, 5, 2, 4, 1))
	f.Add(seed(1, 5, 3, 2, 4, 4, 1, 11, 2, 19, 1, 27, 4))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		filter := data[0] % 3
		var vals, keys []types.Value
		for i := 1; i+9 <= len(data) && len(vals) < 64; i += 9 {
			v := fuzzValue(data[i], binary.LittleEndian.Uint64(data[i+1:]))
			vals = append(vals, v)
			switch {
			case v == posInf:
			case filter == 1 && !wordKey(v), filter == 2 && v.Kind != types.KindString && !v.IsNull():
			default:
				keys = append(keys, v)
			}
		}
		word := func(v types.Value) uint64 {
			if v.IsNull() {
				return 0
			}
			return keyWord(v.Float())
		}
		for _, a := range vals {
			for _, b := range vals {
				if wordKey(a) && wordKey(b) && cmp.Compare(word(a), word(b)) != sign(types.Compare(a, b)) {
					t.Fatalf("words of %#v and %#v order as %d, Compare as %d", a, b, cmp.Compare(word(a), word(b)), types.Compare(a, b))
				}
			}
		}
		if len(keys) == 0 {
			return
		}
		es := make([]Entry, len(keys))
		for i, k := range keys {
			es[i] = Entry{Key: k, Pos: uint32(i)}
		}
		r := newRun(es)
		want := slices.Clone(es)
		sort.SliceStable(want, func(i, j int) bool { return types.Compare(want[i].Key, want[j].Key) < 0 })
		var got []Entry
		r.Range(negInf, posInf, func(k types.Value, ref uint64) bool {
			got = append(got, Entry{Key: k, Pos: uint32(ref)})
			return true
		})
		if !sameEntries(got, want) {
			t.Fatalf("run holds %v, want %v", got, want)
		}
		wantCol := mixedCol
		switch {
		case !slices.ContainsFunc(keys, func(k types.Value) bool { return !wordKey(k) }):
			wantCol = numericCol
		case !slices.ContainsFunc(keys, func(k types.Value) bool { return k.Kind != types.KindString && k != types.Null }):
			wantCol = stringCol
		}
		if r.col != wantCol {
			t.Fatalf("keys %v built a column %d, want %d", keys, r.col, wantCol)
		}
		if r.col == numericCol {
			for _, v := range vals {
				w, ok := boundWord(v)
				if !ok {
					continue
				}
				for i := range r.keyCount() {
					if k := r.key(i); cmp.Compare(r.words[i], w) != sign(types.Compare(k, v)) {
						t.Fatalf("bound %#v on word %#x: key %#v (word %#x) orders %d, Compare %d",
							v, w, k, r.words[i], cmp.Compare(r.words[i], w), types.Compare(k, v))
					}
				}
			}
		}
		if r.col == mixedCol || !ordered(vals) {
			return
		}
		for _, lo := range vals {
			for _, hi := range vals {
				i, j := r.span(lo, hi)
				var got []Entry
				for k := i; k < j; k++ {
					for _, p := range r.pos[r.offs[k]:r.offs[k+1]] {
						got = append(got, Entry{Key: r.key(k), Pos: p})
					}
				}
				if want := inRange(want, lo, hi); !sameEntries(got, want) {
					t.Fatalf("column %d, [%#v, %#v]: %v, want %v", r.col, lo, hi, got, want)
				}
			}
		}
	})
}

func sign(c int) int {
	switch {
	case c < 0:
		return -1
	case c > 0:
		return 1
	}
	return 0
}

// BenchmarkRunSpan times the second level's lo/hi bisection alone on a
// 140-key numeric run, the shape of a donate.amount block, and a 40-key
// string run, over a rotation of narrow bounds inside the keys.
func BenchmarkRunSpan(b *testing.B) {
	num := make([]Entry, 140)
	for i := range num {
		num[i] = Entry{Key: types.Dec(float64(500_000 + 7*i)), Pos: uint32(i)}
	}
	str := make([]Entry, 40)
	for i := range str {
		str[i] = Entry{Key: types.Str(fmt.Sprintf("org-sender-%03d", 3*i)), Pos: uint32(i)}
	}
	cases := []struct {
		name    string
		run     *Run
		lo, hi  func(i int) types.Value
		keyCol  column
		entries []Entry
	}{
		{"numeric", newRun(num),
			func(i int) types.Value { return types.Dec(float64(500_000 + (i*37)%980)) },
			func(i int) types.Value { return types.Dec(float64(500_010 + (i*37)%980)) }, numericCol, num},
		{"string", newRun(str),
			func(i int) types.Value { return types.Str(fmt.Sprintf("org-sender-%03d", (i*7)%120)) },
			func(i int) types.Value { return types.Str(fmt.Sprintf("org-sender-%03d", (i*7)%120+2)) }, stringCol, str},
	}
	for _, c := range cases {
		if c.run.col != c.keyCol {
			b.Fatalf("%s run built column %d", c.name, c.run.col)
		}
		const rot = 64
		var bounds [rot][2]types.Value
		for i := range bounds {
			bounds[i] = [2]types.Value{c.lo(i), c.hi(i)}
		}
		b.Run(c.name, func(b *testing.B) {
			n := 0
			for i := 0; b.Loop(); i++ {
				q := &bounds[i%rot]
				lo, hi := c.run.span(q[0], q[1])
				n += hi - lo
			}
			if n == 0 {
				b.Fatal("no bound matched a key")
			}
		})
	}
}

// runShapes are the blocks BenchmarkNewRun and TestSortedRunAllocatesOnlyTheRun
// build: a donate.amount block (140 distinct decimals), a senid block
// (200 strings over 50 Zipf-distributed senders) and a tname block (200
// strings over 3 table names), each in the input order a block gives
// them, every string a fresh copy as a decoded transaction carries it.
func runShapes() []struct {
	name    string
	col     column
	entries []Entry
} {
	rng := rand.New(rand.NewPCG(5, 6))
	amounts := make([]Entry, 140)
	for i := range amounts {
		amounts[i] = Entry{Key: types.Dec(float64(500_000 + rng.IntN(1000))), Pos: uint32(i)}
	}
	zipf := rand.NewZipf(rng, 1.1, 1, 49)
	senders := make([]Entry, 200)
	for i := range senders {
		senders[i] = Entry{Key: types.Str(fmt.Sprintf("org-sender-%03d", zipf.Uint64())), Pos: uint32(i)}
	}
	names := []string{"donate", "transfer", "distribute"}
	tnames := make([]Entry, 200)
	for i := range tnames {
		tnames[i] = Entry{Key: types.Str(strings.Clone(names[rng.IntN(len(names))])), Pos: uint32(i)}
	}
	return []struct {
		name    string
		col     column
		entries []Entry
	}{{"numeric140", numericCol, amounts}, {"senders200x50", stringCol, senders}, {"tnames200x3", stringCol, tnames}}
}

// BenchmarkNewRun times building one block's run, the sort included,
// from the block's input order and from key order — the order a
// checkpoint restores a block in.
func BenchmarkNewRun(b *testing.B) {
	for _, s := range runShapes() {
		sorted := newRun(s.entries)
		if sorted.col != s.col {
			b.Fatalf("%s built column %d, want %d", s.name, sorted.col, s.col)
		}
		inOrder := make([]Entry, 0, len(s.entries))
		sorted.each(0, sorted.keyCount(), func(k types.Value, ref uint64) bool {
			inOrder = append(inOrder, Entry{Key: k, Pos: uint32(ref)})
			return true
		})
		for _, in := range []struct {
			order   string
			entries []Entry
		}{{"block", s.entries}, {"sorted", inOrder}} {
			b.Run(s.name+"/"+in.order, func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					newRun(in.entries)
				}
			})
		}
	}
}

// TestSortedRunAllocatesOnlyTheRun pins that newRun on input already in
// key order — every block a checkpoint restores — allocates the run and
// its columns and nothing else: no copy of the entries, no sort scratch.
// A numeric run is the Run, offs, pos, words and kinds; a string run the
// Run, offs, pos, ends and the arena.
func TestSortedRunAllocatesOnlyTheRun(t *testing.T) {
	for _, s := range runShapes() {
		r := newRun(s.entries)
		in := make([]Entry, 0, len(s.entries))
		r.each(0, r.keyCount(), func(k types.Value, ref uint64) bool {
			in = append(in, Entry{Key: k, Pos: uint32(ref)})
			return true
		})
		if got := testing.AllocsPerRun(20, func() { newRun(in) }); got != 5 {
			t.Errorf("%s: newRun on sorted input allocates %.0f times, want 5 (the run's own memory)", s.name, got)
		}
	}
}

// TestNewRunMatchesStableSort holds each column's sort — words, string
// ranks (by a scan and, past linearNames distinct strings, by a map),
// and Compare — to a brute-force stable sort, on random blocks rich in
// duplicates, cross-kind ties, signed zeros and Nulls.
func TestNewRunMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	keys := map[string]func(distinct int) types.Value{
		"numeric": func(d int) types.Value {
			switch v := rng.IntN(d); rng.IntN(5) {
			case 0:
				return types.Null
			case 1:
				return types.Int(int64(v))
			case 2:
				return types.Dec(math.Copysign(0, -1))
			default:
				return types.Dec(float64(v))
			}
		},
		"string": func(d int) types.Value {
			if rng.IntN(8) == 0 {
				return types.Null
			}
			return types.Str(fmt.Sprintf("k%d", rng.IntN(d)))
		},
		"mixed": func(d int) types.Value {
			if rng.IntN(2) == 0 {
				return types.Str(fmt.Sprintf("k%d", rng.IntN(d)))
			}
			return types.Int(int64(rng.IntN(d)))
		},
	}
	for name, key := range keys {
		for _, distinct := range []int{1, 3, linearNames, linearNames + 1, 60} {
			for trial := 0; trial < 20; trial++ {
				es := make([]Entry, 1+rng.IntN(200))
				for i := range es {
					es[i] = Entry{Key: key(distinct), Pos: uint32(i)}
				}
				want := slices.Clone(es)
				sort.SliceStable(want, func(i, j int) bool { return types.Compare(want[i].Key, want[j].Key) < 0 })
				r := newRun(es)
				var got []Entry
				r.each(0, r.keyCount(), func(k types.Value, ref uint64) bool {
					got = append(got, Entry{Key: k, Pos: uint32(ref)})
					return true
				})
				if !sameEntries(got, want) {
					t.Fatalf("%s, %d distinct: run holds %v, want %v", name, distinct, got, want)
				}
			}
		}
	}
}
