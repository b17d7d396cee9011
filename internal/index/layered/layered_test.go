package layered

import (
	"math"
	"slices"
	"testing"

	"sebdb/internal/index/bitmap"
	"sebdb/internal/types"
)

func TestEqualDepthHistogram(t *testing.T) {
	var sample []float64
	for i := 0; i < 1000; i++ {
		sample = append(sample, float64(i))
	}
	h := NewEqualDepth(sample, 10)
	if h.Buckets() != 10 {
		t.Fatalf("Buckets = %d", h.Buckets())
	}
	// Every value maps into range, monotonically.
	prev := -1
	for _, v := range []float64{-5, 0, 100, 555, 999, 2000} {
		b := h.Bucket(v)
		if b < 0 || b >= h.Buckets() {
			t.Fatalf("Bucket(%g) = %d out of range", v, b)
		}
		if b < prev {
			t.Fatalf("Bucket not monotone at %g", v)
		}
		prev = b
	}
	// Equal depth: each bucket gets ~100 of the 1000 samples.
	counts := make([]int, h.Buckets())
	for _, v := range sample {
		counts[h.Bucket(v)]++
	}
	for i, c := range counts {
		if c < 50 || c > 200 {
			t.Errorf("bucket %d holds %d of 1000 — not equal-depth", i, c)
		}
	}
	// Bucket bounds tile the real line.
	lo0, _ := h.BucketBounds(0)
	if !math.IsInf(lo0, -1) {
		t.Error("first bucket not open below")
	}
	_, hiLast := h.BucketBounds(h.Buckets() - 1)
	if !math.IsInf(hiLast, 1) {
		t.Error("last bucket not open above")
	}
	for i := 0; i < h.Buckets()-1; i++ {
		_, hi := h.BucketBounds(i)
		lo, _ := h.BucketBounds(i + 1)
		if hi != lo {
			t.Errorf("buckets %d/%d do not tile: %g vs %g", i, i+1, hi, lo)
		}
	}
}

func TestHistogramDegenerate(t *testing.T) {
	if h := NewEqualDepth(nil, 10); h.Buckets() != 1 {
		t.Error("empty sample should give one bucket")
	}
	if h := NewEqualDepth([]float64{1, 2, 3}, 0); h.Buckets() != 1 {
		t.Error("depth 0 should clamp to one bucket")
	}
	// Heavy-hitter sample: duplicate boundaries collapse.
	same := make([]float64, 100)
	h := NewEqualDepth(same, 10)
	if h.Buckets() < 1 {
		t.Error("no buckets")
	}
	if h.Bucket(0) < 0 {
		t.Error("bucket of heavy hitter invalid")
	}
}

func TestBucketRange(t *testing.T) {
	var sample []float64
	for i := 0; i < 100; i++ {
		sample = append(sample, float64(i))
	}
	h := NewEqualDepth(sample, 5)
	first, last := h.BucketRange(0, 99)
	if first != 0 || last != h.Buckets()-1 {
		t.Errorf("covering range = [%d, %d]", first, last)
	}
	f2, l2 := h.BucketRange(50, 50)
	if f2 != l2 {
		t.Errorf("point range spans [%d, %d]", f2, l2)
	}
}

// buildContinuous indexes 10 blocks; block b holds 10 rows with amounts
// b*10 .. b*10+9 at positions 0..9.
func buildContinuous(t testing.TB) *Index {
	t.Helper()
	var sample []float64
	for i := 0; i < 100; i++ {
		sample = append(sample, float64(i))
	}
	x := NewContinuous("amount", NewEqualDepth(sample, 10))
	for b := 0; b < 10; b++ {
		var es []Entry
		for i := 0; i < 10; i++ {
			es = append(es, Entry{Key: types.Dec(float64(b*10 + i)), Pos: uint32(i)})
		}
		x.AppendBlock(uint64(b), es)
	}
	return x
}

func TestContinuousCandidateBlocks(t *testing.T) {
	x := buildContinuous(t)
	if !x.Continuous() || x.Attr() != "amount" {
		t.Error("metadata wrong")
	}
	if x.Blocks() != 10 {
		t.Errorf("Blocks = %d", x.Blocks())
	}
	// Values 25..34 live in blocks 2 and 3; the first level may
	// over-approximate (bucket granularity) but must include them.
	cand := x.CandidateBlocks(types.Dec(25), types.Dec(34))
	if !cand.Get(2) || !cand.Get(3) {
		t.Errorf("candidates %v miss true blocks", cand.Slice())
	}
	// It must prune far-away blocks.
	if cand.Get(9) {
		t.Error("first level failed to prune block 9")
	}
}

func TestSecondLevelRange(t *testing.T) {
	x := buildContinuous(t)
	var got []uint32
	x.BlockRange(2, types.Dec(25), types.Dec(27), func(_ types.Value, pos uint32) bool {
		got = append(got, pos)
		return true
	})
	if len(got) != 3 || got[0] != 5 || got[2] != 7 {
		t.Errorf("BlockRange = %v", got)
	}
	// Missing block tree.
	if x.BlockTree(99) != nil {
		t.Error("BlockTree(99) should be nil")
	}
	x.BlockRange(99, types.Dec(0), types.Dec(1), func(types.Value, uint32) bool {
		t.Error("callback on missing block")
		return false
	})
}

func TestBlockValueRange(t *testing.T) {
	x := buildContinuous(t)
	lo, hi, ok := x.BlockValueRange(3)
	if !ok || lo.Float() != 30 || hi.Float() != 39 {
		t.Errorf("BlockValueRange(3) = %v..%v, %v", lo, hi, ok)
	}
	if _, _, ok := x.BlockValueRange(99); ok {
		t.Error("missing block has value range")
	}
	// A skipped block (no entries) has no range.
	x.AppendBlock(10, nil)
	if _, _, ok := x.BlockValueRange(10); ok {
		t.Error("empty block has value range")
	}
}

func TestDiscreteIndex(t *testing.T) {
	x := NewDiscrete("senid")
	x.AppendBlock(0, []Entry{{types.Str("org1"), 0}, {types.Str("org2"), 1}})
	x.AppendBlock(1, []Entry{{types.Str("org1"), 0}})
	x.AppendBlock(2, []Entry{{types.Str("org3"), 0}})
	if x.Continuous() {
		t.Error("discrete index claims continuous")
	}
	got := x.ValueBlocks(types.Str("org1")).Slice()
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("ValueBlocks(org1) = %v", got)
	}
	if x.ValueBlocks(types.Str("ghost")).Count() != 0 {
		t.Error("unknown value has blocks")
	}
	// Point CandidateBlocks equals ValueBlocks.
	if got := x.CandidateBlocks(types.Str("org3"), types.Str("org3")).Slice(); len(got) != 1 || got[0] != 2 {
		t.Errorf("CandidateBlocks(org3) = %v", got)
	}
	// Second level finds positions.
	if refs := lookup(x.BlockTree(0), types.Str("org2")); len(refs) != 1 || refs[0] != 1 {
		t.Errorf("second level lookup = %v", refs)
	}
	// AnyBlocks covers blocks with entries only.
	x.AppendBlock(3, nil)
	if got := x.AnyBlocks().Slice(); len(got) != 3 {
		t.Errorf("AnyBlocks = %v", got)
	}
}

// lookup returns the positions run r holds for key.
func lookup(r *Run, key types.Value) []uint64 {
	var out []uint64
	r.Range(key, key, func(_ types.Value, ref uint64) bool {
		out = append(out, ref)
		return true
	})
	return out
}

// TestDiscreteKeyCollisions pins which values share a first-level key:
// exactly those a point probe must find for one another.
func TestDiscreteKeyCollisions(t *testing.T) {
	nan := math.NaN()
	for _, c := range []struct {
		a, b types.Value
		same bool
	}{
		{types.Int(3), types.Dec(3), true},
		{types.Int(3), types.Time(3), true},
		{types.Dec(3), types.Time(3), true},
		{types.Int(3), types.Str("3"), false},
		{types.Dec(3), types.Str("3"), false},
		{types.Dec(nan), types.Dec(-nan), true},
		{types.Dec(nan), types.Dec(math.Float64frombits(math.Float64bits(nan) ^ 1)), true},
		{types.Dec(math.Copysign(0, -1)), types.Dec(0), true},
		{types.Dec(math.Copysign(0, -1)), types.Int(0), true},
		{types.Dec(nan), types.Dec(0), false},
		{types.Dec(3), types.Dec(3.5), false},
		{types.Str("a"), types.Str("a"), true},
		{types.Str("a"), types.Str("b"), false},
		{types.Null, types.Str(""), false},
		{types.Bool(false), types.Int(0), false},
	} {
		if got := Key(c.a) == Key(c.b); got != c.same {
			t.Errorf("Key(%#v) == Key(%#v) is %v, want %v", c.a, c.b, got, c.same)
		}
	}
	// A point probe for 0 finds the block indexed under -0, and one NaN
	// finds another.
	x := NewDiscrete("v")
	x.AppendBlock(0, []Entry{{types.Dec(math.Copysign(0, -1)), 0}})
	x.AppendBlock(1, []Entry{{types.Dec(nan), 0}})
	if got := x.ValueBlocks(types.Int(0)).Slice(); !slices.Equal(got, []int{0}) {
		t.Errorf("ValueBlocks(0) = %v, want [0]", got)
	}
	if got := x.ValueBlocks(types.Dec(-nan)).Slice(); !slices.Equal(got, []int{1}) {
		t.Errorf("ValueBlocks(NaN) = %v, want [1]", got)
	}
}

func TestDiscreteKeyNumericUnification(t *testing.T) {
	x := NewDiscrete("code")
	x.AppendBlock(0, []Entry{{types.Int(3), 0}})
	// Dec(3) must find the block indexed under Int(3).
	if x.ValueBlocks(types.Dec(3)).Count() == 0 {
		t.Error("numeric keys not unified across kinds")
	}
	// But string "3" is a different key space.
	if x.ValueBlocks(types.Str("3")).Count() != 0 {
		t.Error("string key collided with numeric")
	}
}

func TestIntersectsContinuous(t *testing.T) {
	r := buildContinuous(t) // block b covers [10b, 10b+9]
	s := buildContinuous(t)
	if !r.Intersects(s, 3, 3) {
		t.Error("same-range blocks must intersect")
	}
	if r.Intersects(s, 0, 9) {
		t.Error("disjoint blocks (0-9 vs 90-99) must not intersect")
	}
	if r.Intersects(s, 99, 0) {
		t.Error("missing block intersects")
	}
	if r.Intersects(s, 0, 99) {
		t.Error("intersect with missing right block")
	}
}

func TestIntersectsDiscrete(t *testing.T) {
	r := NewDiscrete("org")
	s := NewDiscrete("org")
	r.AppendBlock(0, []Entry{{types.Str("a"), 0}})
	r.AppendBlock(1, []Entry{{types.Str("b"), 0}})
	s.AppendBlock(0, []Entry{{types.Str("b"), 0}})
	s.AppendBlock(1, []Entry{{types.Str("c"), 0}})
	if !r.Intersects(s, 1, 0) {
		t.Error("blocks sharing value b must intersect")
	}
	if r.Intersects(s, 0, 0) {
		t.Error("a-only and b-only blocks must not intersect")
	}
}

func TestAppendBlockGapsAndGrowth(t *testing.T) {
	x := NewDiscrete("t")
	x.AppendBlock(5, []Entry{{types.Str("v"), 0}}) // skipping 0..4
	if x.Blocks() != 6 {
		t.Errorf("Blocks = %d", x.Blocks())
	}
	for b := uint64(0); b < 5; b++ {
		if x.BlockTree(b) != nil {
			t.Errorf("gap block %d has tree", b)
		}
	}
	if x.BlockTree(5) == nil {
		t.Error("appended block missing tree")
	}
}

func TestJoinPairsDiscrete(t *testing.T) {
	r := NewDiscrete("org")
	s := NewDiscrete("org")
	// r: block0={a}, block1={b,c}; s: block0={c}, block1={a}, block2={z}.
	r.AppendBlock(0, []Entry{{types.Str("a"), 0}})
	r.AppendBlock(1, []Entry{{types.Str("b"), 0}, {types.Str("c"), 1}})
	s.AppendBlock(0, []Entry{{types.Str("c"), 0}})
	s.AppendBlock(1, []Entry{{types.Str("a"), 0}})
	s.AppendBlock(2, []Entry{{types.Str("z"), 0}})
	mr := r.AnyBlocks()
	ms := s.AnyBlocks()
	pairs := r.JoinPairs(s, mr, ms)
	want := map[[2]uint64]bool{{0, 1}: true, {1, 0}: true}
	if len(pairs) != len(want) {
		t.Fatalf("pairs = %v", pairs)
	}
	for _, p := range pairs {
		if !want[p] {
			t.Errorf("unexpected pair %v", p)
		}
	}
	// Restricting mr prunes pairs.
	onlyB1 := bitmapOf(1)
	pairs = r.JoinPairs(s, onlyB1, ms)
	if len(pairs) != 1 || pairs[0] != [2]uint64{1, 0} {
		t.Errorf("restricted pairs = %v", pairs)
	}
	// Disjoint value sets → no pairs.
	empty := NewDiscrete("org")
	empty.AppendBlock(0, []Entry{{types.Str("nope"), 0}})
	if got := r.JoinPairs(empty, mr, empty.AnyBlocks()); len(got) != 0 {
		t.Errorf("disjoint pairs = %v", got)
	}
}

func bitmapOf(ids ...int) *bitmap.Bitmap {
	b := bitmap.New()
	for _, i := range ids {
		b.Set(i)
	}
	return b
}

func TestJoinPairsContinuous(t *testing.T) {
	r := buildContinuous(t) // block b covers [10b, 10b+9]
	s := buildContinuous(t)
	pairs := r.JoinPairs(s, r.AnyBlocks(), s.AnyBlocks())
	// Bucket bounds over-approximate; at minimum each diagonal pair is
	// present and far-apart pairs are pruned.
	onDiag := 0
	for _, p := range pairs {
		if p[0] == p[1] {
			onDiag++
		}
		d := int64(p[0]) - int64(p[1])
		if d < -3 || d > 3 {
			t.Errorf("far-apart pair survived: %v", p)
		}
	}
	if onDiag != 10 {
		t.Errorf("diagonal pairs = %d of 10", onDiag)
	}
	// Mixed continuous/discrete falls back to bounds comparison.
	d := NewDiscrete("x")
	d.AppendBlock(0, []Entry{{types.Dec(15), 0}})
	mixed := r.JoinPairs(d, r.AnyBlocks(), d.AnyBlocks())
	found := false
	for _, p := range mixed {
		if p[0] == 1 && p[1] == 0 { // r block 1 covers [10,19]
			found = true
		}
	}
	if !found {
		t.Errorf("mixed pairs = %v, missing (1,0)", mixed)
	}
}

func TestCandidateBlocksDiscreteRange(t *testing.T) {
	x := NewDiscrete("senid")
	x.AppendBlock(0, []Entry{{types.Str("a"), 0}})
	x.AppendBlock(1, []Entry{{types.Str("b"), 0}})
	// A non-point range over a discrete attribute unions all values (the
	// second level filters exactly).
	got := x.CandidateBlocks(types.Str("a"), types.Str("z")).Slice()
	if len(got) != 2 {
		t.Errorf("discrete range candidates = %v", got)
	}
	// Only values inside the bounds contribute their blocks.
	for _, c := range []struct {
		lo, hi types.Value
		want   []int
	}{
		{types.Str("b"), types.Str("z"), []int{1}},
		{types.Str("0"), types.Str("a"), []int{0}},
		{types.Str("c"), types.Str("z"), nil},
		{types.Null, types.Value{Kind: types.KindTimestamp + 100}, []int{0, 1}},
	} {
		if got := x.CandidateBlocks(c.lo, c.hi).Slice(); !slices.Equal(got, c.want) {
			t.Errorf("CandidateBlocks(%v, %v) = %v, want %v", c.lo, c.hi, got, c.want)
		}
	}
	// Numeric values fold kinds; a numeric bound prunes them by value. A
	// bound of another kind orders every numeric kind alike — above
	// strings, below Bools — so it prunes all of them or none.
	n := NewDiscrete("code")
	n.AppendBlock(0, []Entry{{types.Int(1), 0}})
	n.AppendBlock(1, []Entry{{types.Time(5), 0}})
	n.AppendBlock(2, []Entry{{types.Dec(9), 0}})
	for _, c := range []struct {
		lo, hi types.Value
		want   []int
	}{
		{types.Dec(2), types.Int(9), []int{1, 2}},
		{types.Int(0), types.Dec(4.5), []int{0}},
		{types.Bool(true), types.Value{Kind: types.KindTimestamp + 100}, nil},
		{types.Str("z"), types.Bool(false), []int{0, 1, 2}},
	} {
		if got := n.CandidateBlocks(c.lo, c.hi).Slice(); !slices.Equal(got, c.want) {
			t.Errorf("CandidateBlocks(%v, %v) = %v, want %v", c.lo, c.hi, got, c.want)
		}
	}
}

// TestContinuousCandidateBlocksOpenBounds: a bound outside the numeric
// kinds — exec's Null and past-the-end sentinels of an open range —
// leaves that end of the histogram open instead of emptying the filter,
// and a block holding Null keys is a candidate of every range starting
// at Null.
func TestContinuousCandidateBlocksOpenBounds(t *testing.T) {
	x := buildContinuous(t) // block b covers [10b, 10b+9]
	x.AppendBlock(10, []Entry{{types.Null, 0}})
	posInf := types.Value{Kind: types.KindTimestamp + 100}
	for _, c := range []struct {
		lo, hi  types.Value
		must    []int
		mustNot []int
	}{
		{types.Null, types.Dec(14), []int{0, 1, 10}, []int{9}},
		{types.Dec(85), posInf, []int{8, 9}, []int{0}},
		{types.Null, posInf, []int{0, 5, 9, 10}, nil},
	} {
		got := x.CandidateBlocks(c.lo, c.hi)
		for _, b := range c.must {
			if !got.Get(b) {
				t.Errorf("CandidateBlocks(%v, %v) = %v, misses block %d", c.lo, c.hi, got.Slice(), b)
			}
		}
		for _, b := range c.mustNot {
			if got.Get(b) {
				t.Errorf("CandidateBlocks(%v, %v) = %v, keeps block %d", c.lo, c.hi, got.Slice(), b)
			}
		}
	}
}

func TestValueBlocksOnContinuousIndex(t *testing.T) {
	x := buildContinuous(t)
	// ValueBlocks falls back to CandidateBlocks for continuous indexes.
	got := x.ValueBlocks(types.Dec(35))
	if !got.Get(3) {
		t.Errorf("ValueBlocks(35) = %v, missing block 3", got.Slice())
	}
}

func TestBlockBucketBoundsFallback(t *testing.T) {
	// Discrete index: bounds come from the second level's min/max.
	x := NewDiscrete("v")
	x.AppendBlock(0, []Entry{{types.Dec(5), 0}, {types.Dec(9), 1}})
	lo, hi, ok := x.BlockBucketBounds(0)
	if !ok || lo != 5 || hi != 9 {
		t.Errorf("bounds = %g..%g, %v", lo, hi, ok)
	}
	if _, _, ok := x.BlockBucketBounds(99); ok {
		t.Error("missing block has bounds")
	}
}

// TestMarkBlockMatchesAppendBlockFirstLevel: an index fed through
// MarkBlock filters candidate blocks exactly as one fed the same keys
// through AppendBlock, for both first-level kinds, and keeps no
// second-level tree.
func TestMarkBlockMatchesAppendBlockFirstLevel(t *testing.T) {
	var sample []float64
	for i := 0; i < 400; i++ {
		sample = append(sample, float64(i))
	}
	hist := NewEqualDepth(sample, 8)
	for _, mk := range []func() *Index{
		func() *Index { return NewContinuous("amount", hist) },
		func() *Index { return NewDiscrete("amount") },
	} {
		full, first := mk(), mk()
		for bid := uint64(0); bid < 6; bid++ {
			var entries []Entry
			if bid != 3 { // block 3 holds no indexed row
				for i := 0; i < 20; i++ {
					// Sorted with repeats, as an MB-tree hands its keys over.
					entries = append(entries, Entry{Key: types.Dec(float64(int(bid)*50 + i/2)), Pos: uint32(i)})
				}
			}
			full.AppendBlock(bid, entries)
			first.MarkBlock(bid, len(entries), func(i int) types.Value { return entries[i].Key })
		}
		if first.Blocks() != full.Blocks() {
			t.Errorf("Blocks = %d, want %d", first.Blocks(), full.Blocks())
		}
		for _, q := range [][2]float64{{0, 9}, {55, 55}, {100, 260}, {151, 199}, {-10, 1000}, {500, 600}} {
			lo, hi := types.Dec(q[0]), types.Dec(q[1])
			if got, want := first.CandidateBlocks(lo, hi).Slice(), full.CandidateBlocks(lo, hi).Slice(); !slices.Equal(got, want) {
				t.Errorf("continuous=%v [%g, %g]: candidates %v, want %v", first.Continuous(), q[0], q[1], got, want)
			}
		}
		if first.BlockTree(0) != nil {
			t.Error("MarkBlock built a second-level tree")
		}
	}
}
