package layered

import (
	"sync"
	"unsafe"

	"sebdb/internal/index/bitmap"
	"sebdb/internal/types"
)

// Entry is one indexed transaction: its attribute value and its position
// within the block being appended.
type Entry struct {
	Key types.Value
	Pos uint32
}

// Index is a layered index on one attribute. Exactly one of hist
// (continuous) or values (discrete) drives the first level.
type Index struct {
	// attr and hist are fixed at construction.
	attr string
	hist *Histogram

	mu sync.RWMutex
	// Continuous first level: per block, a bitmap over histogram buckets.
	blockBuckets []*bitmap.Bitmap // indexed by block id; nil if absent
	// Discrete first level: per distinct value (by Key), a bitmap over
	// blocks.
	values map[types.Value]*bitmap.Bitmap
	// Second level: one run per block, built at append time.
	runs []*Run // indexed by block id; nil if block has no rows
}

// NewContinuous creates a layered index over a continuous attribute
// using the given histogram for first-level bucketing.
func NewContinuous(attr string, hist *Histogram) *Index {
	return &Index{attr: attr, hist: hist}
}

// NewDiscrete creates a layered index over a discrete attribute (e.g.
// the system columns SenID or Tname).
func NewDiscrete(attr string) *Index {
	return &Index{attr: attr, values: make(map[types.Value]*bitmap.Bitmap)}
}

// Attr returns the indexed attribute name.
func (x *Index) Attr() string { return x.attr }

// Continuous reports whether the index uses histogram bucketing.
func (x *Index) Continuous() bool { return x.hist != nil }

// Histogram returns the first-level histogram, or nil for a discrete
// index. The histogram is immutable after construction.
func (x *Index) Histogram() *Histogram { return x.hist }

// nanKey is the Key of every NaN: a NaN float is unequal to itself, so
// no map lookup would find it again.
var nanKey = types.Value{Kind: types.KindDecimal, S: "NaN"}

// Key normalises a value into a comparable map key — the discrete first
// level's, and the hash joins'. Numeric kinds fold into one float, so
// Int(3), Dec(3) and Timestamp(3) collide as types.Compare requires; -0
// folds into +0 and every NaN into nanKey.
func Key(v types.Value) types.Value {
	f := v.Float()
	switch {
	case !v.Numeric():
		return v
	case f != f:
		return nanKey
	case f == 0:
		f = 0 // -0
	}
	return types.Dec(f)
}

// mayHold reports whether the values folded into Key k can lie in
// [lo, hi]. A numeric key stands for an Int, a Dec and a Timestamp
// alike, which types.Compare orders alike against every bound; nanKey
// stands for every NaN, which compares equal to every number.
func mayHold(k, lo, hi types.Value) bool {
	return k == nanKey || types.Compare(k, lo) >= 0 && types.Compare(k, hi) <= 0
}

// bucket places v on the histogram, or in bucket dflt when v — Null, a
// string, one of exec's range sentinels — is not numeric.
func (x *Index) bucket(v types.Value, dflt int) int {
	if !v.Numeric() {
		return dflt
	}
	return x.hist.Bucket(v.Float())
}

func (x *Index) grow(bid uint64) {
	for uint64(len(x.runs)) <= bid {
		x.runs = append(x.runs, nil)
		if x.hist != nil {
			x.blockBuckets = append(x.blockBuckets, nil)
		}
	}
}

// AppendBlock indexes the relevant entries of a newly chained block:
// BuildRun, then AppendRun.
func (x *Index) AppendBlock(bid uint64, entries []Entry) {
	x.AppendRun(bid, BuildRun(entries))
}

// BuildRun builds the second level of a block with the given entries —
// nil for none — off any index: the half of an append that does the
// work (sort, key column), safe to run for many blocks at once and
// ahead of their turn.
func BuildRun(entries []Entry) *Run {
	if len(entries) == 0 {
		return nil
	}
	return newRun(entries)
}

// AppendRun installs block bid's run, built by BuildRun: the pointer,
// then the first level once per distinct key, with no rebalancing of
// earlier blocks (§IV-B benefit (i)). Blocks must be appended in height
// order; a block with no relevant rows may be skipped or passed a nil
// run.
func (x *Index) AppendRun(bid uint64, r *Run) {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.grow(bid)
	if r != nil {
		x.runs[bid] = r
		for i := range r.keyCount() {
			x.mark(bid, r.key(i))
		}
	}
}

// MarkBlock updates the first level alone with the n keys of block bid,
// for an index whose second level lives elsewhere: an ALI block
// appended with its payloads keeps an MB-tree where this index would
// keep a run. Runs of identical keys are marked once, so sorted input
// is cheapest.
func (x *Index) MarkBlock(bid uint64, n int, key func(i int) types.Value) {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.grow(bid)
	var prev types.Value
	for i := 0; i < n; i++ {
		if k := key(i); i == 0 || k != prev {
			x.mark(bid, k)
			prev = k
		}
	}
}

// mark records in the first level that block bid holds key k. A
// non-numeric key goes to the lowest bucket, as Null sorts below every
// number.
func (x *Index) mark(bid uint64, k types.Value) {
	if x.hist != nil {
		if x.blockBuckets[bid] == nil {
			x.blockBuckets[bid] = bitmap.New()
		}
		x.blockBuckets[bid].Set(x.bucket(k, 0))
		return
	}
	dk := Key(k)
	b, ok := x.values[dk]
	if !ok {
		b = bitmap.New()
		x.values[dk] = b
	}
	b.Set(int(bid))
}

// BlockEntries returns the second-level entries of block bid in key
// order, or nil when the block holds no indexed rows. Feeding them
// back to AppendBlock on a fresh index reproduces the block's state
// exactly — the checkpoint subsystem serialises layered indexes this
// way.
func (x *Index) BlockEntries(bid uint64) []Entry {
	r := x.BlockTree(bid)
	if r == nil {
		return nil
	}
	out := make([]Entry, 0, len(r.pos))
	r.each(0, r.keyCount(), func(k types.Value, ref uint64) bool {
		out = append(out, Entry{Key: k, Pos: uint32(ref)})
		return true
	})
	return out
}

// Blocks returns the number of block slots the index covers.
func (x *Index) Blocks() int {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return len(x.runs)
}

// CandidateBlocks returns the first-level filter: a bitmap of blocks
// that may contain values in [lo, hi], never missing one the second
// level would match. A discrete index looks a point up and, for a
// range, unions the values mayHold admits.
func (x *Index) CandidateBlocks(lo, hi types.Value) *bitmap.Bitmap {
	x.mu.RLock()
	defer x.mu.RUnlock()
	out := bitmap.New()
	if x.hist != nil {
		want := bitmap.New()
		want.SetRange(x.bucket(lo, 0), x.bucket(hi, x.hist.Buckets()-1))
		for bid, bb := range x.blockBuckets {
			if bb != nil && bb.Intersects(want) {
				out.Set(bid)
			}
		}
		return out
	}
	if types.Equal(lo, hi) {
		if b, ok := x.values[Key(lo)]; ok {
			out.Or(b)
		}
		return out
	}
	for k, b := range x.values {
		if mayHold(k, lo, hi) {
			out.Or(b)
		}
	}
	return out
}

// ValueBlocks returns the first-level bitmap for one value — Algorithm
// 1's First_level_bitmap(I(o)).
func (x *Index) ValueBlocks(v types.Value) *bitmap.Bitmap {
	return x.CandidateBlocks(v, v)
}

// AnyBlocks returns a bitmap of every block with at least one indexed
// row — Algorithm 2's First_level_bitmap(I_r) with no predicate.
func (x *Index) AnyBlocks() *bitmap.Bitmap {
	x.mu.RLock()
	defer x.mu.RUnlock()
	out := bitmap.New()
	for bid, r := range x.runs {
		if r != nil {
			out.Set(bid)
		}
	}
	return out
}

// BlockTree returns block bid's second level, the run that replaced the
// B+-tree of the name, or nil when the block holds no indexed rows.
func (x *Index) BlockTree(bid uint64) *Run {
	x.mu.RLock()
	defer x.mu.RUnlock()
	if bid >= uint64(len(x.runs)) {
		return nil
	}
	return x.runs[bid]
}

// BlockRange runs fn over the second-level entries of block bid with
// lo <= key <= hi, in key order.
func (x *Index) BlockRange(bid uint64, lo, hi types.Value, fn func(key types.Value, pos uint32) bool) {
	if r := x.BlockTree(bid); r != nil {
		r.Range(lo, hi, func(k types.Value, ref uint64) bool {
			return fn(k, uint32(ref))
		})
	}
}

// WalkPositions walks the blocks of cand in ascending order and calls
// fn with the positions of each one's entries with lo <= key <= hi, in
// key order, skipping blocks with none; fn returning false stops the
// walk. The slices are the runs' own memory, never rewritten once
// built, and must not be modified.
//
// The walk takes the read lock once, to copy the runs slice, and reads
// it unlocked, with fn free to do anything. That is safe because
// AppendRun installs blocks in height order: after the copy it writes
// only slots at or past the length copied, and the runs below it never
// change. The candidates a query passes are below its pinned view's
// height, whose runs were installed before the view was published.
func (x *Index) WalkPositions(cand *bitmap.Bitmap, lo, hi types.Value, fn func(bid uint64, pos []uint32) bool) {
	x.mu.RLock()
	runs := x.runs
	x.mu.RUnlock()
	cand.ForEach(func(b int) bool {
		if b >= len(runs) || runs[b] == nil {
			return true
		}
		if ps := runs[b].positions(lo, hi); len(ps) > 0 {
			return fn(uint64(b), ps)
		}
		return true
	})
}

// BlockValueRange returns the min and max indexed values present in
// block bid; ok is false when the block holds no indexed rows. Used by
// the join operators' intersect() test (Algorithms 2 and 3).
func (x *Index) BlockValueRange(bid uint64) (lo, hi types.Value, ok bool) {
	r := x.BlockTree(bid)
	if r == nil {
		return types.Null, types.Null, false
	}
	return r.key(0), r.key(r.keyCount() - 1), true
}

// BlockBucketBounds returns the value bounds implied by block bid's
// first-level bucket bitmap — the (l, u) pairs of Algorithm 2's
// intersect test. For discrete indexes it falls back to the second
// level's min/max.
func (x *Index) BlockBucketBounds(bid uint64) (lo, hi float64, ok bool) {
	x.mu.RLock()
	if x.hist != nil && bid < uint64(len(x.blockBuckets)) && x.blockBuckets[bid] != nil {
		first, _ := x.blockBuckets[bid].Min()
		last, ok := x.blockBuckets[bid].Max()
		x.mu.RUnlock()
		lo, _ = x.hist.BucketBounds(first)
		_, hi = x.hist.BucketBounds(last)
		return lo, hi, ok
	}
	x.mu.RUnlock()
	l, h, ok := x.BlockValueRange(bid)
	return l.Float(), h.Float(), ok
}

// JoinPairs returns the candidate block pairs of Algorithm 2: pairs
// (b_r ∈ mr, b_s ∈ ms) for which intersect(b_r, b_s) holds, ordered by
// b_r, then b_s. For two discrete indexes it walks the shared
// first-level values — O(values) instead of the O(|mr|·|ms|) pairwise
// loop — and otherwise it takes each block's bucket bounds once before
// the pairwise interval test.
//
//sebdb:ignore-lock the mutexes are acquired through the address-ordered first/second aliases, which the checker cannot trace
func (x *Index) JoinPairs(other *Index, mr, ms *bitmap.Bitmap) [][2]uint64 {
	var out [][2]uint64
	if x.hist == nil && other.hist == nil {
		// Lock in a global order (by address) so concurrent opposite-
		// direction joins cannot form a circular wait with a pending
		// writer.
		first, second := x, other
		if uintptr(unsafe.Pointer(other)) < uintptr(unsafe.Pointer(x)) {
			first, second = other, x
		}
		first.mu.RLock()
		if second != first {
			second.mu.RLock()
		}
		partners := make(map[int]*bitmap.Bitmap) // block of mr -> blocks of ms sharing a value
		for k, br := range x.values {
			if bs, ok := other.values[k]; ok {
				sblocks := bs.Clone().And(ms)
				br.Clone().And(mr).ForEach(func(r int) bool {
					if partners[r] == nil {
						partners[r] = bitmap.New()
					}
					partners[r].Or(sblocks)
					return true
				})
			}
		}
		if second != first {
			second.mu.RUnlock()
		}
		first.mu.RUnlock()
		mr.ForEach(func(r int) bool {
			if p := partners[r]; p != nil {
				p.ForEach(func(s int) bool {
					out = append(out, [2]uint64{uint64(r), uint64(s)})
					return true
				})
			}
			return true
		})
		return out
	}
	rb, sb := x.boundsOf(mr), other.boundsOf(ms)
	for _, r := range rb {
		for _, s := range sb {
			if !(r.hi < s.lo || r.lo > s.hi) {
				out = append(out, [2]uint64{r.bid, s.bid})
			}
		}
	}
	return out
}

// blockBounds is one block's BlockBucketBounds.
type blockBounds struct {
	bid    uint64
	lo, hi float64
}

// boundsOf returns the bounds of the blocks of m that have any, in
// block order.
func (x *Index) boundsOf(m *bitmap.Bitmap) []blockBounds {
	var out []blockBounds
	m.ForEach(func(b int) bool {
		if lo, hi, ok := x.BlockBucketBounds(uint64(b)); ok {
			out = append(out, blockBounds{uint64(b), lo, hi})
		}
		return true
	})
	return out
}

// Intersects implements Algorithm 2's intersect(b_r, b_s): whether block
// bidR of this index and block bidS of other may produce equi-join
// matches — JoinPairs over the one pair.
func (x *Index) Intersects(other *Index, bidR, bidS uint64) bool {
	return len(x.JoinPairs(other, bitmap.FromSlice([]int{int(bidR)}), bitmap.FromSlice([]int{int(bidS)}))) > 0
}
