package layered

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"unsafe"

	"sebdb/internal/index/bitmap"
	"sebdb/internal/index/bptree"
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
	// attr, hist and order are fixed at construction.
	attr  string
	hist  *Histogram
	order int

	mu sync.RWMutex
	// Continuous first level: per block, a bitmap over histogram buckets.
	blockBuckets []*bitmap.Bitmap // indexed by block id; nil if absent
	// Discrete first level: per distinct value, a bitmap over blocks.
	values map[string]*bitmap.Bitmap
	// Second level: one B+-tree per block, bulk-loaded at append time.
	trees []*bptree.Tree // indexed by block id; nil if block has no rows
}

// NewContinuous creates a layered index over a continuous attribute
// using the given histogram for first-level bucketing.
func NewContinuous(attr string, hist *Histogram) *Index {
	return &Index{attr: attr, hist: hist}
}

// NewDiscrete creates a layered index over a discrete attribute (e.g.
// the system columns SenID or Tname).
func NewDiscrete(attr string) *Index {
	return &Index{attr: attr, values: make(map[string]*bitmap.Bitmap)}
}

// Attr returns the indexed attribute name.
func (x *Index) Attr() string { return x.attr }

// Continuous reports whether the index uses histogram bucketing.
func (x *Index) Continuous() bool { return x.hist != nil }

// Histogram returns the first-level histogram, or nil for a discrete
// index. The histogram is immutable after construction.
func (x *Index) Histogram() *Histogram { return x.hist }

// discreteKey normalises a value for use as a first-level map key.
// Numeric kinds share a key space so Int(3) and Dec(3) collide as the
// comparison semantics require.
func discreteKey(v types.Value) string {
	if v.Numeric() {
		return fmt.Sprintf("n:%g", v.Float())
	}
	return fmt.Sprintf("%d:%s", v.Kind, v.String())
}

func (x *Index) grow(bid uint64) {
	for uint64(len(x.trees)) <= bid {
		x.trees = append(x.trees, nil)
		if x.hist != nil {
			x.blockBuckets = append(x.blockBuckets, nil)
		}
	}
}

// AppendBlock indexes the relevant entries of a newly chained block:
// the second-level B+-tree is bulk-loaded and the first level updated,
// with no rebalancing of earlier blocks (§IV-B benefit (i)). Blocks
// must be appended in height order; a block with no relevant rows may
// be skipped or passed with empty entries.
func (x *Index) AppendBlock(bid uint64, entries []Entry) {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.grow(bid)
	if len(entries) == 0 {
		return
	}
	es := make([]bptree.Entry, len(entries))
	for i, e := range entries {
		es[i] = bptree.Entry{Key: e.Key, Ref: uint64(e.Pos)}
		x.mark(bid, e.Key)
	}
	x.trees[bid] = bptree.Bulk(es, x.order)
}

// MarkBlock updates the first level alone with the n keys of block bid,
// for an index whose second level lives elsewhere: the ALI keeps one
// MB-tree per block where this index would keep a B+-tree. Runs of
// identical keys are marked once, so sorted input is cheapest.
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

// mark records in the first level that block bid holds key k.
func (x *Index) mark(bid uint64, k types.Value) {
	if x.hist != nil {
		if x.blockBuckets[bid] == nil {
			x.blockBuckets[bid] = bitmap.New()
		}
		x.blockBuckets[bid].Set(x.hist.Bucket(k.Float()))
		return
	}
	dk := discreteKey(k)
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
	t := x.BlockTree(bid)
	if t == nil {
		return nil
	}
	out := make([]Entry, 0, t.Len())
	t.Scan(func(k types.Value, ref uint64) bool {
		out = append(out, Entry{Key: k, Pos: uint32(ref)})
		return true
	})
	return out
}

// Blocks returns the number of block slots the index covers.
func (x *Index) Blocks() int {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return len(x.trees)
}

// CandidateBlocks returns the first-level filter: a bitmap of blocks
// that may contain values in [lo, hi]. For a discrete index lo and hi
// are typically equal (point lookup).
func (x *Index) CandidateBlocks(lo, hi types.Value) *bitmap.Bitmap {
	x.mu.RLock()
	defer x.mu.RUnlock()
	if x.hist != nil {
		first, last := x.hist.BucketRange(lo.Float(), hi.Float())
		want := bitmap.New()
		want.SetRange(first, last)
		out := bitmap.New()
		for bid, bb := range x.blockBuckets {
			if bb != nil && bb.Intersects(want) {
				out.Set(bid)
			}
		}
		return out
	}
	if types.Equal(lo, hi) {
		if b, ok := x.values[discreteKey(lo)]; ok {
			return b.Clone()
		}
		return bitmap.New()
	}
	// Range over a discrete attribute: union the bitmaps of matching
	// values. We must consult the second level keys, so fall back to the
	// union of all values within range by scanning value keys' trees is
	// not possible from the map alone; instead union every value bitmap
	// whose blocks may match and let the second level filter exactly.
	out := bitmap.New()
	for _, b := range x.values {
		out.Or(b)
	}
	return out
}

// ValueBlocks returns the first-level bitmap for one discrete value —
// Algorithm 1's First_level_bitmap(I(o)).
func (x *Index) ValueBlocks(v types.Value) *bitmap.Bitmap {
	x.mu.RLock()
	defer x.mu.RUnlock()
	if x.values == nil {
		return x.CandidateBlocks(v, v)
	}
	if b, ok := x.values[discreteKey(v)]; ok {
		return b.Clone()
	}
	return bitmap.New()
}

// AnyBlocks returns a bitmap of every block with at least one indexed
// row — Algorithm 2's First_level_bitmap(I_r) with no predicate.
func (x *Index) AnyBlocks() *bitmap.Bitmap {
	x.mu.RLock()
	defer x.mu.RUnlock()
	out := bitmap.New()
	for bid, t := range x.trees {
		if t != nil && t.Len() > 0 {
			out.Set(bid)
		}
	}
	return out
}

// BlockTree returns the second-level B+-tree of block bid, or nil when
// the block holds no indexed rows.
func (x *Index) BlockTree(bid uint64) *bptree.Tree {
	x.mu.RLock()
	defer x.mu.RUnlock()
	if bid >= uint64(len(x.trees)) {
		return nil
	}
	return x.trees[bid]
}

// BlockRange runs fn over the second-level entries of block bid with
// lo <= key <= hi, in key order.
func (x *Index) BlockRange(bid uint64, lo, hi types.Value, fn func(key types.Value, pos uint32) bool) {
	t := x.BlockTree(bid)
	if t == nil {
		return
	}
	t.Range(lo, hi, func(k types.Value, ref uint64) bool {
		return fn(k, uint32(ref))
	})
}

// BlockValueRange returns the min and max indexed values present in
// block bid; ok is false when the block holds no indexed rows. Used by
// the join operators' intersect() test (Algorithms 2 and 3).
func (x *Index) BlockValueRange(bid uint64) (lo, hi types.Value, ok bool) {
	t := x.BlockTree(bid)
	if t == nil || t.Len() == 0 {
		return types.Null, types.Null, false
	}
	lo, _ = t.Min()
	hi, _ = t.Max()
	return lo, hi, true
}

// BlockBucketBounds returns the value bounds implied by block bid's
// first-level bucket bitmap — the (l, u) pairs of Algorithm 2's
// intersect test. For discrete indexes it falls back to the second
// level's min/max.
func (x *Index) BlockBucketBounds(bid uint64) (lo, hi float64, ok bool) {
	x.mu.RLock()
	if x.hist != nil && bid < uint64(len(x.blockBuckets)) && x.blockBuckets[bid] != nil {
		lo, hi = math.Inf(1), math.Inf(-1)
		x.blockBuckets[bid].ForEach(func(i int) bool {
			bl, bh := x.hist.BucketBounds(i)
			if bl < lo {
				lo = bl
			}
			if bh > hi {
				hi = bh
			}
			return true
		})
		x.mu.RUnlock()
		return lo, hi, true
	}
	x.mu.RUnlock()
	l, h, ok2 := x.BlockValueRange(bid)
	if !ok2 {
		return 0, 0, false
	}
	return l.Float(), h.Float(), true
}

// JoinPairs returns the candidate block pairs of Algorithm 2: pairs
// (b_r ∈ mr, b_s ∈ ms) for which intersect(b_r, b_s) holds. For two
// discrete indexes it walks the shared first-level values — O(values)
// instead of the O(|mr|·|ms|) pairwise loop — and for continuous
// indexes it memoises each block's bucket bounds before the pairwise
// interval test.
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
		seen := make(map[uint64]struct{})
		for k, br := range x.values {
			bs, ok := other.values[k]
			if !ok {
				continue
			}
			rblocks := br.Clone().And(mr)
			if rblocks.Empty() {
				continue
			}
			sblocks := bs.Clone().And(ms)
			if sblocks.Empty() {
				continue
			}
			rblocks.ForEach(func(r int) bool {
				sblocks.ForEach(func(s int) bool {
					key := uint64(r)<<32 | uint64(s)
					if _, dup := seen[key]; !dup {
						seen[key] = struct{}{}
						out = append(out, [2]uint64{uint64(r), uint64(s)})
					}
					return true
				})
				return true
			})
		}
		if second != first {
			second.mu.RUnlock()
		}
		first.mu.RUnlock()
		sortPairs(out)
		return out
	}

	type bounds struct {
		lo, hi float64
		ok     bool
	}
	rb := make(map[int]bounds)
	mr.ForEach(func(r int) bool {
		lo, hi, ok := x.BlockBucketBounds(uint64(r))
		rb[r] = bounds{lo, hi, ok}
		return true
	})
	sb := make(map[int]bounds)
	ms.ForEach(func(s int) bool {
		lo, hi, ok := other.BlockBucketBounds(uint64(s))
		sb[s] = bounds{lo, hi, ok}
		return true
	})
	mr.ForEach(func(r int) bool {
		rbb := rb[r]
		if !rbb.ok {
			return true
		}
		ms.ForEach(func(s int) bool {
			sbb := sb[s]
			if sbb.ok && !(rbb.hi < sbb.lo || rbb.lo > sbb.hi) {
				out = append(out, [2]uint64{uint64(r), uint64(s)})
			}
			return true
		})
		return true
	})
	return out
}

func sortPairs(ps [][2]uint64) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i][0] != ps[j][0] {
			return ps[i][0] < ps[j][0]
		}
		return ps[i][1] < ps[j][1]
	})
}

// Intersects implements Algorithm 2's intersect(b_r, b_s): whether block
// bidR of this index and block bidS of other may produce equi-join
// matches. Continuous indexes compare bucket bounds; discrete indexes
// check for a shared first-level value.
func (x *Index) Intersects(other *Index, bidR, bidS uint64) bool {
	if x.hist == nil && other.hist == nil {
		x.mu.RLock()
		defer x.mu.RUnlock()
		other.mu.RLock()
		defer other.mu.RUnlock()
		for k, br := range x.values {
			if !br.Get(int(bidR)) {
				continue
			}
			if bs, ok := other.values[k]; ok && bs.Get(int(bidS)) {
				return true
			}
		}
		return false
	}
	rl, rh, ok := x.BlockBucketBounds(bidR)
	if !ok {
		return false
	}
	sl, sh, ok := other.BlockBucketBounds(bidS)
	if !ok {
		return false
	}
	return !(rh < sl || rl > sh)
}
