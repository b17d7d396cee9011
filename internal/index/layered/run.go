package layered

import (
	"math"
	"slices"
	"sort"

	"sebdb/internal/types"
)

// Run is one block's second level: §IV-B's bulk-loaded, never
// rebalanced B+-tree without the pointers, searched by bisection. It
// holds the block's distinct keys in types.Compare order, each once, and
// each key's positions in the order a stable sort of the entries leaves.
type Run struct {
	keys []types.Value
	offs []uint32 // keys[i]'s positions are pos[offs[i]:offs[i+1]]
	pos  []uint32
}

// newRun builds the run of a non-empty block. Sorted input — a
// checkpoint restores blocks that way — is not sorted again. Neighbours
// merge only when identical to the bit: Dec(-0) and Dec(+0) compare
// equal but encode apart.
func newRun(entries []Entry) *Run {
	byKey := func(a, b Entry) int { return types.Compare(a.Key, b.Key) }
	if !slices.IsSortedFunc(entries, byKey) {
		entries = slices.Clone(entries)
		slices.SortStableFunc(entries, byKey)
	}
	distinct := 1
	for i := 1; i < len(entries); i++ {
		if !identical(entries[i-1].Key, entries[i].Key) {
			distinct++
		}
	}
	r := &Run{keys: make([]types.Value, 0, distinct), offs: make([]uint32, 0, distinct+1), pos: make([]uint32, len(entries))}
	for i, e := range entries {
		if i == 0 || !identical(entries[i-1].Key, e.Key) {
			r.keys = append(r.keys, e.Key)
			r.offs = append(r.offs, uint32(i))
		}
		r.pos[i] = e.Pos
	}
	r.offs = append(r.offs, uint32(len(entries)))
	return r
}

func identical(a, b types.Value) bool {
	return a.Kind == b.Kind && a.I == b.I && math.Float64bits(a.F) == math.Float64bits(b.F) && a.S == b.S
}

// span returns the keys [i, j) with lo <= key <= hi.
func (r *Run) span(lo, hi types.Value) (i, j int) {
	i, _ = slices.BinarySearchFunc(r.keys, lo, types.Compare)
	return i, i + sort.Search(len(r.keys)-i, func(k int) bool { return types.Compare(r.keys[i+k], hi) > 0 })
}

// Range calls fn for every entry with lo <= key <= hi, in key order;
// returning false stops early.
func (r *Run) Range(lo, hi types.Value, fn func(key types.Value, ref uint64) bool) {
	i, j := r.span(lo, hi)
	for ; i < j; i++ {
		for _, p := range r.pos[r.offs[i]:r.offs[i+1]] {
			if !fn(r.keys[i], uint64(p)) {
				return
			}
		}
	}
}
