// Package blockindex implements the paper's block-level index (§IV-B),
// which locates a block by block id, transaction id or timestamp. The
// paper keeps it as a B+-tree over (bid, tid, Ts); all three keys grow
// as blocks are appended, and a B+-tree bulk-appended on monotone keys
// is its sorted leaf array. The store already keeps that array in
// memory — the block headers and their tid cursors — so an Index is a
// pinned prefix of it, and every lookup is a binary search.
package blockindex

import (
	"sort"

	"sebdb/internal/index/bitmap"
	"sebdb/internal/types"
)

// Index is the block-level index over a chain prefix [0, Count()). It
// is a value over two immutable slices and needs no lock: headers[i] is
// block i's header, and cursors[i] is its tid cursor — the first tid the
// block holds, or would hold were it empty. Block timestamps strictly
// increase (storage.Store refuses a block that does not follow the tip)
// and so do the cursors of non-empty blocks (the engine admits a block
// only when its first tid continues the chain's), which is what every
// search relies on.
type Index struct {
	headers []types.BlockHeader
	cursors []uint64
}

// New returns the index over the given prefix; the slices must have the
// same length and must not change afterwards (storage.Store.Prefix).
func New(headers []types.BlockHeader, cursors []uint64) Index {
	return Index{headers: headers, cursors: cursors}
}

// Count returns the number of indexed blocks.
func (x Index) Count() uint64 { return uint64(len(x.headers)) }

// Header returns the header of block bid; ok is false beyond the prefix.
// The header is shared: callers must not modify it.
func (x Index) Header(bid uint64) (*types.BlockHeader, bool) {
	if bid >= x.Count() {
		return nil, false
	}
	return &x.headers[bid], true
}

// ByBlockID reports whether block bid exists.
func (x Index) ByBlockID(bid uint64) bool { return bid < x.Count() }

// ByTid returns the block containing transaction tid: the last block
// whose cursor does not exceed tid, for a tid the prefix has committed.
// An empty block's cursor equals the next block's, or at the tip
// exceeds every committed tid, so it is never the answer.
func (x Index) ByTid(tid uint64) (uint64, bool) {
	n := len(x.headers)
	if n == 0 || tid >= x.cursors[n-1]+uint64(x.headers[n-1].TxCount) {
		return 0, false
	}
	i := sort.Search(n, func(i int) bool { return x.cursors[i] > tid })
	if i == 0 {
		return 0, false
	}
	return uint64(i - 1), true
}

// ByTime returns the block current at timestamp ts: the newest block
// packaged at or before ts.
func (x Index) ByTime(ts int64) (uint64, bool) {
	i := x.upTo(ts)
	if i == 0 {
		return 0, false
	}
	return uint64(i - 1), true
}

// TimeWindow returns a bitmap with bit i set when block i was packaged
// within [start, end], both ends included — the first step of
// Algorithms 1–3. A zero end means "no upper bound".
func (x Index) TimeWindow(start, end int64) *bitmap.Bitmap {
	lo := sort.Search(len(x.headers), func(i int) bool { return x.headers[i].Timestamp >= start })
	hi := len(x.headers)
	if end != 0 {
		hi = x.upTo(end)
	}
	return bitmap.Span(lo, hi)
}

// AllBlocks returns a bitmap with every indexed block set; used when a
// query has no time window.
func (x Index) AllBlocks() *bitmap.Bitmap { return bitmap.Upto(len(x.headers)) }

// upTo returns the number of blocks packaged at or before ts.
func (x Index) upTo(ts int64) int {
	return sort.Search(len(x.headers), func(i int) bool { return x.headers[i].Timestamp > ts })
}
