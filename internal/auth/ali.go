// Package auth implements SEBDB's authenticated query machinery (paper
// §VI): the Authenticated Layered Index (ALI) — the layered index with
// its per-block second level replaced by Merkle B-trees — the 2-phase
// thin-client protocol (full node answers with a VO; auxiliary full
// nodes answer with a digest over the visited MB-roots), the Byzantine
// digest-sampling probability of Equation 6, and the ship-all-blocks
// baseline the paper compares against.
package auth

import (
	"sync"

	"sebdb/internal/index/bitmap"
	"sebdb/internal/index/layered"
	"sebdb/internal/mbtree"
	"sebdb/internal/types"
)

// ALI is an authenticated layered index on one attribute: the first
// level is the layered index's per-block filter, the second level one
// MB-tree per block. Each block height is a verifiable snapshot.
type ALI struct {
	// fanout is fixed at construction; first carries its own internal
	// lock.
	first  *layered.Index
	fanout int

	mu    sync.RWMutex
	trees []*mbtree.Tree // indexed by block id; nil when block empty
	roots []mbtree.Hash  // the trees' roots, side by side for Digest
}

// NewDiscrete creates an ALI over a discrete attribute (e.g. Tname for
// authenticated tracking).
func NewDiscrete(attr string, fanout int) *ALI {
	return &ALI{first: layered.NewDiscrete(attr), fanout: fanout}
}

// NewContinuous creates an ALI over a continuous attribute with the
// given first-level histogram.
func NewContinuous(attr string, hist *layered.Histogram, fanout int) *ALI {
	return &ALI{first: layered.NewContinuous(attr, hist), fanout: fanout}
}

// Continuous reports whether the first level uses histogram bucketing.
func (a *ALI) Continuous() bool { return a.first.Continuous() }

// Histogram returns the first-level histogram, or nil for a discrete
// ALI.
func (a *ALI) Histogram() *layered.Histogram { return a.first.Histogram() }

// BlockRecords returns the records of block bid's MB-tree in key
// order, or nil when the block has no indexed rows. Feeding them back
// to AppendBlock on a fresh ALI reproduces the block's tree and root
// exactly — the checkpoint subsystem serialises ALIs this way instead
// of persisting hashes.
func (a *ALI) BlockRecords(bid uint64) []mbtree.Record {
	t := a.Tree(bid)
	if t == nil {
		return nil
	}
	return t.Records()
}

// AppendBlock indexes a newly chained block: BuildTree, then
// AppendTree.
func (a *ALI) AppendBlock(bid uint64, recs []mbtree.Record) {
	a.AppendTree(bid, a.BuildTree(recs))
}

// BuildTree builds the MB-tree of a block with the given records — nil
// for none — at the ALI's fanout, hashing it through to its root: the
// half of an append that does the work, safe to run for many blocks at
// once and ahead of their turn.
func (a *ALI) BuildTree(recs []mbtree.Record) *mbtree.Tree {
	if len(recs) == 0 {
		return nil
	}
	return mbtree.Build(recs, a.fanout)
}

// AppendTree installs block bid's tree, built by BuildTree, and marks
// the first level with its keys. Blocks must be appended in height
// order; pass a nil tree for blocks without relevant rows.
func (a *ALI) AppendTree(bid uint64, t *mbtree.Tree) {
	var root mbtree.Hash
	n := 0
	if t != nil {
		root, n = t.Root(), t.Len()
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	for uint64(len(a.trees)) <= bid {
		a.trees = append(a.trees, nil)
		a.roots = append(a.roots, mbtree.Hash{})
	}
	a.trees[bid], a.roots[bid] = t, root
	// The tree hands its keys over sorted, so equal ones are marked once;
	// without a tree no key is asked for.
	a.first.MarkBlock(bid, n, t.Key)
}

// Blocks returns the number of block slots the ALI covers.
func (a *ALI) Blocks() int {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return len(a.trees)
}

// CandidateBlocks returns the first-level filter for [lo, hi].
func (a *ALI) CandidateBlocks(lo, hi types.Value) *bitmap.Bitmap {
	return a.first.CandidateBlocks(lo, hi)
}

// Tree returns the MB-tree of block bid, or nil.
func (a *ALI) Tree(bid uint64) *mbtree.Tree {
	a.mu.RLock()
	defer a.mu.RUnlock()
	if bid >= uint64(len(a.trees)) {
		return nil
	}
	return a.trees[bid]
}

// Root returns the MB-root of block bid; ok is false when the block has
// no indexed rows.
func (a *ALI) Root(bid uint64) (mbtree.Hash, bool) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	if bid >= uint64(len(a.trees)) || a.trees[bid] == nil {
		return mbtree.Hash{}, false
	}
	return a.roots[bid], true
}
