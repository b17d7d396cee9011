// Package auth implements SEBDB's authenticated query machinery (paper
// §VI): the Authenticated Layered Index (ALI) — the layered index with
// its per-block second level replaced by Merkle B-trees — the 2-phase
// thin-client protocol (full node answers with a VO; auxiliary full
// nodes answer with a digest over the visited MB-roots), the Byzantine
// digest-sampling probability of Equation 6, and the ship-all-blocks
// baseline the paper compares against.
package auth

import (
	"fmt"
	"sync"

	"sebdb/internal/index/bitmap"
	"sebdb/internal/index/layered"
	"sebdb/internal/mbtree"
	"sebdb/internal/obs"
	"sebdb/internal/types"
)

// Source reads what block bid's MB-tree is built from. entries are the
// block's run in key order, each a key and its transaction's position
// in the block; the records come back one per entry, in the same order,
// each carrying the named transaction's encoding as its payload.
type Source func(bid uint64, entries []layered.Entry) ([]mbtree.Record, error)

// ALI is an authenticated layered index on one attribute: the first
// level is the layered index's per-block filter, the second level one
// MB-tree per block. Each block height is a verifiable snapshot.
//
// A block appended by AppendRun is held as its run of (key, position)
// entries — a layered run, the form a checkpoint frame stores —
// and its MB-tree is built from the block's body, read through the
// Source, the first time a query needs it; a tree once built is kept.
// A block appended by AppendBlock brings its payloads and is built at
// once.
type ALI struct {
	// first, fanout and src are fixed once the ALI is shared; first
	// carries its own internal lock.
	first  *layered.Index
	fanout int
	src    Source

	mu    sync.RWMutex
	trees []*mbtree.Tree // by block id; nil until built, or when the block has no indexed rows
	built int            // builds from the Source, a lost race's included
}

// Tree-build metrics, reported to the default registry: how many
// MB-trees were built from block bodies on first touch, and how long
// each build took (body read, payload copy and hashing).
var (
	mTreesBuilt  = obs.Default.Counter("sebdb_auth_trees_built_total")
	mBuildMicros = obs.Default.Histogram("sebdb_auth_tree_build_micros")
)

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

// WithSource sets where the trees of blocks appended by AppendRun are
// read from, and returns a. Call it before the ALI is shared.
func (a *ALI) WithSource(src Source) *ALI {
	a.src = src
	return a
}

// Continuous reports whether the first level uses histogram bucketing.
func (a *ALI) Continuous() bool { return a.first.Continuous() }

// Histogram returns the first-level histogram, or nil for a discrete
// ALI.
func (a *ALI) Histogram() *layered.Histogram { return a.first.Histogram() }

// AppendBlock indexes a newly chained block whose records the caller
// supplies: the block's MB-tree is built and hashed at once, and the
// first level marked with its keys. Blocks must be appended in height
// order.
func (a *ALI) AppendBlock(bid uint64, recs []mbtree.Record) {
	var t *mbtree.Tree
	n := 0
	if len(recs) > 0 {
		t = mbtree.Build(recs, a.fanout)
		n = t.Len()
	}
	a.mu.Lock()
	a.install(bid, t)
	a.mu.Unlock()
	// The tree hands its keys over sorted, so equal ones are marked once;
	// without a tree no key is asked for.
	a.first.MarkBlock(bid, n, t.Key)
}

// AppendRun links block bid's run, built by layered.BuildRun from the
// block's (key, position) entries — nil for none: the run and its
// first-level marks. No tree is built; the first query that needs the
// block's builds it. Blocks must be appended in height order.
func (a *ALI) AppendRun(bid uint64, r *layered.Run) {
	a.first.AppendRun(bid, r)
}

// BlockEntries returns the entries of a block appended by AppendRun in
// key order, or nil when it has no indexed rows. Feeding them back to
// AppendRun on a fresh ALI reproduces the block's state — the
// checkpoint subsystem serialises ALIs this way.
func (a *ALI) BlockEntries(bid uint64) []layered.Entry {
	return a.first.BlockEntries(bid)
}

// Blocks returns the number of block slots the ALI covers.
func (a *ALI) Blocks() int { return a.first.Blocks() }

// TreesBuilt returns how many of the ALI's trees were built from its
// Source so far.
func (a *ALI) TreesBuilt() int {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.built
}

// CandidateBlocks returns the first-level filter for [lo, hi].
func (a *ALI) CandidateBlocks(lo, hi types.Value) *bitmap.Bitmap {
	return a.first.CandidateBlocks(lo, hi)
}

// tree returns the MB-tree of block bid, building it from the Source
// when this is its first use; nil when the block has no indexed rows.
// The build runs outside the ALI's lock, so concurrent first touches of
// one block may both build it; the first to finish is kept.
func (a *ALI) tree(bid uint64) (*mbtree.Tree, error) {
	a.mu.RLock()
	var t *mbtree.Tree
	if bid < uint64(len(a.trees)) {
		t = a.trees[bid]
	}
	a.mu.RUnlock()
	if t != nil || a.src == nil {
		return t, nil
	}
	entries := a.first.BlockEntries(bid)
	if len(entries) == 0 {
		return nil, nil
	}
	start := obs.Default.Now()
	recs, err := a.src(bid, entries)
	if err == nil && len(recs) != len(entries) {
		err = fmt.Errorf("%d records for %d entries", len(recs), len(entries))
	}
	if err != nil {
		return nil, fmt.Errorf("auth: building the MB-tree of block %d: %w", bid, err)
	}
	t = mbtree.Build(recs, a.fanout)
	a.mu.Lock()
	if bid < uint64(len(a.trees)) && a.trees[bid] != nil {
		t = a.trees[bid]
	} else {
		a.install(bid, t)
	}
	a.built++
	a.mu.Unlock()
	mTreesBuilt.Inc()
	mBuildMicros.Observe(obs.Default.Now() - start)
	return t, nil
}

// install sets block bid's tree. Callers hold a.mu.
func (a *ALI) install(bid uint64, t *mbtree.Tree) {
	for uint64(len(a.trees)) <= bid {
		a.trees = append(a.trees, nil)
	}
	a.trees[bid] = t
}

// Root returns the MB-root of block bid, building the block's tree if
// no query has yet; ok is false when the block has no indexed rows or
// its tree cannot be built.
func (a *ALI) Root(bid uint64) (mbtree.Hash, bool) {
	t, err := a.tree(bid)
	if err != nil || t == nil {
		return mbtree.Hash{}, false
	}
	return t.Root(), true
}
