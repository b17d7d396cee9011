package core

import (
	"context"
	"fmt"
	"strings"

	"sebdb/internal/auth"
	"sebdb/internal/contract"
	"sebdb/internal/exec"
	"sebdb/internal/index/bitmap"
	"sebdb/internal/index/blockindex"
	"sebdb/internal/index/layered"
	"sebdb/internal/obs"
	"sebdb/internal/schema"
	"sebdb/internal/sqlparser"
	"sebdb/internal/types"
)

// View is an immutable, height-pinned snapshot of everything a read
// needs: tables, contracts, block and layered indexes, ALIs and the
// chain tip, all consistent with one height. The engine
// publishes a fresh view at the end of every commit's index window (and
// after DDL, contract deployment and index creation), swapping an
// atomic pointer; SELECT/TRACE/JOIN/EXPLAIN and thin-client VO
// generation run entirely against the view they pinned, so they perform
// zero e.mu acquisitions and never observe a block half-indexed.
//
// A view is a height, and nothing is copied to build one:
//
//   - The block-level index is the store's header prefix [0, height),
//     whose elements are never rewritten; the tip and GET BLOCK's
//     headers are read from it too.
//   - The table, contract and index maps are the engine's own, and
//     copy-on-write: a definition (chainDefs) or an index creation
//     replaces a map instead of changing it, so a view shares the maps
//     current at publish time. The view is the only way to read them
//     outside e.mu.
//   - The layered indexes — the table-level bitmaps among them, as the
//     first level of the built-in Tname index — and the ALIs are the
//     live objects. Each carries its own internal lock, and appends only
//     ever add state for blocks at or beyond the view's height, so
//     cutting every answer at the height reproduces the structure as it
//     was at publish time.
type View struct {
	e     *Engine
	epoch uint64
	// lastTid/lastTs are the commit cursor at publish time.
	lastTid uint64
	lastTs  int64
	// bidx is the block-level index over the pinned prefix; its Count is
	// the view's height.
	bidx blockindex.Index

	defs chainDefs
	lidx map[string]*layered.Index
	alis map[string]*auth.ALI
}

// View is the read surface the query operators run against; *Engine
// deliberately is not.
var (
	_ exec.Chain         = (*View)(nil)
	_ exec.ObsChain      = (*View)(nil)
	_ exec.ParallelChain = (*View)(nil)
)

// buildView assembles a view over the given block-level index from the
// engine's current state. Callers hold e.mu exclusively (or own the
// engine outright during construction), which is what makes the
// height, the cursor and the index maps mutually consistent.
func (e *Engine) buildView(bidx blockindex.Index) *View {
	return &View{
		e:       e,
		epoch:   e.viewEpoch.Add(1),
		lastTid: e.lastTid,
		lastTs:  e.lastTs,
		bidx:    bidx,
		defs:    e.defs,
		lidx:    e.lidx,
		alis:    e.alis,
	}
}

// publishViewLocked swaps in a view of the engine's current state.
// Callers hold e.mu exclusively; the swap is the read side's only
// coupling to the write path, so its cost is tracked
// (sebdb_view_swap_micros) along with the running epoch
// (sebdb_view_epoch).
func (e *Engine) publishViewLocked() {
	start := e.cfg.Obs.Now()
	v := e.buildView(blockindex.New(e.store.Prefix()))
	e.view.Store(v)
	e.bumpHeightSignal()
	e.gViewEpoch.Set(int64(v.epoch))
	e.mViewSwap.Observe(e.cfg.Obs.Now() - start)
}

// CurrentView returns the newest published view. It never returns nil:
// a zero-height view is installed at construction, and every commit,
// DDL and index creation republishes.
func (e *Engine) CurrentView() *View { return e.view.Load() }

// pinView pins the current view for one statement, recording the pin as
// a "view.pin" span when the context carries a query trace.
func (e *Engine) pinView(ctx context.Context) *View {
	_, sp := obs.StartSpan(ctx, "view.pin")
	v := e.CurrentView()
	sp.SetCounter("height", int64(v.Height()))
	sp.SetCounter("epoch", int64(v.epoch))
	sp.Finish()
	return v
}

// Height returns the view's pinned chain height.
func (v *View) Height() uint64 { return v.bidx.Count() }

// Epoch returns the view's publish sequence number.
func (v *View) Epoch() uint64 { return v.epoch }

// Tip returns the newest block header inside the view, or nil for an
// empty chain. The header is shared: callers must not modify it.
func (v *View) Tip() *types.BlockHeader {
	if v.Height() == 0 {
		return nil
	}
	tip, _ := v.bidx.Header(v.Height() - 1)
	return tip
}

// LastTid returns the largest transaction id committed within the view.
func (v *View) LastTid() uint64 { return v.lastTid }

// NumBlocks returns the pinned height.
func (v *View) NumBlocks() int { return int(v.Height()) }

// Block reads a block inside the view, through the engine's cache. The
// store and caches take no engine lock.
func (v *View) Block(bid uint64) (*types.Block, error) {
	if bid >= v.Height() {
		return nil, v.beyond(bid)
	}
	return v.e.Block(bid)
}

// FilterBlock returns the transactions of a block inside the view that
// keep accepts, and how many the block holds (Engine.FilterBlock).
func (v *View) FilterBlock(bid uint64, keep func(*types.Transaction) (bool, error)) ([]*types.Transaction, int, error) {
	if bid >= v.Height() {
		return nil, 0, v.beyond(bid)
	}
	return v.e.FilterBlock(bid, keep)
}

// Header returns the header of a block inside the view from the pinned
// header prefix: no segment read, no decode, no store lock.
func (v *View) Header(bid uint64) (types.BlockHeader, error) {
	h, ok := v.bidx.Header(bid)
	if !ok {
		return types.BlockHeader{}, v.beyond(bid)
	}
	return *h, nil
}

// beyond is the error for a block at or past the view's height.
func (v *View) beyond(bid uint64) error {
	return fmt.Errorf("core: block %d beyond view height %d", bid, v.Height())
}

// Tx reads one transaction by (block, position) inside the view.
func (v *View) Tx(bid uint64, pos uint32) (*types.Transaction, error) {
	if bid >= v.Height() {
		return nil, v.beyond(bid)
	}
	return v.e.Tx(bid, pos)
}

// BlockIdx returns the view's block-level index over its pinned prefix.
func (v *View) BlockIdx() blockindex.Index { return v.bidx }

// TableBlocks returns the view's table-level bitmap for a table name
// (§IV-B): the name's bitmap in the first level of the built-in Tname
// layered index, cut at the pinned height — the live bitmap may already
// hold blocks appended after the view was published.
func (v *View) TableBlocks(name string) *bitmap.Bitmap {
	return v.lidx[".tname"].ValueBlocks(types.Str(name)).And(bitmap.Upto(v.NumBlocks()))
}

// Layered returns the layered index on table.col as of the view, or
// nil. The index object is the live one — per-block state for blocks
// inside the view is immutable — but the membership is pinned: an index
// created after the view was published is not visible through it.
func (v *View) Layered(table, col string) *layered.Index {
	return v.lidx[table+"."+col]
}

// AuthIndex returns the ALI on table.col as of the view, or nil.
func (v *View) AuthIndex(table, col string) *auth.ALI {
	return v.alis[table+"."+col]
}

// Table resolves a table schema as of the view.
func (v *View) Table(name string) (*schema.Table, error) {
	t, ok := v.defs.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("schema: no such table %q", name)
	}
	return t, nil
}

// HasTable reports whether the table is defined as of the view.
func (v *View) HasTable(name string) bool {
	_, ok := v.defs.tables[strings.ToLower(name)]
	return ok
}

// Contract returns a contract deployed as of the view.
func (v *View) Contract(name string) (*contract.Contract, error) {
	c, ok := v.defs.contracts[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("contract: no contract %q", name)
	}
	return c, nil
}

// ContractNames lists the contracts deployed as of the view, in name
// order.
func (v *View) ContractNames() []string { return sortedKeys(v.defs.contracts) }

// Obs returns the engine's metrics registry; the view satisfies
// exec.ObsChain with it.
func (v *View) Obs() *obs.Registry { return v.e.cfg.Obs }

// Parallelism returns the engine's worker bound; the view satisfies
// exec.ParallelChain with it.
func (v *View) Parallelism() int { return v.e.Parallelism() }

// estimateCap bounds the second-level matches estimateLayered counts,
// keeping planning cheap on huge results.
const estimateCap = 200_000

// estimateLayered estimates the result size p of driving the layered
// index, by counting second-level matches inside the view (index-only,
// no transaction reads), capped at estimateCap; p is -1 when no
// predicate can drive an index with exact bounds. The walk it counts
// with is the walk the layered operator would make, so unless the cap
// cut it short it is returned as a probe for exec.SelectProbed: a
// statement that goes on to run the layered method walks the second
// level once.
func (v *View) estimateLayered(tbl *schema.Table, preds []sqlparser.Pred) (int, *exec.Probe) {
	return exec.ProbeLayered(v, tbl, preds, estimateCap)
}
