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
// needs: catalog, contract registry, block/table/layered indexes, ALIs
// and the chain tip, all consistent with one height. The engine
// publishes a fresh view at the end of every commit's index window (and
// after DDL, contract deployment and index creation), swapping an
// atomic pointer; SELECT/TRACE/JOIN/EXPLAIN and thin-client VO
// generation run entirely against the view they pinned, so they perform
// zero e.mu acquisitions and never observe a block half-indexed.
//
// A view is cheap to build because nothing is deep-copied. The shared
// structures are safe under two different regimes:
//
//   - The catalog, contract registry and index maps are snapshotted as
//     map copies of immutable values (tables and contracts never mutate
//     after definition; the maps themselves are what DDL mutates).
//   - The block index, table bitmaps, layered indexes and ALIs are the
//     live objects. Each carries its own internal lock, and appends
//     only ever add state for blocks at or beyond the view's height, so
//     masking every answer to [0, height) — the pinned block index and
//     the view's bitmap mask do exactly that — reproduces the structure
//     as it was at publish time.
type View struct {
	e      *Engine
	epoch  uint64
	height uint64
	// lastTid/lastTs are the commit cursor at publish time; lastTid
	// bounds ByTid lookups inside the pinned prefix.
	lastTid uint64
	lastTs  int64
	// tip is the newest header inside the view, nil for an empty chain.
	tip *types.BlockHeader

	tables    map[string]*schema.Table
	contracts map[string]*contract.Contract
	lidx      map[string]*layered.Index
	alis      map[string]*auth.ALI

	bidx *blockindex.Pinned
	// mask has bits [0, height) set; live bitmap answers are
	// intersected with it. Shared read-only across the view's readers.
	mask *bitmap.Bitmap
}

// View is the read surface the query operators run against; *Engine
// deliberately is not.
var (
	_ exec.Chain         = (*View)(nil)
	_ exec.ObsChain      = (*View)(nil)
	_ exec.ParallelChain = (*View)(nil)
)

// buildView assembles a view pinned to height h from the engine's
// current state. Callers hold e.mu exclusively (or own the engine
// outright during construction), which is what makes h, the cursor and
// the index maps mutually consistent.
func (e *Engine) buildView(h uint64) *View {
	v := &View{
		e:         e,
		epoch:     e.viewEpoch.Add(1),
		height:    h,
		lastTid:   e.lastTid,
		lastTs:    e.lastTs,
		tables:    e.catalog.Snapshot(),
		contracts: e.contracts.Snapshot(),
		lidx:      make(map[string]*layered.Index, len(e.lidx)),
		alis:      make(map[string]*auth.ALI, len(e.alis)),
		mask:      bitmap.Upto(int(h)),
	}
	if h > 0 {
		if tip, ok := e.store.Tip(); ok {
			v.tip = &tip
		}
	}
	for k, idx := range e.lidx {
		v.lidx[k] = idx
	}
	for k, ali := range e.alis {
		v.alis[k] = ali
	}
	v.bidx = blockindex.Pin(e.blockIdx, h, e.lastTid, v.mask)
	return v
}

// publishViewLocked swaps in a view of the engine's current state.
// Callers hold e.mu exclusively; the swap is the read side's only
// coupling to the write path, so its cost is tracked
// (sebdb_view_swap_micros) along with the running epoch
// (sebdb_view_epoch).
func (e *Engine) publishViewLocked() {
	start := e.cfg.Obs.Now()
	v := e.buildView(uint64(e.store.Count()))
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
	sp.SetCounter("height", int64(v.height))
	sp.SetCounter("epoch", int64(v.epoch))
	sp.Finish()
	return v
}

// Height returns the view's pinned chain height.
func (v *View) Height() uint64 { return v.height }

// Epoch returns the view's publish sequence number.
func (v *View) Epoch() uint64 { return v.epoch }

// Tip returns the newest block header inside the view, or nil for an
// empty chain.
func (v *View) Tip() *types.BlockHeader { return v.tip }

// LastTid returns the largest transaction id committed within the view.
func (v *View) LastTid() uint64 { return v.lastTid }

// NumBlocks returns the pinned height.
func (v *View) NumBlocks() int { return int(v.height) }

// Block reads a block inside the view, through the engine's cache. The
// store and caches take no engine lock.
func (v *View) Block(bid uint64) (*types.Block, error) {
	if bid >= v.height {
		return nil, fmt.Errorf("core: block %d beyond view height %d", bid, v.height)
	}
	return v.e.Block(bid)
}

// FilterBlock returns the transactions of a block inside the view that
// keep accepts, and how many the block holds (Engine.FilterBlock).
func (v *View) FilterBlock(bid uint64, keep func(*types.Transaction) (bool, error)) ([]*types.Transaction, int, error) {
	if bid >= v.height {
		return nil, 0, fmt.Errorf("core: block %d beyond view height %d", bid, v.height)
	}
	return v.e.FilterBlock(bid, keep)
}

// Header returns the header of a block inside the view from the store's
// in-memory header list: no segment read, no decode.
func (v *View) Header(bid uint64) (types.BlockHeader, error) {
	if bid >= v.height {
		return types.BlockHeader{}, fmt.Errorf("core: block %d beyond view height %d", bid, v.height)
	}
	return v.e.store.Header(bid)
}

// Tx reads one transaction by (block, position) inside the view.
func (v *View) Tx(bid uint64, pos uint32) (*types.Transaction, error) {
	if bid >= v.height {
		return nil, fmt.Errorf("core: block %d beyond view height %d", bid, v.height)
	}
	return v.e.Tx(bid, pos)
}

// BlockIdx returns the view's pinned block-level index.
func (v *View) BlockIdx() blockindex.Reader { return v.bidx }

// TableBlocks returns the view's table-level bitmap for a table name or
// a "senid:<id>" key: the live bitmap masked to the pinned height.
func (v *View) TableBlocks(name string) *bitmap.Bitmap {
	return v.e.tableIdx.Blocks(name).And(v.mask)
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
	t, ok := v.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("schema: no such table %q", name)
	}
	return t, nil
}

// HasTable reports whether the view's catalog defines the table.
func (v *View) HasTable(name string) bool {
	_, ok := v.tables[strings.ToLower(name)]
	return ok
}

// Contract returns a contract deployed as of the view.
func (v *View) Contract(name string) (*contract.Contract, error) {
	c, ok := v.contracts[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("contract: no contract %q", name)
	}
	return c, nil
}

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
