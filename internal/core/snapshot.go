package core

import (
	"fmt"
	"sort"

	"sebdb/internal/auth"
	"sebdb/internal/index/layered"
	"sebdb/internal/mbtree"
	"sebdb/internal/snapshot"
)

// Checkpoint integration: the engine can freeze its entire derived
// state — storage metadata, catalog, contracts, table bitmaps, layered
// indexes and ALIs — into a snapshot.Checkpoint pinned to the current
// tip, and seed itself from one on Open so only the post-checkpoint
// suffix needs replaying. The chain stays the sole source of truth: a
// checkpoint that fails any verification is discarded and Open falls
// back to full replay.

// WriteCheckpoint freezes the engine's derived state at the current
// height and atomically persists it to <dir>/snapshots. Only the state
// snapshot happens under the engine lock; encoding and the fsync+rename
// run outside it, so queries and commits proceed while the checkpoint
// hits disk. It is called automatically every Config.CheckpointInterval
// blocks; operators and tests may also call it directly.
func (e *Engine) WriteCheckpoint() error {
	c, err := e.BuildCheckpoint()
	if err != nil {
		return err
	}
	return e.persistCheckpoint(c)
}

// BuildCheckpoint freezes the engine's derived state at the current
// height without persisting it. Fast-sync uses it to derive the
// reference state a peer's checkpoint is validated against.
func (e *Engine) BuildCheckpoint() (*snapshot.Checkpoint, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.buildCheckpointLocked()
}

// maybeBuildCheckpointLocked assembles a checkpoint when the chain
// height hits the configured interval, for the caller to persist after
// releasing e.mu (the build deep-copies, so the encode and fsync touch
// nothing the lock guards). Checkpointing is an optimisation, so
// failures never fail the commit; they are counted and kept for
// CheckpointErr.
func (e *Engine) maybeBuildCheckpointLocked() *snapshot.Checkpoint {
	iv := e.cfg.CheckpointInterval
	if iv <= 0 {
		return nil
	}
	h := uint64(e.store.Count())
	if h == 0 || h%uint64(iv) != 0 {
		return nil
	}
	c, err := e.buildCheckpointLocked()
	if err != nil {
		e.ckptErr = err
		e.cfg.Obs.Counter("sebdb_snapshot_write_errors_total").Inc()
		return nil
	}
	return c
}

// finishCheckpoint persists a checkpoint built during a commit and
// records the outcome for CheckpointErr. Callers must not hold e.mu.
func (e *Engine) finishCheckpoint(c *snapshot.Checkpoint) {
	if c == nil {
		return
	}
	err := e.persistCheckpoint(c)
	if err != nil {
		e.cfg.Obs.Counter("sebdb_snapshot_write_errors_total").Inc()
		e.log.Error("checkpoint persist failed", "height", c.Height, "err", err)
	} else {
		e.log.Info("checkpoint persisted", "height", c.Height)
	}
	e.mu.Lock()
	e.ckptErr = err
	e.mu.Unlock()
}

// persistCheckpoint serialises checkpoint writes and keeps the manifest
// monotonic: when two commits race past their interval boundaries, the
// slower (older) checkpoint is dropped rather than repointing the
// manifest backwards.
func (e *Engine) persistCheckpoint(c *snapshot.Checkpoint) error {
	e.ckptMu.Lock()
	defer e.ckptMu.Unlock()
	// Strictly older checkpoints are dropped; an equal-height write (an
	// explicit WriteCheckpoint after index creation, say) goes through —
	// it renames over the same file and cannot regress the manifest.
	if c.Height < e.ckptFloor {
		return nil
	}
	//sebdb:ignore-lockio reason: ckptMu exists precisely to serialise checkpoint persists against each other; it is never taken on the read or commit path
	if err := e.snapDir.Write(c); err != nil {
		return err
	}
	e.ckptFloor = c.Height
	return nil
}

// CheckpointErr returns the error of the most recent automatic
// checkpoint attempt, or nil if it succeeded (or none was attempted).
func (e *Engine) CheckpointErr() error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.ckptErr
}

// SnapshotDir exposes the engine's checkpoint directory — the node
// layer serves fast-sync from it.
func (e *Engine) SnapshotDir() *snapshot.Dir { return e.snapDir }

// buildCheckpointLocked assembles a checkpoint of the state derived
// from blocks [0, Count). Callers hold e.mu, so the view is consistent:
// every index covers exactly the current height.
func (e *Engine) buildCheckpointLocked() (*snapshot.Checkpoint, error) {
	h := uint64(e.store.Count())
	if h == 0 {
		return nil, fmt.Errorf("core: cannot checkpoint an empty chain")
	}
	m, err := e.store.Meta(h)
	if err != nil {
		return nil, err
	}
	c := &snapshot.Checkpoint{
		Height:   h,
		Anchor:   m.Headers[h-1].Hash(),
		LastTid:  e.lastTid,
		LastTs:   e.lastTs,
		Store:    m,
		TableIdx: make(map[string][]uint32),
	}
	for _, name := range e.catalog.Names() {
		t, err := e.catalog.Lookup(name)
		if err != nil {
			return nil, err
		}
		c.Tables = append(c.Tables, t)
	}
	for _, name := range e.contracts.Names() {
		ct, err := e.contracts.Get(name)
		if err != nil {
			return nil, err
		}
		c.Contracts = append(c.Contracts, ct)
	}
	for _, k := range e.tableIdx.Keys() {
		ids := e.tableIdx.Blocks(k).Slice()
		out := make([]uint32, len(ids))
		for i, b := range ids {
			out[i] = uint32(b)
		}
		c.TableIdx[k] = out
	}
	for _, key := range sortedKeys(e.lidx) {
		idx := e.lidx[key]
		st := snapshot.IndexState{Key: key, Attr: idx.Attr(), Continuous: idx.Continuous()}
		if hist := idx.Histogram(); hist != nil {
			st.Bounds = hist.Bounds()
		}
		st.Blocks = make([][]layered.Entry, h)
		for bid := uint64(0); bid < h; bid++ {
			st.Blocks[bid] = idx.BlockEntries(bid)
		}
		c.Indexes = append(c.Indexes, st)
	}
	for _, key := range sortedKeys(e.alis) {
		ali := e.alis[key]
		st := snapshot.ALIState{Key: key, Attr: ali.Attr(), Continuous: ali.Continuous()}
		if hist := ali.Histogram(); hist != nil {
			st.Bounds = hist.Bounds()
		}
		st.Blocks = make([][]mbtree.Record, h)
		for bid := uint64(0); bid < h; bid++ {
			st.Blocks[bid] = ali.BlockRecords(bid)
		}
		c.ALIs = append(c.ALIs, st)
	}
	return c, nil
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// restoreCheckpoint seeds a freshly constructed engine from a decoded
// checkpoint. It runs during Open before the engine is shared, so no
// locking is needed. Any inconsistency is an error; the caller discards
// the engine and falls back to full replay.
func (e *Engine) restoreCheckpoint(c *snapshot.Checkpoint) error {
	for _, t := range c.Tables {
		if err := e.catalog.Define(t); err != nil {
			return fmt.Errorf("core: checkpoint catalog: %w", err)
		}
	}
	for _, ct := range c.Contracts {
		if err := e.contracts.Register(ct); err != nil {
			return fmt.Errorf("core: checkpoint contracts: %w", err)
		}
	}
	e.lastTid = c.LastTid
	e.lastTs = c.LastTs
	for k, ids := range c.TableIdx {
		for _, b := range ids {
			e.tableIdx.Mark(k, int(b))
		}
	}
	// The block-level index is cheap to rebuild from the headers the
	// checkpoint already carries, so it is not serialised.
	for i := range c.Store.Headers {
		h := &c.Store.Headers[i]
		last := h.FirstTid
		if h.TxCount > 0 {
			last = h.FirstTid + uint64(h.TxCount) - 1
		}
		e.blockIdx.Append(uint64(i), h.FirstTid, last, h.Timestamp)
	}
	for _, st := range c.Indexes {
		if uint64(len(st.Blocks)) != c.Height {
			return fmt.Errorf("core: checkpoint index %q covers %d of %d blocks", st.Key, len(st.Blocks), c.Height)
		}
		var idx *layered.Index
		if st.Continuous {
			idx = layered.NewContinuous(st.Attr, layered.FromBounds(st.Bounds))
		} else {
			idx = layered.NewDiscrete(st.Attr)
		}
		for bid, entries := range st.Blocks {
			idx.AppendBlock(uint64(bid), entries)
		}
		e.lidx[st.Key] = idx
	}
	for _, st := range c.ALIs {
		if uint64(len(st.Blocks)) != c.Height {
			return fmt.Errorf("core: checkpoint auth index %q covers %d of %d blocks", st.Key, len(st.Blocks), c.Height)
		}
		var ali *auth.ALI
		if st.Continuous {
			ali = auth.NewContinuous(st.Attr, layered.FromBounds(st.Bounds), mbtree.DefaultFanout)
		} else {
			ali = auth.NewDiscrete(st.Attr, mbtree.DefaultFanout)
		}
		for bid, recs := range st.Blocks {
			ali.AppendBlock(uint64(bid), recs)
		}
		e.alis[st.Key] = ali
	}
	if _, ok := e.lidx[".senid"]; !ok {
		return fmt.Errorf("core: checkpoint misses the system index .senid")
	}
	if _, ok := e.lidx[".tname"]; !ok {
		return fmt.Errorf("core: checkpoint misses the system index .tname")
	}
	return nil
}
