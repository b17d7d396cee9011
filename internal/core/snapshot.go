package core

import (
	"fmt"
	"sort"

	"sebdb/internal/auth"
	"sebdb/internal/index/layered"
	"sebdb/internal/mbtree"
	"sebdb/internal/parallel"
	"sebdb/internal/snapshot"
	"sebdb/internal/storage"
	"sebdb/internal/types"
)

// Checkpoint integration: the engine persists its derived state —
// storage metadata, catalog, contracts, table bitmaps, layered indexes
// and ALIs — as windows of an append-only log (internal/snapshot), one
// frame per checkpoint covering the blocks since the previous one, and
// seeds itself from the log on Open so only the post-checkpoint suffix
// needs replaying. The chain stays the sole source of truth: a frame
// that fails any verification ends the usable log and Open replays from
// there.

// WriteCheckpoint persists the engine's derived state at the current
// height: as one more window when the log already tiles the chain up to
// some earlier height under the current index set, as a whole-state
// frame opening a new log generation otherwise. Only collecting the
// window happens under the engine lock (shared — readers proceed);
// encoding, the append and its fsyncs run outside it. It is called
// automatically whenever a commit crosses a Config.CheckpointInterval
// boundary; operators and tests may also call it directly.
func (e *Engine) WriteCheckpoint() error {
	e.ckptSem <- struct{}{}
	defer func() { <-e.ckptSem }()
	c, err := e.cutWindow()
	if err != nil || c == nil {
		return err
	}
	return e.snapDir.Write(c)
}

// BuildCheckpoint freezes the engine's whole derived state at the
// current height — every block in one window — without persisting it.
// The checkpoint-frame digest tests and the benchmark's snapshot rows
// use it to measure and pin a whole-chain frame.
func (e *Engine) BuildCheckpoint() (*snapshot.Checkpoint, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.collectLocked(0, uint64(e.store.Count()))
}

// dueCheckpoint cuts the next log window when the commits of one
// writePipeline took the chain across a checkpoint-interval boundary,
// for the caller to hand to finishCheckpoint once commitMu is released.
// It runs once per pipeline, after the last install: a flush spanning
// several intervals yields one window, not one build per boundary. A
// non-nil result carries the checkpoint token with it. Checkpointing is
// an optimisation, so failures never fail the commit; they are counted
// and kept for CheckpointErr. Callers hold commitMu.
func (e *Engine) dueCheckpoint(before uint64) *snapshot.Checkpoint {
	iv := uint64(max(e.cfg.CheckpointInterval, 0))
	if iv == 0 || e.Height()/iv == before/iv {
		return nil
	}
	select {
	case e.ckptSem <- struct{}{}:
	default:
		// The previous window is still on its way to disk. Windows start
		// where the log's pin ends, so the next boundary's covers this
		// one's blocks as well.
		return nil
	}
	c, err := e.cutWindow()
	if c == nil {
		<-e.ckptSem
		if err != nil {
			e.noteCheckpoint(e.Height(), err)
		}
	}
	return c
}

// finishCheckpoint persists a window cut during a commit, returns the
// checkpoint token and records the outcome for CheckpointErr. Callers
// hold no lock.
func (e *Engine) finishCheckpoint(c *snapshot.Checkpoint) {
	if c == nil {
		return
	}
	err := e.snapDir.Write(c)
	<-e.ckptSem
	e.noteCheckpoint(c.Height, err)
}

func (e *Engine) noteCheckpoint(height uint64, err error) {
	if err != nil {
		e.cfg.Obs.Counter("sebdb_snapshot_write_errors_total").Inc()
		e.log.Error("checkpoint failed", "height", height, "err", err)
	} else {
		e.log.Info("checkpoint persisted", "height", height)
	}
	e.ckptErr.Store(&err)
}

// CheckpointErr returns the error of the most recent automatic
// checkpoint attempt, or nil if it succeeded (or none was attempted).
func (e *Engine) CheckpointErr() error {
	if p := e.ckptErr.Load(); p != nil {
		return *p
	}
	return nil
}

// cutWindow collects the window the log lacks: blocks [pinned height,
// current height), or the whole chain when nothing is pinned or an
// index was created since the log's generation began (one generation
// holds one index set). It returns nil when the log already pins the
// current height. Callers hold the checkpoint token, which is what
// keeps the pin — and ckptEpoch — still between this cut and its Write.
// The time under e.mu is observed as sebdb_snapshot_build_micros.
func (e *Engine) cutWindow() (*snapshot.Checkpoint, error) {
	start := e.cfg.Obs.Now()
	e.mu.RLock()
	defer func() {
		e.mu.RUnlock()
		e.cfg.Obs.Histogram("sebdb_snapshot_build_micros").Observe(e.cfg.Obs.Now() - start)
	}()
	h := uint64(e.store.Count())
	lo := e.snapDir.Height()
	if lo > h || e.idxEpoch != e.ckptEpoch {
		lo = 0
	}
	if lo == h && h > 0 {
		return nil, nil
	}
	c, err := e.collectLocked(lo, h)
	if err == nil {
		e.ckptEpoch = e.idxEpoch
	}
	return c, err
}

// collectLocked assembles the checkpoint window for blocks [lo, h): the
// per-block state of those blocks and the head as of h. Callers hold
// e.mu, so the view is consistent: every index covers exactly the
// current height. The work follows the window, not the chain — sealed
// blocks' index state never changes, so earlier frames already hold it.
func (e *Engine) collectLocked(lo, h uint64) (*snapshot.Checkpoint, error) {
	if h == 0 {
		return nil, fmt.Errorf("core: cannot checkpoint an empty chain")
	}
	m, err := e.store.MetaWindow(lo, h)
	if err != nil {
		return nil, err
	}
	c := &snapshot.Checkpoint{
		Lo:       lo,
		Height:   h,
		Anchor:   m.Headers[h-lo-1].Hash(),
		LastTid:  e.lastTid,
		LastTs:   e.lastTs,
		Store:    m,
		TableIdx: e.tableIdx.Range(int(lo), int(h)),
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
	for _, key := range sortedKeys(e.lidx) {
		idx := e.lidx[key]
		st := indexState(key, idx.Attr(), idx.Histogram(), h-lo)
		for bid := lo; bid < h; bid++ {
			st.Blocks[bid-lo] = idx.BlockEntries(bid)
		}
		c.Indexes = append(c.Indexes, st)
	}
	for _, key := range sortedKeys(e.alis) {
		ali := e.alis[key]
		st := indexState(key, ali.Attr(), ali.Histogram(), h-lo)
		for bid := lo; bid < h; bid++ {
			if st.Blocks[bid-lo], err = aliEntries(ali.BlockRecords(bid), m.Headers[bid-lo].FirstTid); err != nil {
				return nil, fmt.Errorf("core: checkpointing auth index %q, block %d: %w", key, bid, err)
			}
		}
		c.ALIs = append(c.ALIs, st)
	}
	return c, nil
}

// stateHistogram is a checkpointed index's first level: its histogram
// when continuous, nil when discrete.
func stateHistogram(st *snapshot.IndexState) *layered.Histogram {
	if !st.Continuous {
		return nil
	}
	return layered.FromBounds(st.Bounds)
}

func indexState(key, attr string, hist *layered.Histogram, blocks uint64) snapshot.IndexState {
	st := snapshot.IndexState{Key: key, Attr: attr, Continuous: hist != nil, Blocks: make([][]layered.Entry, blocks)}
	if hist != nil {
		st.Bounds = hist.Bounds()
	}
	return st
}

// aliEntries names one block's MB-tree records by key and transaction:
// the payload of a record is the transaction's encoding, which the
// block file already holds, so the checkpoint keeps only how to find it
// again — the Tid (the encoding's first field) as an offset from the
// block's FirstTid.
func aliEntries(recs []mbtree.Record, firstTid uint64) ([]layered.Entry, error) {
	if len(recs) == 0 {
		return nil, nil
	}
	out := make([]layered.Entry, len(recs))
	for i, r := range recs {
		tid, err := types.EncodedTid(r.Payload)
		if err != nil || tid < firstTid || tid-firstTid > 1<<32-1 {
			return nil, fmt.Errorf("record payload is not a transaction of the block (tid %d, first %d)", tid, firstTid)
		}
		out[i] = layered.Entry{Key: r.Key, Pos: uint32(tid - firstTid)}
	}
	return out, nil
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
// whole-state checkpoint. It runs during Open before the engine is
// shared, so no locking is needed. Any inconsistency is an error; the
// caller discards the engine and falls back to full replay.
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
	// Indexes are independent of one another, so each is rebuilt by its
	// own worker — the layered ones from their entries, the ALIs (one
	// task, sharing each block read) from the block files.
	idxs := make([]*layered.Index, len(c.Indexes))
	err := parallel.Ordered(e.Parallelism(), len(c.Indexes)+1,
		func(i int) (struct{}, error) {
			if i == len(c.Indexes) {
				return struct{}{}, e.restoreALIs(c)
			}
			st := &c.Indexes[i]
			if uint64(len(st.Blocks)) != c.Height {
				return struct{}{}, fmt.Errorf("core: checkpoint index %q covers %d of %d blocks", st.Key, len(st.Blocks), c.Height)
			}
			idxs[i] = newLayered(st.Attr, stateHistogram(st))
			for bid, entries := range st.Blocks {
				idxs[i].AppendBlock(uint64(bid), entries)
			}
			return struct{}{}, nil
		},
		func(int, struct{}) error { return nil })
	if err != nil {
		return err
	}
	for i, st := range c.Indexes {
		e.lidx = withEntry(e.lidx, st.Key, idxs[i])
	}
	if _, ok := e.lidx[".senid"]; !ok {
		return fmt.Errorf("core: checkpoint misses the system index .senid")
	}
	if _, ok := e.lidx[".tname"]; !ok {
		return fmt.Errorf("core: checkpoint misses the system index .tname")
	}
	return nil
}

// restoreALIs rebuilds the authenticated indexes. The checkpoint names
// each block's indexed transactions; their encodings — the MB-tree
// payloads — come out of the block files, read once per block by the
// worker pool while the trees are rebuilt (and every root re-derived)
// in height order on the calling goroutine.
func (e *Engine) restoreALIs(c *snapshot.Checkpoint) error {
	if len(c.ALIs) == 0 {
		return nil
	}
	alis := make([]*auth.ALI, len(c.ALIs))
	for i, st := range c.ALIs {
		if uint64(len(st.Blocks)) != c.Height {
			return fmt.Errorf("core: checkpoint auth index %q covers %d of %d blocks", st.Key, len(st.Blocks), c.Height)
		}
		alis[i] = newALI(st.Attr, stateHistogram(&st))
		e.alis = withEntry(e.alis, st.Key, alis[i])
	}
	if n := uint64(e.store.Count()); n < c.Height {
		return fmt.Errorf("core: checkpoint covers %d blocks, the store holds %d", c.Height, n)
	}
	return parallel.Ordered(e.Parallelism(), int(c.Height),
		func(bid int) ([][]mbtree.Record, error) {
			return aliRecords(e.store, c.ALIs, uint64(bid), c.Store.Headers[bid].FirstTid)
		},
		func(bid int, recs [][]mbtree.Record) error {
			for i, ali := range alis {
				ali.AppendBlock(uint64(bid), recs[i])
			}
			return nil
		})
}

// aliRecords turns block bid's checkpointed ALI entries back into
// MB-tree records, one slice per ALI, copying each payload out of the
// block body. A block no ALI indexes is not read at all.
func aliRecords(st *storage.Store, states []snapshot.IndexState, bid, firstTid uint64) ([][]mbtree.Record, error) {
	out := make([][]mbtree.Record, len(states))
	indexed := false
	for i := range states {
		indexed = indexed || len(states[i].Blocks[bid]) > 0
	}
	if !indexed {
		return out, nil
	}
	err := st.Body(bid, func(body []byte, txOffs []uint32) error {
		for i := range states {
			entries := states[i].Blocks[bid]
			if len(entries) == 0 {
				continue
			}
			spans := make([][2]uint32, len(entries))
			total := 0
			for j, en := range entries {
				pos, err := txAt(body, txOffs, firstTid+uint64(en.Pos), int(en.Pos))
				if err != nil {
					return fmt.Errorf("core: checkpoint auth index %q, block %d: %w", states[i].Key, bid, err)
				}
				spans[j] = [2]uint32{txOffs[pos], txOffs[pos+1]}
				total += int(spans[j][1] - spans[j][0])
			}
			// One allocation holds the block's payloads for this ALI; the
			// body itself is a pooled buffer and cannot be kept.
			buf := make([]byte, 0, total)
			recs := make([]mbtree.Record, len(entries))
			for j, en := range entries {
				at := len(buf)
				buf = append(buf, body[spans[j][0]:spans[j][1]]...)
				recs[j] = mbtree.Record{Key: en.Key, Payload: buf[at:len(buf):len(buf)]}
			}
			out[i] = recs
		}
		return nil
	})
	return out, err
}

// txAt finds the position of the transaction with the given Tid in an
// encoded block body. guess — the Tid's offset from the block's
// FirstTid — is right whenever the block's Tids are consecutive, as
// Validate now demands of every block; a chain written before that rule
// may hold a block whose Tids only increase, so a miss falls back to a
// binary search.
func txAt(body []byte, txOffs []uint32, tid uint64, guess int) (int, error) {
	n := len(txOffs) - 1
	tidAt := func(i int) uint64 {
		if end := int(txOffs[i+1]); end > len(body) || txOffs[i] > txOffs[i+1] {
			return 0
		}
		t, err := types.EncodedTid(body[txOffs[i]:txOffs[i+1]])
		if err != nil {
			return 0
		}
		return t
	}
	if guess < n && tidAt(guess) == tid {
		return guess, nil
	}
	if pos := sort.Search(n, func(i int) bool { return tidAt(i) >= tid }); pos < n && tidAt(pos) == tid {
		return pos, nil
	}
	return 0, fmt.Errorf("no transaction with tid %d", tid)
}
