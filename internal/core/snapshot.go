package core

import (
	"fmt"
	"slices"
	"sort"

	"sebdb/internal/auth"
	"sebdb/internal/contract"
	"sebdb/internal/index/layered"
	"sebdb/internal/mbtree"
	"sebdb/internal/parallel"
	"sebdb/internal/schema"
	"sebdb/internal/snapshot"
	"sebdb/internal/types"
)

// Checkpoint integration: the engine persists its derived state —
// layered indexes and ALIs — as windows of an
// append-only log (internal/snapshot), one frame per checkpoint
// covering the blocks since the previous one, and seeds itself from the
// log on Open so only the post-checkpoint suffix needs replaying.
// Definitions are not derived state: restore resolves them from their
// chain records, as replay does; nor is the block store's layout, which
// the store rebuilds by its own scan. The chain stays the sole
// source of truth: a frame that fails any verification ends the usable
// log and Open replays from there.

// WriteCheckpoint persists the engine's derived state at the current
// height: as one more window when the log already tiles the chain up to
// some earlier height under the current index set, as a whole-state
// frame opening a new log generation otherwise. Only cutting the window
// happens under the writer lock; encoding, the append and its fsyncs
// run outside it. It is called automatically whenever a commit crosses
// a Config.CheckpointInterval boundary; operators and tests may also
// call it directly.
func (e *Engine) WriteCheckpoint() error {
	e.ckptSem <- struct{}{}
	defer func() { <-e.ckptSem }()
	e.mu.Lock()
	c, err := e.cutWindow()
	e.mu.Unlock()
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
// for the caller to hand to finishCheckpoint once e.mu is released.
// It runs once per pipeline, after the last install: a flush spanning
// several intervals yields one window, not one build per boundary. A
// non-nil result carries the checkpoint token with it. Checkpointing is
// an optimisation, so failures never fail the commit; they are counted
// and kept for CheckpointErr. Callers hold e.mu.
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
// current height. Callers hold e.mu and the checkpoint token, which is
// what keeps the pin still between this cut and its Write. The cut's
// time is observed as sebdb_snapshot_build_micros.
func (e *Engine) cutWindow() (*snapshot.Checkpoint, error) {
	start := e.cfg.Obs.Now()
	defer func() {
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
	headers, _ := e.store.Prefix()
	if h == 0 || h > uint64(len(headers)) {
		return nil, fmt.Errorf("core: cannot checkpoint %d blocks of a %d-block chain", h, len(headers))
	}
	c := &snapshot.Checkpoint{
		Lo:      lo,
		Height:  h,
		Anchor:  headers[h-1].Hash(),
		LastTid: e.lastTid,
		LastTs:  e.lastTs,
	}
	if lo > 0 {
		c.Prev = headers[lo-1].Hash()
	}
	for _, key := range sortedKeys(e.lidx) {
		idx := e.lidx[key]
		st := snapshot.IndexState{Key: key, Blocks: make([][]layered.Entry, h-lo)}
		for bid := lo; bid < h; bid++ {
			st.Blocks[bid-lo] = idx.BlockEntries(bid)
		}
		c.Indexes = append(c.Indexes, st)
	}
	// An ALI's entries name each indexed transaction by key and by its
	// position in the block: the payload a record carries is the
	// transaction's encoding, which the block file already holds. The run
	// lists them by key, then position — the order of the block's
	// MB-tree, whose ties fall to the payload and so to its leading Tid,
	// which rises with the position.
	for _, key := range sortedKeys(e.alis) {
		ali := e.alis[key]
		st := snapshot.IndexState{Key: key, Blocks: make([][]layered.Entry, h-lo)}
		for bid := lo; bid < h; bid++ {
			st.Blocks[bid-lo] = ali.BlockEntries(bid)
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
// whole-state checkpoint. It runs during Open before the engine is
// shared, so no locking is needed. Any inconsistency is an error; the
// caller discards the engine and falls back to full replay.
func (e *Engine) restoreCheckpoint(c *snapshot.Checkpoint) error {
	// Every definition is the chain's, resolved as replay resolves it from
	// the few blocks below the checkpoint that carry _schema, _contract or
	// _index records (defBlocks). The checkpoint must hold exactly the
	// indexes they define, beside the built-in ones the fresh engine
	// holds.
	defs := e.defs
	for _, bid := range defBlocks(c) {
		b, err := e.store.Block(bid)
		if err == nil {
			defs, err = defs.resolve(b.Txs)
		}
		if err != nil {
			return fmt.Errorf("core: checkpoint definitions: %w", err)
		}
	}
	want := sortedKeys(defs.indexes)
	for key := range e.lidx {
		want = append(want, indexID(familyLayered, key))
	}
	var held []string
	for _, st := range c.Indexes {
		held = append(held, indexID(familyLayered, st.Key))
	}
	for _, st := range c.ALIs {
		held = append(held, indexID(familyAuth, st.Key))
	}
	slices.Sort(want)
	slices.Sort(held)
	if !slices.Equal(held, want) {
		return fmt.Errorf("core: the checkpoint's indexes are not the ones the chain defines")
	}
	e.installDefs(defs, nil)
	e.lastTid = c.LastTid
	e.lastTs = c.LastTs
	// Indexes are independent of one another, so each is rebuilt by its
	// own worker from its entries: the layered indexes' runs, and the
	// ALIs' runs of (key, position), whose MB-trees are built from the
	// block files when a query first needs them — restore reads no body.
	states := append(slices.Clone(c.Indexes), c.ALIs...)
	idxs := make([]*layered.Index, len(c.Indexes))
	alis := make([]*auth.ALI, len(c.ALIs))
	err := parallel.Ordered(e.Parallelism(), len(states),
		func(i int) (struct{}, error) {
			st := &states[i]
			if uint64(len(st.Blocks)) != c.Height {
				return struct{}{}, fmt.Errorf("core: checkpoint index %q covers %d of %d blocks", st.Key, len(st.Blocks), c.Height)
			}
			col := splitKey(st.Key).col
			var appendRun func(uint64, *layered.Run)
			if i < len(idxs) {
				idxs[i] = newLayered(col, defs.indexes[indexID(familyLayered, st.Key)].histogram())
				appendRun = idxs[i].AppendRun
			} else {
				ali := e.newALI(col, defs.indexes[indexID(familyAuth, st.Key)].histogram())
				alis[i-len(idxs)], appendRun = ali, ali.AppendRun
			}
			for bid, entries := range st.Blocks {
				appendRun(uint64(bid), layered.BuildRun(entries))
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
	for i, st := range c.ALIs {
		e.alis = withEntry(e.alis, st.Key, alis[i])
	}
	return nil
}

// defBlocks returns the blocks below the whole-state checkpoint c that
// carry a _schema, _contract or _index record: the blocks whose entries
// in the built-in Tname index name one of those tables. A block's
// entries are in key order, so each name is a bisection.
func defBlocks(c *snapshot.Checkpoint) []uint64 {
	i := slices.IndexFunc(c.Indexes, func(st snapshot.IndexState) bool { return st.Key == ".tname" })
	if i < 0 {
		return nil
	}
	byKey := func(en layered.Entry, k types.Value) int { return types.Compare(en.Key, k) }
	var out []uint64
	for bid, entries := range c.Indexes[i].Blocks {
		for _, name := range []string{schema.MetaTable, contract.MetaTable, indexTable} {
			if _, ok := slices.BinarySearchFunc(entries, types.Str(name), byKey); ok {
				out = append(out, uint64(bid))
				break
			}
		}
	}
	return out
}

// aliRecords is every ALI's Source: it reads block bid's body once and
// turns the entries of the block's run back into MB-tree records,
// copying each payload — the encoding of the transaction at the
// entry's position — out of the body.
func (e *Engine) aliRecords(bid uint64, entries []layered.Entry) ([]mbtree.Record, error) {
	var recs []mbtree.Record
	err := e.store.Body(bid, func(body []byte, txOffs []uint32) error {
		total := 0
		for _, en := range entries {
			if int(en.Pos) >= len(txOffs)-1 {
				return fmt.Errorf("no transaction at position %d of %d", en.Pos, len(txOffs)-1)
			}
			total += int(txOffs[en.Pos+1] - txOffs[en.Pos])
		}
		// One allocation holds the block's payloads; the body itself is a
		// pooled buffer and cannot be kept.
		buf := make([]byte, 0, total)
		recs = make([]mbtree.Record, len(entries))
		for j, en := range entries {
			at := len(buf)
			buf = append(buf, body[txOffs[en.Pos]:txOffs[en.Pos+1]]...)
			recs[j] = mbtree.Record{Key: en.Key, Payload: buf[at:len(buf):len(buf)]}
		}
		return nil
	})
	return recs, err
}
