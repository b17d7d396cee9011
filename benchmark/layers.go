package main

import (
	"bytes"
	"crypto/ed25519"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"sebdb/internal/auth"
	"sebdb/internal/cache"
	"sebdb/internal/consensus"
	"sebdb/internal/consensus/kafka"
	"sebdb/internal/consensus/pbft"
	"sebdb/internal/core"
	"sebdb/internal/exec"
	"sebdb/internal/index/layered"
	"sebdb/internal/mbtree"
	"sebdb/internal/merkle"
	"sebdb/internal/network"
	"sebdb/internal/node"
	"sebdb/internal/obs"
	"sebdb/internal/rdbms"
	"sebdb/internal/replica"
	"sebdb/internal/sqlparser"
	"sebdb/internal/storage"
	"sebdb/internal/thinclient"
	"sebdb/internal/types"
)

// The per-layer ledger. Every timed row is one closure over one layer's
// public functions, fed the inputs the workload's statements give that
// layer. The traced run (tracerun.go) and the Benchmark* functions in
// layers_test.go both drive these closures; there is no second set of
// timers.

// Row is one timed ledger row.
type Row struct {
	Name string
	Unit string // "us", "ns" or "ms": what one call is reported in
	// Prep runs untimed before each timed call (fresh inputs for calls
	// that consume them).
	Prep func()
	// Fn is the timed call; i counts calls so inputs can rotate.
	Fn func(i int)
	// Once marks rows too slow to repeat: they are timed a few times, not
	// for a time budget.
	Once bool
	// Allocs, when set, also reports allocations per call under this name.
	Allocs string
	// Scale divides the per-call time into the reported unit of work
	// (per KB, per thousand blocks); zero means per call.
	Scale float64
}

// Layers holds the inputs: the workload's engine and statements, plus
// the side structures rows need (raw stores per tier, a scratch
// leader/follower pair, a loopback node).
type Layers struct {
	w       *Workload
	scratch string
	ds      *Dataset
	oracle  *Oracle
	pool    []Stmt // the workload's own statement stream
	// byKind holds the statements of each kind a row can rotate through:
	// the workload's own where its mix has the kind, generated extras
	// where it does not. sqls are the stream's statements that travel as
	// SQL text.
	byKind [numReadKinds][]*Stmt
	sqls   []*Stmt

	eng    *core.Engine // the workload's engine, recorder off
	engRec *core.Engine // same chain and cache policy, recorder sampling every statement
	remote *node.Remote // loopback connection to a node over eng

	plain, cold *storage.Store // raw tiers over copies of the chain
	lidx        *layered.Index
	ali         *auth.ALI

	blocks  []*types.Block // a sample of decoded base-chain blocks
	encoded [][]byte
	leaves  [][]types.Hash
	txBytes [][]byte
	recs    [][]mbtree.Record

	lead, foll *core.Engine // scratch leader and follower for commit/apply/replica rows
	pending    []*types.Block
	nextIns    int

	closers []func()
}

func (l *Layers) path(name string) string { return filepath.Join(l.scratch, name) }

// engineConfig maps pinned sebdb-server flags onto core.Config, the way
// cmd/sebdb-server does.
func engineConfig(flags []string, dir string) core.Config {
	cfg := core.Config{Dir: dir, CacheMode: core.CacheTxs}
	for i, f := range flags {
		switch f {
		case "-cache":
			if flags[i+1] == "none" {
				cfg.CacheMode = core.CacheNone
			}
		case "-sync":
			cfg.Sync = true
		}
	}
	cfg.CheckpointInterval = checkpointInterval(flags)
	return cfg
}

// newLayers builds the dataset and every input structure.
func newLayers(w *Workload, seed int64, size Size, scratch string) (*Layers, error) {
	l := &Layers{w: w, scratch: scratch, ds: Generate(seed, size)}
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	// The traced chain always carries the ALI, so the authenticated rows
	// exist on every workload. It is built plain and copied; the engines'
	// copies move to the cold tier below when the workload runs there.
	if err := l.ds.Build(l.path("chain"), BuildOptions{Auth: true}); err != nil {
		return l, err
	}
	var err error
	if l.oracle, err = NewOracle(l.ds); err != nil {
		return l, err
	}
	if l.pool, err = l.oracle.Pool(w.Mix, w.PoolSize, seed); err != nil {
		return l, err
	}
	every := Mix{}
	for k := StmtKind(0); k < numReadKinds; k++ {
		every = append(every, struct {
			Kind   StmtKind
			Weight int
		}{k, 100/int(numReadKinds) + 1})
	}
	extras, err := l.oracle.Pool(every, 32*int(numReadKinds), seed+1)
	if err != nil {
		return l, err
	}
	for _, pool := range [][]Stmt{l.pool, extras} {
		var found [numReadKinds][]*Stmt
		for i := range pool {
			found[pool[i].Kind] = append(found[pool[i].Kind], &pool[i])
		}
		for k := range found {
			if l.byKind[k] == nil {
				l.byKind[k] = found[k]
			}
		}
	}
	for i := range l.pool {
		if l.pool[i].SQL != "" {
			l.sqls = append(l.sqls, &l.pool[i])
		}
	}

	for _, name := range []string{"rec", "plain", "cold", "reopen"} {
		if err := copyDir(l.path("chain"), l.path(name)); err != nil {
			return l, err
		}
	}
	if l.eng, err = core.Open(engineConfig(w.LeaderFlags, l.path("chain"))); err != nil {
		return l, err
	}
	l.closers = append(l.closers, func() { l.eng.Close() }) //sebdb:ignore-err benchmark teardown
	recCfg := engineConfig(w.LeaderFlags, l.path("rec"))
	recCfg.Recorder = obs.NewRecorder(obs.RecorderConfig{SampleEvery: 1, SlowMicros: 100_000})
	if l.engRec, err = core.Open(recCfg); err != nil {
		return l, err
	}
	l.closers = append(l.closers, func() { l.engRec.Close() }) //sebdb:ignore-err benchmark teardown
	for _, e := range []*core.Engine{l.eng, l.engRec} {
		// One traced statement at a time: sequential operators keep spans
		// nested and make the per-call attribution exact.
		e.SetParallelism(1)
		if w.Compress {
			if err := e.CompressSealed(1); err != nil {
				return l, err
			}
		}
	}
	v := l.eng.CurrentView()
	l.lidx, l.ali = v.Layered("donate", "amount"), v.AuthIndex("donate", "amount")

	srv := node.New(l.eng)
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		return l, err
	}
	l.closers = append(l.closers, func() { srv.Close() }) //sebdb:ignore-err benchmark teardown
	if l.remote, err = node.DialNode(addr); err != nil {
		return l, err
	}
	l.closers = append(l.closers, func() { l.remote.Close() }) //sebdb:ignore-err benchmark teardown

	sopts := storage.Options{SegmentSize: segmentSize}
	if l.plain, err = storage.Open(l.path("plain"), sopts); err != nil {
		return l, err
	}
	l.closers = append(l.closers, func() { l.plain.Close() }) //sebdb:ignore-err benchmark teardown
	if l.cold, err = storage.Open(l.path("cold"), sopts); err != nil {
		return l, err
	}
	l.closers = append(l.closers, func() { l.cold.Close() }) //sebdb:ignore-err benchmark teardown
	for _, seg := range l.cold.CompressTargets(1) {
		if err := l.cold.CompressSegment(seg); err != nil {
			return l, err
		}
	}

	for b := 1; b <= 16; b++ {
		blk, err := l.plain.Block(uint64(b * size.Blocks / 20))
		if err != nil {
			return l, err
		}
		l.blocks = append(l.blocks, blk)
		l.encoded = append(l.encoded, blk.EncodeBytes())
		l.leaves = append(l.leaves, types.TxLeaves(blk.Txs))
		l.txBytes = append(l.txBytes, blk.Txs[0].EncodeBytes())
		var recs []mbtree.Record
		for _, tx := range blk.Txs {
			if tx.Tname == "donate" {
				recs = append(recs, mbtree.Record{Key: tx.Args[2], Payload: tx.EncodeBytes()})
			}
		}
		l.recs = append(l.recs, recs)
	}
	return l, l.openPair()
}

// openPair starts the scratch leader (served on loopback) and the
// follower engine that commit, apply and replica rows run on.
func (l *Layers) openPair() error {
	var err error
	cfg := engineConfig(l.w.LeaderFlags, l.path("lead"))
	cfg.CacheMode = core.CacheNone
	if l.lead, err = core.Open(cfg); err != nil {
		return err
	}
	l.closers = append(l.closers, func() { l.lead.Close() }) //sebdb:ignore-err benchmark teardown
	for _, stmt := range ddl {
		if _, err := l.lead.Execute(stmt); err != nil {
			return err
		}
	}
	if err := l.lead.FlushAt(1); err != nil {
		return err
	}
	// The indexes the commit path maintains on the server: the layered
	// index and the ALI on donate.amount need rows to sample from.
	if _, err := l.lead.CommitBlock(l.freshTxs(0), 2); err != nil {
		return err
	}
	if err := l.lead.CreateIndex("donate", "amount"); err != nil {
		return err
	}
	if err := l.lead.CreateAuthIndex("donate", "amount"); err != nil {
		return err
	}
	fcfg := cfg
	fcfg.Dir = l.path("foll")
	if l.foll, err = core.Open(fcfg); err != nil {
		return err
	}
	l.closers = append(l.closers, func() { l.foll.Close() }) //sebdb:ignore-err benchmark teardown
	for h := uint64(0); h < l.lead.Height(); h++ {
		b, err := l.lead.Block(h)
		if err != nil {
			return err
		}
		if err := l.foll.ApplyBlock(b); err != nil {
			return err
		}
	}
	return nil
}

// Close releases everything newLayers opened, newest first.
func (l *Layers) Close() {
	for i := len(l.closers) - 1; i >= 0; i-- {
		l.closers[i]()
	}
	l.closers = nil
}

// freshTxs copies base-chain block b's tuples into new transactions:
// committing assigns Tids and seals, so a transaction commits once.
func (l *Layers) freshTxs(b int) []*types.Transaction {
	src := l.ds.Blocks[b%len(l.ds.Blocks)]
	out := make([]*types.Transaction, len(src))
	for i, tx := range src {
		out[i] = &types.Transaction{Ts: tx.Ts, SenID: tx.SenID, Tname: tx.Tname, Args: tx.Args}
	}
	return out
}

// stmtOf is the i-th statement of a kind (rotating).
func (l *Layers) stmtOf(kind StmtKind, i int) *Stmt {
	return l.byKind[kind][i%len(l.byKind[kind])]
}

// sqlStmt is the i-th statement of the workload's stream that travels
// as SQL text (rotating).
func (l *Layers) sqlStmt(i int) *Stmt { return l.sqls[i%len(l.sqls)] }

func amountBounds(st *Stmt) (lo, hi types.Value) {
	return types.Dec(float64(st.Lo)), types.Dec(float64(st.Hi))
}

// encodeResult is the SQL reply payload, as node's handler writes it.
func encodeResult(res *core.Result) []byte {
	e := types.NewEncoder(1024)
	e.Count(len(res.Columns))
	for _, c := range res.Columns {
		e.Str(c)
	}
	e.Count(len(res.Rows))
	for _, row := range res.Rows {
		e.Values(row)
	}
	return e.Bytes()
}

// frame writes one frame and reads it back: the framing cost of one
// direction of an exchange, without a socket.
func frame(buf *bytes.Buffer, kind uint8, payload []byte) error {
	buf.Reset()
	if err := network.WriteFrame(buf, kind, payload); err != nil {
		return err
	}
	_, _, err := network.ReadFrame(buf)
	return err
}

func must(err error) {
	if err != nil {
		panic(fmt.Sprintf("benchmark layer call failed: %v", err))
	}
}

// Rows lists every timed row. Row closures panic on an error: a layer
// call that fails here is a bug in the benchmark or the layer, and the
// traced run recovers the panic into a failed run.
func (l *Layers) Rows() []Row {
	var buf bytes.Buffer
	v := l.eng.CurrentView()
	height := v.Height()
	narrow := func(i int) *Stmt { return l.stmtOf(NarrowQ4, i) }
	authSt := func(i int) *Stmt { return l.stmtOf(AuthRange, i) }
	payloads := make([][]byte, 32)
	payloadKB := 0.0
	for i := range payloads {
		res, err := l.eng.Execute(l.sqlStmt(i).SQL)
		must(err)
		payloads[i] = encodeResult(res)
		payloadKB += float64(len(payloads[i])) / 1024 / float64(len(payloads))
	}
	kblocks := float64(height) / 1000
	var reopenOnce sync.Once
	kafkaRig, pbftRig := &consensusRig{l: l, proto: "kafka"}, &consensusRig{l: l, proto: "pbft"}
	l.closers = append(l.closers, kafkaRig.stop, pbftRig.stop)

	txCache := cache.NewSharded(2<<30, 0)
	var txKeys []string
	for b, blk := range l.blocks {
		for p, tx := range blk.Txs {
			k := fmt.Sprintf("t:%d:%d", b, p)
			txKeys = append(txKeys, k)
			txCache.Put(k, tx, int64(tx.Size()))
		}
	}
	hotTx := func(i int) (uint64, uint32) {
		b := l.blocks[i%len(l.blocks)]
		return b.Header.Height, uint32(i % blockTxs)
	}

	scratchIdx := layered.NewContinuous("amount", l.lidx.Histogram())
	scratchALI := auth.NewContinuous("amount", l.ali.Histogram(), 0)
	var entries [][]layered.Entry
	for _, recs := range l.recs {
		es := make([]layered.Entry, len(recs))
		for i, r := range recs {
			es[i] = layered.Entry{Key: r.Key, Pos: uint32(i)}
		}
		entries = append(entries, es)
	}
	trees := make([]*mbtree.Tree, len(l.recs))
	for i, recs := range l.recs {
		trees[i] = mbtree.Build(recs, 0)
	}
	voBounds := func(i int) (types.Value, types.Value) {
		recs := l.recs[i%len(l.recs)]
		lo := recs[len(recs)/2].Key
		return lo, types.Dec(lo.F + 350)
	}
	answers := make([]*auth.Answer, 16)
	for i := range answers {
		lo, hi := amountBounds(authSt(i))
		answers[i] = auth.Serve(l.ali, height, nil, lo, hi)
	}
	proofs := make([]merkle.Proof, len(l.leaves))
	roots := make([]types.Hash, len(l.leaves))
	for i, lv := range l.leaves {
		p, err := merkle.Prove(lv, 7)
		must(err)
		proofs[i], roots[i] = p, merkle.Root(lv)
	}
	key := ed25519.NewKeyFromSeed(make([]byte, ed25519.SeedSize))
	signed := l.blocks[0].Header

	appendDir := l.path("append")
	var appendStore *storage.Store
	var chainBlocks []*types.Block
	{
		var prev *types.BlockHeader
		for b := 0; b < 64; b++ {
			blk := types.NewBlock(prev, l.ds.Blocks[b%len(l.ds.Blocks)], int64(b+1), "node0")
			chainBlocks = append(chainBlocks, blk)
			prev = &blk.Header
		}
	}
	resetAppend := func() {
		if appendStore != nil {
			must(appendStore.Close())
		}
		must(os.RemoveAll(appendDir))
		var err error
		appendStore, err = storage.Open(appendDir, storage.Options{Sync: true})
		must(err)
	}
	l.closers = append(l.closers, func() {
		if appendStore != nil {
			appendStore.Close() //sebdb:ignore-err benchmark teardown
		}
	})

	insertDB := rdbms.New()
	must(insertDB.CreateTable("donate", oracleTables["donate"]))
	must(insertDB.CreateIndex("donate", "amount"))
	rowsToInsert := make([]rdbms.Row, 0, 256)
	for _, tx := range l.blocks[0].Txs {
		if tx.Tname == "donate" {
			rowsToInsert = append(rowsToInsert, txRow(tx))
		}
	}

	donorPred := func(i int) ([]sqlparser.Pred, *sqlparser.Window) {
		b0 := (i * 37) % (l.ds.Size.Blocks - 15)
		return []sqlparser.Pred{{Col: "donor", Op: sqlparser.OpEq, Val: types.Str(fmt.Sprintf("donor%05d", i%l.ds.Size.Donors))}},
			&sqlparser.Window{Start: BlockTs(b0), End: BlockTs(b0 + 14)}
	}
	amountPred := func(st *Stmt) []sqlparser.Pred {
		lo, hi := amountBounds(st)
		return []sqlparser.Pred{{Col: "amount", Op: sqlparser.OpBetween, Val: lo, Hi: hi}}
	}
	traces := make([]*sqlparser.Trace, 16)
	for i := range traces {
		st, err := sqlparser.Parse(l.stmtOf(Trace2D, i).SQL)
		must(err)
		traces[i] = st.(*sqlparser.Trace)
	}
	joinWin := func(i int) *sqlparser.Window {
		b0 := (i * 41) % (l.ds.Size.Blocks - 1)
		return &sqlparser.Window{Start: BlockTs(b0), End: BlockTs(b0 + 1)}
	}
	thin := thinclient.New(1)

	return []Row{
		{Name: "network.rtt_us", Unit: "us", Fn: func(int) { _, err := l.remote.Height(); must(err) }},
		{Name: "network.frame_us_per_kb", Unit: "us", Scale: payloadKB, Fn: func(i int) { must(frame(&buf, network.KindSQL, payloads[i%len(payloads)])) }},
		{Name: "node.decode_result_us", Unit: "us", Fn: func(i int) { _, err := node.DecodeResult(payloads[i%len(payloads)]); must(err) }},
		{Name: "node.sql_roundtrip_us", Unit: "us", Fn: func(i int) { _, err := l.remote.SQL(l.sqlStmt(i).SQL); must(err) }},

		{Name: "sqlparser.parse_us", Unit: "us", Allocs: "sqlparser.parse_allocs",
			Fn: func(i int) { _, err := sqlparser.Parse(l.sqlStmt(i).SQL); must(err) }},

		{Name: "core.execute_us", Unit: "us", Allocs: "core.execute_allocs",
			Fn: func(i int) { _, err := l.eng.Execute(l.sqlStmt(i).SQL); must(err) }},
		{Name: "core.execute_recorded_us", Unit: "us", Fn: func(i int) { _, err := l.engRec.Execute(l.sqlStmt(i).SQL); must(err) }},
		{Name: "core.execute_q4_us", Unit: "us", Fn: func(i int) { _, err := l.eng.Execute(narrow(i).SQL); must(err) }},
		{Name: "core.view_pin_ns", Unit: "ns", Fn: func(int) { _ = l.eng.CurrentView() }},
		{Name: "core.tx_hit_ns", Unit: "ns", Fn: func(i int) { b, p := hotTx(i); _, err := l.eng.Tx(b, p); must(err) }},
		{Name: "core.commit_block_us", Unit: "us", Allocs: "core.commit_block_allocs", Fn: func(i int) { l.commitOne(i) }},
		{Name: "core.apply_block_us", Unit: "us",
			Prep: func() {
				if len(l.pending) == 0 {
					l.commitOne(0)
				}
			},
			Fn: func(int) {
				b := l.pending[0]
				l.pending = l.pending[1:]
				must(l.foll.ApplyBlock(b))
			}},
		{Name: "core.open_replay_ms_per_kblock", Unit: "ms", Once: true, Scale: kblocks,
			Prep: func() { reopenOnce.Do(l.prepareReopen) }, Fn: func(int) { l.reopen(true) }},
		{Name: "core.open_checkpoint_ms", Unit: "ms", Once: true,
			Prep: func() { reopenOnce.Do(l.prepareReopen) }, Fn: func(int) { l.reopen(false) }},

		{Name: "exec.select_layered_us", Unit: "us", Fn: func(i int) {
			_, _, err := exec.Select(v, "donate", amountPred(narrow(i)), nil, exec.MethodLayered)
			must(err)
		}},
		{Name: "exec.select_bitmap_us", Unit: "us", Fn: func(i int) {
			p, w := donorPred(i)
			_, _, err := exec.Select(v, "donate", p, w, exec.MethodBitmap)
			must(err)
		}},
		{Name: "exec.select_scan_us", Unit: "us", Fn: func(i int) {
			p, w := donorPred(i)
			_, _, err := exec.Select(v, "donate", p, w, exec.MethodScan)
			must(err)
		}},
		{Name: "exec.track_us", Unit: "us", Fn: func(i int) { _, _, err := exec.Track(v, traces[i%len(traces)], exec.MethodLayered); must(err) }},
		{Name: "exec.join_us", Unit: "us", Fn: func(i int) {
			_, _, err := exec.OnChainJoin(v, "transfer", "distribute", "organization", "organization", joinWin(i), exec.MethodBitmap)
			must(err)
		}},

		{Name: "index.layered.candidate_us", Unit: "us", Fn: func(i int) { lo, hi := amountBounds(narrow(i)); _ = l.lidx.CandidateBlocks(lo, hi) }},
		{Name: "index.layered.block_range_us", Unit: "us", Fn: func(i int) {
			lo, hi := voBounds(i)
			l.lidx.BlockRange(l.blocks[i%len(l.blocks)].Header.Height, lo, hi, func(types.Value, uint32) bool { return true })
		}},
		{Name: "index.layered.append_block_us", Unit: "us", Fn: func(i int) { scratchIdx.AppendBlock(uint64(i), entries[i%len(entries)]) }},
		{Name: "index.bptree.range_us", Unit: "us", Fn: func(i int) {
			lo, hi := voBounds(i)
			l.lidx.BlockTree(l.blocks[i%len(l.blocks)].Header.Height).Range(lo, hi, func(types.Value, uint64) bool { return true })
		}},
		{Name: "index.bitmap.and_us", Unit: "us", Fn: func(int) { _ = v.BlockIdx().AllBlocks().And(v.TableBlocks("donate")) }},
		{Name: "index.blockindex.time_window_us", Unit: "us", Fn: func(i int) { w := joinWin(i); _ = v.BlockIdx().TimeWindow(w.Start, w.End) }},

		{Name: "cache.get_hit_ns", Unit: "ns", Allocs: "cache.get_allocs", Fn: func(i int) { _, _ = txCache.Get(txKeys[i%len(txKeys)]) }},
		{Name: "cache.put_ns", Unit: "ns", Fn: func(i int) {
			k := txKeys[i%len(txKeys)]
			tx := l.blocks[0].Txs[i%len(l.blocks[0].Txs)]
			txCache.Put(k, tx, 150)
		}},

		{Name: "storage.read_block_us", Unit: "us", Fn: func(i int) { _, err := l.plain.Block(l.blocks[i%len(l.blocks)].Header.Height); must(err) }},
		{Name: "storage.read_block_z_us", Unit: "us", Fn: func(i int) { _, err := l.cold.Block(l.blocks[i%len(l.blocks)].Header.Height); must(err) }},
		{Name: "storage.read_tx_us", Unit: "us", Fn: func(i int) { b, p := hotTx(i); _, err := l.plain.ReadTx(b, p); must(err) }},
		{Name: "storage.read_tx_z_us", Unit: "us", Fn: func(i int) { b, p := hotTx(i); _, err := l.cold.ReadTx(b, p); must(err) }},
		{Name: "storage.append_us", Unit: "us",
			Prep: func() {
				if appendStore == nil || appendStore.Count() == len(chainBlocks) {
					resetAppend()
				}
			},
			Fn: func(int) { _, err := appendStore.AppendNoSync(chainBlocks[appendStore.Count()]); must(err) }},
		{Name: "storage.sync_batch_us", Unit: "us",
			Prep: func() {
				if appendStore == nil || appendStore.Count() == len(chainBlocks) {
					resetAppend()
				}
				_, err := appendStore.AppendNoSync(chainBlocks[appendStore.Count()])
				must(err)
			},
			Fn: func(int) { must(appendStore.SyncBatch()) }},

		{Name: "types.block_encode_us", Unit: "us", Fn: func(i int) { _ = l.blocks[i%len(l.blocks)].EncodeBytes() }},
		{Name: "types.block_decode_us", Unit: "us", Fn: func(i int) {
			_, err := types.DecodeBlock(types.NewDecoder(l.encoded[i%len(l.encoded)]))
			must(err)
		}},
		{Name: "types.tx_decode_ns", Unit: "ns", Fn: func(i int) {
			_, err := types.DecodeTransaction(types.NewDecoder(l.txBytes[i%len(l.txBytes)]))
			must(err)
		}},
		{Name: "types.header_sign_us", Unit: "us", Fn: func(int) { signed.Sign(key) }},
		{Name: "types.header_verify_us", Unit: "us", Fn: func(int) {
			if !l.blocks[0].Header.VerifySig() {
				panic("header signature does not verify")
			}
		}},

		{Name: "merkle.tx_leaves_us", Unit: "us", Fn: func(i int) { _ = types.TxLeaves(l.blocks[i%len(l.blocks)].Txs) }},
		{Name: "merkle.root_us", Unit: "us", Fn: func(i int) { _ = merkle.Root(l.leaves[i%len(l.leaves)]) }},
		{Name: "merkle.prove_us", Unit: "us", Fn: func(i int) { _, err := merkle.Prove(l.leaves[i%len(l.leaves)], 7); must(err) }},
		{Name: "merkle.verify_ns", Unit: "ns", Fn: func(i int) {
			k := i % len(l.leaves)
			if !merkle.Verify(l.leaves[k][7], proofs[k], roots[k]) {
				panic("merkle proof does not verify")
			}
		}},

		{Name: "mbtree.build_us", Unit: "us", Fn: func(i int) { _ = mbtree.Build(l.recs[i%len(l.recs)], 0) }},
		{Name: "mbtree.range_vo_us", Unit: "us", Fn: func(i int) { lo, hi := voBounds(i); _ = trees[i%len(trees)].RangeVO(lo, hi) }},
		{Name: "mbtree.verify_us", Unit: "us",
			Fn: func(i int) {
				lo, hi := voBounds(i)
				t := trees[i%len(trees)]
				_, err := mbtree.Verify(t.RangeVO(lo, hi), t.Root(), lo, hi)
				must(err)
			}},

		{Name: "auth.serve_us", Unit: "us", Fn: func(i int) { lo, hi := amountBounds(authSt(i)); _ = auth.Serve(l.ali, height, nil, lo, hi) }},
		{Name: "auth.digest_us", Unit: "us", Fn: func(i int) { lo, hi := amountBounds(authSt(i)); _ = auth.Digest(l.ali, height, nil, lo, hi) }},
		{Name: "auth.verify_answer_us", Unit: "us", Fn: func(i int) {
			lo, hi := amountBounds(authSt(i % len(answers)))
			_, _, err := auth.VerifyAnswer(answers[i%len(answers)], lo, hi)
			must(err)
		}},
		{Name: "auth.append_block_us", Unit: "us", Fn: func(i int) { scratchALI.AppendBlock(uint64(i), l.recs[i%len(l.recs)]) }},

		{Name: "thinclient.auth_query_us", Unit: "us", Fn: func(i int) {
			lo, hi := amountBounds(authSt(i))
			req := &node.AuthRequest{Table: "donate", Col: "amount", Lo: lo, Hi: hi}
			_, _, err := thin.AuthQuery(l.remote, []node.QueryNode{l.remote}, req, thinclient.Options{})
			must(err)
		}},
		{Name: "thinclient.sync_headers_us_per_kblock", Unit: "us", Once: true, Scale: kblocks, Fn: func(int) {
			must(thinclient.New(1).SyncHeaders(l.remote))
		}},

		{Name: "snapshot.encode_ms", Unit: "ms", Once: true, Fn: func(int) {
			ck, err := l.eng.BuildCheckpoint()
			must(err)
			_ = ck.Encode()
		}},
		{Name: "snapshot.write_ms", Unit: "ms", Once: true, Fn: func(int) { must(l.eng.WriteCheckpoint()) }},

		{Name: "consensus.kafka.round_us", Unit: "us", Once: true, Prep: kafkaRig.start, Fn: kafkaRig.round},
		{Name: "consensus.pbft.round_us", Unit: "us", Once: true, Prep: pbftRig.start, Fn: pbftRig.round},

		{Name: "rdbms.select_range_us", Unit: "us", Fn: func(i int) {
			lo, hi := amountBounds(narrow(i))
			_, err := l.oracle.db.SelectRange("donate", "amount", lo, hi)
			must(err)
		}},
		{Name: "rdbms.insert_us", Unit: "us", Fn: func(i int) { must(insertDB.Insert("donate", rowsToInsert[i%len(rowsToInsert)])) }},
	}
}

// commitOne commits one 200-tuple block on the scratch leader and queues
// it for the follower.
func (l *Layers) commitOne(i int) {
	l.nextIns++
	b, err := l.lead.CommitBlock(l.freshTxs(l.nextIns), 0)
	must(err)
	l.pending = append(l.pending, b)
}

// reopen times core.Open on a copy of the chain: by full replay, or from
// the checkpoint prepareReopen left there.
func (l *Layers) reopen(replay bool) {
	cfg := engineConfig(l.w.LeaderFlags, l.path("reopen"))
	cfg.DisableCheckpointLoad = replay
	e, err := core.Open(cfg)
	must(err)
	must(e.Close())
}

// prepareReopen leaves a checkpoint in the "reopen" copy, so reopen can
// time both recovery routes.
func (l *Layers) prepareReopen() {
	e, err := core.Open(engineConfig(l.w.LeaderFlags, l.path("reopen")))
	must(err)
	if l.w.Compress {
		must(e.CompressSealed(1))
	}
	must(e.WriteCheckpoint())
	must(e.Close())
}

// consensusRig is one ordering plug-in over four fresh engines, the
// paper's four-server write set-up in one process.
type consensusRig struct {
	l       *Layers
	proto   string
	cons    consensus.Consensus
	engines []*core.Engine
}

func (r *consensusRig) start() {
	if r.cons != nil {
		return
	}
	committers := make([]consensus.Committer, 4)
	for i := range committers {
		e, err := core.Open(core.Config{Dir: r.l.path(fmt.Sprintf("%s-%d", r.proto, i)), CacheMode: core.CacheNone})
		must(err)
		for _, stmt := range ddl {
			_, err := e.Execute(stmt)
			must(err)
		}
		must(e.FlushAt(1))
		r.engines = append(r.engines, e)
		committers[i] = e
	}
	if r.proto == "kafka" {
		b := kafka.New(kafka.Options{BatchSize: blockTxs})
		for _, c := range committers {
			b.Subscribe(c)
		}
		r.cons = b
	} else {
		// PBFT proposes only on its batch ticker, full batch or not (the
		// 200 ms artefact behind Fig. 7's flat latency); a 1 ms tick keeps
		// the wait out of the round.
		cl, err := pbft.New(pbft.Options{F: 1, BatchSize: blockTxs, BatchTimeout: time.Millisecond}, committers)
		must(err)
		r.cons = cl
	}
	must(r.cons.Start())
}

// round orders one full 200-transaction batch and waits until every
// engine has committed it. The batch fills at once, so the plug-in's
// 200 ms batch timeout never fires.
func (r *consensusRig) round(i int) {
	txs := r.l.freshTxs(i)
	errs := make([]error, len(txs))
	var wg sync.WaitGroup
	for k, tx := range txs {
		wg.Add(1)
		go func(k int, tx *types.Transaction) {
			defer wg.Done()
			errs[k] = r.cons.Submit(tx)
		}(k, tx)
	}
	wg.Wait()
	for _, err := range errs {
		must(err)
	}
}

func (r *consensusRig) stop() {
	if r.cons == nil {
		return
	}
	r.cons.Stop() //sebdb:ignore-err benchmark teardown
	for _, e := range r.engines {
		e.Close() //sebdb:ignore-err benchmark teardown
	}
	r.cons = nil
}

// replicaVisibility commits n blocks on the scratch leader while a
// follower tails it over loopback, and reports how long each block took
// to become readable on the follower and the largest lag seen.
func (l *Layers) replicaVisibility(n int) (visibleMS []float64, lagMax int, err error) {
	srv := node.New(l.lead)
	addr, err := srv.Serve("127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	defer srv.Close() //sebdb:ignore-err benchmark teardown
	l.foll.SetFollower(true)
	f := replica.StartFollower(l.foll, replica.FollowerConfig{Leader: addr})
	defer func() {
		f.Stop()
		l.foll.SetFollower(false)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for l.foll.Height() < l.lead.Height() {
		if time.Now().After(deadline) {
			return nil, 0, fmt.Errorf("follower never caught up")
		}
		time.Sleep(time.Millisecond)
	}
	l.pending = nil
	for i := 0; i < n; i++ {
		l.commitOne(i)
		t0 := time.Now()
		want := l.lead.Height()
		if lag := int(want - l.foll.Height()); lag > lagMax {
			lagMax = lag
		}
		for l.foll.Height() < want {
			if time.Now().After(deadline) {
				return nil, 0, fmt.Errorf("follower stopped applying")
			}
			time.Sleep(50 * time.Microsecond)
		}
		visibleMS = append(visibleMS, float64(time.Since(t0))/float64(time.Millisecond))
	}
	l.pending = nil
	return visibleMS, lagMax, nil
}
