package main

import (
	"bytes"
	"crypto/ed25519"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"sebdb/internal/auth"
	"sebdb/internal/core"
	"sebdb/internal/exec"
	"sebdb/internal/index/layered"
	"sebdb/internal/mbtree"
	"sebdb/internal/merkle"
	"sebdb/internal/network"
	"sebdb/internal/node"
	"sebdb/internal/obs"
	"sebdb/internal/plan"
	"sebdb/internal/schema"
	"sebdb/internal/sqlparser"
	"sebdb/internal/storage"
	"sebdb/internal/types"
)

// The traced run: shorter than the end-to-end run, in one process, and
// separate from it (end-to-end numbers are taken with tracing off). It
// times every ledger row of layers.go, then replays the workload's
// statement stream through the same layer calls one statement at a
// time, each call inside a span, so that every layer gets a self time
// per operation and the counts that go with it.

// runTraced produces the per-layer metrics of one workload.
func runTraced(w *Workload, seed int64, seconds float64, size Size, scratch, outDir string) (res *Result, err error) {
	res = &Result{Workload: w.Name, Metrics: map[string]Metric{}, Diagnostics: map[string]Metric{}}
	defer os.RemoveAll(scratch) //sebdb:ignore-err scratch cleanup
	l, err := newLayers(w, seed, size, scratch)
	if l != nil {
		defer l.Close()
	}
	if err != nil {
		return nil, err
	}
	// Layer closures panic on an error they cannot explain; that is a
	// failed run, not a crashed benchmark.
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, fmt.Errorf("traced run: %v", p)
		}
	}()

	budget := time.Duration(seconds * 0.005 * float64(time.Second))
	for _, row := range l.Rows() {
		sample := timeRow(row, budget)
		res.Metrics[row.Name] = timed(sample, row.Unit)
		res.Attempted += len(sample)
		if row.Allocs != "" {
			res.Metrics[row.Allocs] = Metric{Value: allocsPerCall(row, 50), Unit: "count", N: 50}
		}
	}
	ratio := func(name, unit string, num, den float64) {
		res.Metrics[name] = Metric{Value: num / den, Unit: unit}
	}
	val := func(name string) float64 { return res.Metrics[name].Value }
	ratio("rdbms.chain_overhead_x", "ratio", val("core.execute_q4_us"), val("rdbms.select_range_us"))
	ratio("obs.recorder_overhead_pct", "%", 100*(val("core.execute_recorded_us")-val("core.execute_us")), val("core.execute_us"))

	plainBytes, err := l.plain.DiskBytes()
	if err != nil {
		return nil, err
	}
	coldBytes, err := l.cold.DiskBytes()
	if err != nil {
		return nil, err
	}
	ratio("storage.bytes_per_tx", "B", float64(plainBytes), float64(size.Blocks*size.TxPerBlock))
	ratio("storage.compress_ratio", "ratio", float64(plainBytes), float64(coldBytes))
	ck, err := l.eng.BuildCheckpoint()
	if err != nil {
		return nil, err
	}
	res.Metrics["snapshot.bytes"] = Metric{Value: float64(len(ck.Encode())), Unit: "B"}

	visible, lagMax, err := l.replicaVisibility(20)
	if err != nil {
		return nil, err
	}
	res.Metrics["replica.visible_p50_ms"] = timed(visible, "ms")
	res.Metrics["replica.lag_blocks_max"] = Metric{Value: float64(lagMax), Unit: "count", N: len(visible)}

	if err := l.replay(res, time.Duration(seconds*0.15*float64(time.Second)), filepath.Join(outDir, "trace-"+w.Name+".json")); err != nil {
		return nil, err
	}

	// Generator lateness at the workload's offered load, against the
	// in-process node over loopback.
	var targets []*Target
	for i := 0; i < w.Conns; i++ {
		r, err := node.DialNode(l.remote.ID())
		if err != nil {
			return nil, err
		}
		defer r.Close() //sebdb:ignore-err benchmark teardown
		targets = append(targets, &Target{SQL: r.SQL})
	}
	stream := &Stream{pool: make([]Stmt, len(l.sqls))}
	for i, st := range l.sqls {
		stream.pool[i] = *st
	}
	open := runOpen(targets, stream, Schedule(w.RateOpsS, time.Duration(seconds*0.1*float64(time.Second)), seed), nil)
	late, _ := Percentile(sortedCopy(open.LateMS), 0.99)
	res.Metrics["gen.late_ms_p99"] = Metric{Value: late, Unit: "ms", N: len(open.LateMS)}
	res.Attempted += open.Attempted
	if open.Failed > 0 {
		res.fail(open.Failed, "open loop against the in-process node: %v", open.FirstErr)
	}
	return res, nil
}

// timeRow times a row's closure call by call for the budget (a few
// calls only for Once rows) and returns per-call times in the row's
// unit. Nanosecond rows are timed in batches of 100 calls, because one
// call is shorter than reading the clock twice.
func timeRow(r Row, budget time.Duration) []float64 {
	batch := 1
	if r.Unit == "ns" {
		batch = 100
	}
	div := map[string]float64{"ns": 1, "us": 1e3, "ms": 1e6}[r.Unit]
	if r.Scale > 0 {
		div *= r.Scale
	}
	i := 0
	call := func() time.Duration {
		if r.Prep != nil {
			r.Prep()
		}
		t0 := time.Now()
		for k := 0; k < batch; k++ {
			r.Fn(i)
			i++
		}
		return time.Since(t0)
	}
	if !r.Once {
		call() // first call pays lazy set-up and cold caches
	}
	var sample []float64
	deadline := time.Now().Add(budget)
	for len(sample) < 5 || time.Now().Before(deadline) {
		sample = append(sample, float64(call())/float64(batch)/div)
		if r.Once && len(sample) >= 3 {
			break
		}
	}
	return sample
}

// allocsPerCall is testing.AllocsPerRun for a row: mallocs per call over
// n calls on a quiet heap.
func allocsPerCall(r Row, n int) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		r.Fn(i)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// tracedChain is the view the operators read through during the replay.
// A read is named after the fact: the storage layer's own read counter
// tells a cache hit from a segment read.
type tracedChain struct {
	*core.View
	tr              *Tracer
	txReads, bReads *obs.Counter
}

// Parallelism pins the operators to one worker so spans nest.
func (c *tracedChain) Parallelism() int { return 1 }

func (c *tracedChain) Tx(bid uint64, pos uint32) (tx *types.Transaction, err error) {
	c.tr.DoLate(func() string {
		before := c.txReads.Value()
		tx, err = c.View.Tx(bid, pos)
		if c.txReads.Value() != before {
			return "storage.read_tx"
		}
		return "cache.get_hit"
	})
	return tx, err
}

func (c *tracedChain) Block(bid uint64) (b *types.Block, err error) {
	c.tr.DoLate(func() string {
		before := c.bReads.Value()
		b, err = c.View.Block(bid)
		if c.bReads.Value() != before {
			return "storage.read_block"
		}
		return "cache.get_hit"
	})
	return b, err
}

// spanGroup maps a span name to the layer whose self time it is.
func spanGroup(name string) string {
	switch {
	case name == "stmt":
		return "glue"
	case name == "plan":
		return "plan"
	case strings.HasPrefix(name, "types.") || strings.HasPrefix(name, "merkle."):
		return "hashsign"
	}
	return name[:strings.IndexByte(name, '.')]
}

// engineSide lists the span groups that are work Engine.Execute does;
// the rest (wire framing, result codec, client verification) happens
// around it.
var engineSide = map[string]bool{"sqlparser": true, "core": true, "plan": true, "exec": true,
	"cache": true, "storage": true, "index": true}

var traceGroups = []string{"network", "node", "sqlparser", "plan", "core", "exec", "index", "cache", "storage", "hashsign", "auth", "glue"}

// replayCounts are the per-operation counts the replay collects at the
// layer boundaries.
type replayCounts struct {
	ops, sqlOps, selects, layeredSelects int
	selectRows                           int
	stats                                exec.Stats
	selectExamined                       int
	wireBytes, voBytes, voRows           int
	inserts                              int
}

// replayer carries what one replay pass needs.
type replayer struct {
	l     *Layers
	tr    *Tracer
	chain *tracedChain
	buf   bytes.Buffer
	n     replayCounts
	sh    *shadowCommit
}

// replay runs the statement stream through the layer calls for d with
// spans on, again with spans off, and through Engine.Execute, and turns
// the three into the attribution and count metrics.
func (l *Layers) replay(res *Result, d time.Duration, tracePath string) error {
	// Warm the engine's cache the way the end-to-end run's warm-up does.
	for _, st := range l.sqls {
		if _, err := l.eng.Execute(st.SQL); err != nil {
			return err
		}
	}
	// INSERTs are interleaved in the proportion the open loop offers them.
	insertsPerRead := int(l.w.WriterRate/l.w.RateOpsS + 0.5)
	cache0 := l.eng.CacheStats()
	txReads := obs.Default.Counter(`sebdb_storage_segment_reads_total{kind="tx"}`)
	bReads := obs.Default.Counter(`sebdb_storage_segment_reads_total{kind="block"}`)
	reads0 := txReads.Value() + bReads.Value()

	pass := func(tr *Tracer, limit int) (*replayer, time.Duration, error) {
		sh, err := newShadowCommit(l, tr)
		if err != nil {
			return nil, 0, err
		}
		defer sh.close()
		r := &replayer{l: l, tr: tr, sh: sh}
		r.chain = &tracedChain{View: l.eng.CurrentView(), tr: tr, txReads: txReads, bReads: bReads}
		start := time.Now()
		for i := 0; (limit == 0 && time.Since(start) < d) || i < limit; i++ {
			st := &l.pool[i%len(l.pool)]
			got, err := r.read(st)
			if err != nil {
				return nil, 0, err
			}
			res.Attempted++
			if got != st.Want {
				res.fail(1, "replayed %s gave %d rows, want %d", st.Kind, got.Rows, st.Want.Rows)
			}
			for k := 0; k < insertsPerRead; k++ {
				if err := r.insert(InsertSQL(l.ds.Seed, r.n.inserts)); err != nil {
					return nil, 0, err
				}
			}
		}
		return r, time.Since(start), nil
	}
	tr := newTracer()
	traced, tracedTook, err := pass(tr, 0)
	if err != nil {
		return err
	}
	reads := txReads.Value() + bReads.Value() - reads0
	cache1 := l.eng.CacheStats()
	_, plainTook, err := pass(nil, traced.n.ops)
	if err != nil {
		return err
	}
	// The same SQL statements through the engine's own entry point.
	var executeUS float64
	for i := 0; i < traced.n.ops; i++ {
		if st := &l.pool[i%len(l.pool)]; st.SQL != "" {
			t0 := time.Now()
			if _, err := l.eng.Execute(st.SQL); err != nil {
				return err
			}
			executeUS += float64(time.Since(t0)) / 1e3
		}
	}

	n := traced.n
	ops := float64(n.ops + n.inserts)
	groups := map[string]float64{}
	var engineUS float64
	for name := range tr.self {
		g := spanGroup(name)
		groups[g] += tr.SelfMicros(name)
		// Inserts run no engine-side read work; what they add to these
		// groups (parse, new_tx) is small beside the reads and is left in.
		if engineSide[g] {
			engineUS += tr.SelfMicros(name)
		}
	}
	for _, g := range traceGroups {
		res.Metrics["trace.self_us_per_op."+g] = Metric{Value: groups[g] / ops, Unit: "us", N: int(ops)}
	}
	per := func(name, unit string, num float64, den int) {
		v := 0.0
		if den > 0 {
			v = num / float64(den)
		}
		res.Metrics[name] = Metric{Value: v, Unit: unit, N: den}
	}
	// Engine-side spans and Engine.Execute cover the same statements
	// only when the stream is SQL reads alone; with inserts or thin-client
	// reads in it the two rows are reported as zero.
	sameWork := n.sqlOps == n.ops && insertsPerRead == 0
	unattributed, coverage := 0.0, 0.0
	if sameWork {
		unattributed = max(0, executeUS-engineUS) / float64(n.sqlOps)
		coverage = 100 * engineUS / executeUS
	}
	res.Metrics["core.unattributed_us"] = Metric{Value: unattributed, Unit: "us", N: n.sqlOps}
	res.Metrics["trace.coverage_pct"] = Metric{Value: coverage, Unit: "%", N: n.sqlOps}
	res.Metrics["trace.overhead_pct"] = Metric{Value: 100 * (tracedTook - plainTook).Seconds() / plainTook.Seconds(), Unit: "%", N: n.ops}
	per("network.bytes_per_op", "B", float64(n.wireBytes), n.ops)
	per("plan.rows_examined_per_row", "ratio", float64(n.selectExamined), n.selectRows)
	per("plan.layered_choice_ratio", "ratio", float64(n.layeredSelects), n.selects)
	per("exec.blocks_read_per_op", "count", float64(n.stats.BlocksRead), n.sqlOps)
	per("exec.txs_examined_per_op", "count", float64(n.stats.TxsExamined), n.sqlOps)
	per("exec.index_probes_per_op", "count", float64(n.stats.IndexProbes), n.sqlOps)
	per("storage.reads_per_op", "count", float64(reads), n.ops)
	if n.voRows == 0 {
		// No verified reads in this workload's stream: price the VO on the
		// generated authenticated ranges instead.
		height := l.eng.CurrentView().Height()
		for _, st := range l.byKind[AuthRange] {
			lo, hi := amountBounds(st)
			n.voBytes += auth.Serve(l.ali, height, nil, lo, hi).Size()
			n.voRows += st.Want.Rows
		}
	}
	per("auth.vo_bytes_per_row", "B", float64(n.voBytes), n.voRows)
	hits, misses := cache1.Hits-cache0.Hits, cache1.Misses-cache0.Misses
	per("cache.hit_ratio", "ratio", float64(hits), int(hits+misses))
	res.Metrics["cache.evictions"] = Metric{Value: float64(cache1.Evictions - cache0.Evictions), Unit: "count"}
	return tr.Write(tracePath)
}

// read replays one generated read.
func (r *replayer) read(st *Stmt) (Answer, error) {
	r.tr.NextStmt()
	r.n.ops++
	var got Answer
	var err error
	r.tr.Do("stmt", func() {
		if st.Kind == AuthRange {
			got, err = r.authRange(st)
		} else {
			got, err = r.sql(st)
		}
	})
	return got, err
}

// sql is the path of one SQL read: request frame, parse, view pin, plan,
// operator over the traced chain, projection, reply codec and frame.
func (r *replayer) sql(st *Stmt) (Answer, error) {
	tr := r.tr
	r.n.sqlOps++
	var err error
	tr.Do("network.frame", func() { err = frame(&r.buf, network.KindSQL, []byte(st.SQL)) })
	if err != nil {
		return Answer{}, err
	}
	var ast sqlparser.Statement
	tr.Do("sqlparser.parse", func() { ast, err = sqlparser.Parse(st.SQL) })
	if err != nil {
		return Answer{}, err
	}
	v := r.chain.View
	tr.Do("core.view_pin", func() { _ = r.l.eng.CurrentView() })
	res := &core.Result{}
	var stats exec.Stats
	switch s := ast.(type) {
	case *sqlparser.Select:
		var tbl *schema.Table
		if tbl, err = v.Table(s.Table.Name); err != nil {
			return Answer{}, err
		}
		var method exec.Method
		tr.Do("plan", func() { method = planSelect(v, tbl.Name, s.Where) })
		var txs []*types.Transaction
		tr.Do("exec.select_"+method.String(), func() {
			txs, stats, err = exec.Select(r.chain, tbl.Name, s.Where, s.Window, method)
		})
		tr.Do("core.project", func() { project(res, tbl, "", txs) })
		r.n.selects++
		if method == exec.MethodLayered {
			r.n.layeredSelects++
		}
		r.n.selectRows += len(txs)
		r.n.selectExamined += stats.TxsExamined
	case *sqlparser.Trace:
		var txs []*types.Transaction
		tr.Do("exec.track", func() { txs, stats, err = exec.Track(r.chain, s, exec.MethodLayered) })
		tr.Do("core.project", func() {
			res.Columns = types.SystemColumns
			for _, tx := range txs {
				res.Rows = append(res.Rows, txRow(tx)[:4])
			}
		})
	case *sqlparser.Join:
		var rows []exec.JoinRow
		tr.Do("exec.join", func() {
			rows, stats, err = exec.OnChainJoin(r.chain, s.Left.Name, s.Right.Name, s.LeftCol, s.RightCol, s.Window, exec.MethodBitmap)
		})
		if err != nil {
			return Answer{}, err
		}
		lt, lerr := v.Table(s.Left.Name)
		rt, rerr := v.Table(s.Right.Name)
		if lerr != nil || rerr != nil {
			return Answer{}, fmt.Errorf("join tables: %v %v", lerr, rerr)
		}
		tr.Do("core.project", func() {
			for _, jr := range rows {
				one := &core.Result{}
				project(one, lt, lt.Name+".", []*types.Transaction{jr.Left})
				project(one, rt, rt.Name+".", []*types.Transaction{jr.Right})
				res.Columns = one.Columns
				res.Rows = append(res.Rows, append(one.Rows[0], one.Rows[1]...))
			}
		})
	case *sqlparser.GetBlock:
		var b *types.Block
		tr.Do("index.blockindex", func() {
			if !v.BlockIdx().ByBlockID(uint64(s.Val)) {
				err = fmt.Errorf("no block %d", s.Val)
			}
		})
		if err == nil {
			b, err = r.chain.Block(uint64(s.Val))
		}
		if err != nil {
			return Answer{}, err
		}
		tr.Do("core.project", func() {
			h := b.Header
			hash := h.Hash()
			res.Columns = []string{"height", "timestamp", "txcount", "firsttid", "hash", "prevhash", "signer"}
			res.Rows = [][]types.Value{{
				types.Int(int64(h.Height)), types.Time(h.Timestamp), types.Int(int64(h.TxCount)),
				types.Int(int64(h.FirstTid)), types.Str(fmt.Sprintf("%x", hash[:8])),
				types.Str(fmt.Sprintf("%x", h.PrevHash[:8])), types.Str(h.Signer),
			}}
		})
	default:
		return Answer{}, fmt.Errorf("replay: unexpected statement %T", ast)
	}
	if err != nil {
		return Answer{}, err
	}
	r.n.stats.BlocksRead += stats.BlocksRead
	r.n.stats.TxsExamined += stats.TxsExamined
	r.n.stats.IndexProbes += stats.IndexProbes

	var payload []byte
	tr.Do("node.encode_result", func() { payload = encodeResult(res) })
	tr.Do("network.frame", func() { err = frame(&r.buf, network.KindSQL, payload) })
	if err != nil {
		return Answer{}, err
	}
	var back *core.Result
	tr.Do("node.decode_result", func() { back, err = node.DecodeResult(payload) })
	if err != nil {
		return Answer{}, err
	}
	const frameHeader = 5
	r.n.wireBytes += len(st.SQL) + len(payload) + 2*frameHeader
	return DigestRows(back.Rows), nil
}

// planSelect is the planner's decision for one SELECT, made from the
// same public pieces the engine uses: an index-only count of the rows
// the driving predicate selects, then Equations 1-3.
func planSelect(v *core.View, table string, preds []sqlparser.Pred) exec.Method {
	p := -1
	for _, pr := range preds {
		idx := v.Layered(table, pr.Col)
		if idx == nil || (pr.Op != sqlparser.OpEq && pr.Op != sqlparser.OpBetween) {
			continue
		}
		lo, hi := pr.Val, pr.Hi
		if pr.Op == sqlparser.OpEq {
			hi = pr.Val
		}
		p = 0
		idx.CandidateBlocks(lo, hi).ForEach(func(bid int) bool {
			idx.BlockRange(uint64(bid), lo, hi, func(types.Value, uint32) bool { p++; return true })
			return true
		})
		break
	}
	return plan.Choose(plan.DefaultCostModel(), v.NumBlocks(), v.TableBlocks(table).Count(), p).Method
}

// project appends SELECT * rows of txs to res, column names prefixed.
func project(res *core.Result, tbl *schema.Table, prefix string, txs []*types.Transaction) {
	if res.Columns == nil || prefix != "" {
		for _, c := range tbl.AllColumnNames() {
			res.Columns = append(res.Columns, prefix+c)
		}
	}
	for _, tx := range txs {
		res.Rows = append(res.Rows, txRow(tx))
	}
}

// authRange is the path of one verified range read: VO build on the
// serving node, the answer on the wire, client-side reconstruction, and
// the confirming digest from a second node.
func (r *replayer) authRange(st *Stmt) (Answer, error) {
	tr := r.tr
	lo, hi := amountBounds(st)
	height := r.chain.View.Height()
	var ans *auth.Answer
	tr.Do("auth.serve", func() { ans = auth.Serve(r.l.ali, height, nil, lo, hi) })
	var payload []byte
	tr.Do("node.encode_answer", func() {
		e := types.NewEncoder(1024)
		e.Uint64(ans.Height)
		e.Count(len(ans.Blocks))
		for _, b := range ans.Blocks {
			e.Uint64(b.Bid)
			e.Blob(b.Bytes)
		}
		payload = e.Bytes()
	})
	var err error
	tr.Do("network.frame", func() { err = frame(&r.buf, network.KindAuthQuery, payload) })
	if err != nil {
		return Answer{}, err
	}
	var digest [32]byte
	var txs []*types.Transaction
	tr.Do("auth.verify_answer", func() { digest, txs, err = auth.VerifyAnswer(ans, lo, hi) })
	if err != nil {
		return Answer{}, err
	}
	var confirm [32]byte
	tr.Do("auth.digest", func() { confirm = auth.Digest(r.l.ali, ans.Height, nil, lo, hi) })
	if confirm != digest {
		return Answer{}, fmt.Errorf("replay: digest mismatch on [%d, %d]", st.Lo, st.Hi)
	}
	r.n.wireBytes += len(payload) + len(confirm)
	r.n.voBytes += ans.Size()
	r.n.voRows += len(txs)
	return DigestTxs(txs), nil
}

// shadowCommit is the commit path rebuilt from the layers' public
// functions: the same steps in the same order as the engine's pipeline,
// over its own store and indexes, so each step can sit in its own span.
type shadowCommit struct {
	l      *Layers
	tr     *Tracer
	dir    string
	store  *storage.Store
	key    ed25519.PrivateKey
	senid  *layered.Index
	tname  *layered.Index
	amount *layered.Index
	ali    *auth.ALI
	mem    []*types.Transaction
	tid    uint64
}

func newShadowCommit(l *Layers, tr *Tracer) (*shadowCommit, error) {
	s := &shadowCommit{l: l, tr: tr, dir: l.path("shadow"),
		key:    ed25519.NewKeyFromSeed(make([]byte, ed25519.SeedSize)),
		senid:  layered.NewDiscrete("senid"),
		tname:  layered.NewDiscrete("tname"),
		amount: layered.NewContinuous("amount", l.lidx.Histogram()),
		ali:    auth.NewContinuous("amount", l.ali.Histogram(), 0),
	}
	if err := os.RemoveAll(s.dir); err != nil {
		return nil, err
	}
	var err error
	s.store, err = storage.Open(s.dir, storage.Options{Sync: engineConfig(l.w.LeaderFlags, "").Sync})
	return s, err
}

func (s *shadowCommit) close() { s.store.Close() } //sebdb:ignore-err benchmark teardown

// insert replays one INSERT: parse, build the transaction, queue it, and
// cut a block when the queue holds blockTxs.
func (r *replayer) insert(sql string) error {
	tr, s := r.tr, r.sh
	r.n.inserts++
	tr.NextStmt()
	var err error
	tr.Do("stmt", func() {
		tr.Do("network.frame", func() { err = frame(&r.buf, network.KindSQL, []byte(sql)) })
		var ast sqlparser.Statement
		tr.Do("sqlparser.parse", func() { ast, err = sqlparser.Parse(sql) })
		if err != nil {
			return
		}
		ins := ast.(*sqlparser.Insert)
		var tx *types.Transaction
		tr.Do("core.new_tx", func() { tx, err = r.l.eng.NewTransaction("node0", ins.Table, ins.Values) })
		if err != nil {
			return
		}
		s.mem = append(s.mem, tx)
		if len(s.mem) == blockTxs {
			err = s.cut()
		}
	})
	return err
}

// cut runs one block through prepare (leaf hashes, Merkle root, signed
// header), append, index and ALI maintenance, and the group fsync.
func (s *shadowCommit) cut() error {
	tr, txs := s.tr, s.mem
	s.mem = nil
	for _, tx := range txs {
		s.tid++
		tx.Tid = s.tid
	}
	var leaves []types.Hash
	tr.Do("merkle.tx_leaves", func() { leaves = types.TxLeaves(txs) })
	var root types.Hash
	tr.Do("merkle.root", func() { root = merkle.Root(leaves) })
	var prev *types.BlockHeader
	if tip, ok := s.store.Tip(); ok {
		prev = &tip
	}
	var b *types.Block
	tr.Do("types.header_sign", func() {
		b = types.NewBlockFromRoot(prev, txs, root, int64(s.store.Count()+1), "node0")
		b.Header.Sign(s.key)
	})
	var err error
	tr.Do("storage.append", func() { _, err = s.store.AppendNoSync(b) })
	if err != nil {
		return err
	}
	bid := b.Header.Height
	tr.Do("index.layered_append", func() {
		sen := make([]layered.Entry, len(txs))
		tn := make([]layered.Entry, len(txs))
		am := make([]layered.Entry, len(txs))
		for i, tx := range txs {
			sen[i] = layered.Entry{Key: types.Str(tx.SenID), Pos: uint32(i)}
			tn[i] = layered.Entry{Key: types.Str(tx.Tname), Pos: uint32(i)}
			am[i] = layered.Entry{Key: tx.Args[2], Pos: uint32(i)}
		}
		s.senid.AppendBlock(bid, sen)
		s.tname.AppendBlock(bid, tn)
		s.amount.AppendBlock(bid, am)
	})
	tr.Do("auth.append_block", func() {
		recs := make([]mbtree.Record, len(txs))
		for i, tx := range txs {
			recs[i] = mbtree.Record{Key: tx.Args[2], Payload: tx.EncodeBytes()}
		}
		s.ali.AppendBlock(bid, recs)
	})
	tr.Do("storage.sync_batch", func() { err = s.store.SyncBatch() })
	return err
}
