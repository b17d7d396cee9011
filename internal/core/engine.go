// Package core implements the SEBDB engine — the paper's primary
// contribution: a blockchain whose transactions are relational tuples,
// queried through a SQL-like language, stored once in append-only block
// files, and accelerated by the block-level, table-level and layered
// indexes of §IV-B. The engine is the per-node database; consensus
// (internal/consensus) decides the order of transactions and calls
// CommitBlock, while standalone users can let the engine package blocks
// itself via Submit/Flush.
package core

import (
	"bytes"
	"context"
	"crypto/ed25519"
	"errors"
	"fmt"
	"maps"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"

	"sebdb/internal/accessctl"
	"sebdb/internal/auth"
	"sebdb/internal/cache"
	"sebdb/internal/clock"
	"sebdb/internal/contract"
	"sebdb/internal/faultfs"
	"sebdb/internal/index/blockindex"
	"sebdb/internal/index/layered"
	"sebdb/internal/merkle"
	"sebdb/internal/obs"
	"sebdb/internal/parallel"
	"sebdb/internal/rdbms"
	"sebdb/internal/schema"
	"sebdb/internal/snapshot"
	"sebdb/internal/storage"
	"sebdb/internal/types"
)

// CacheMode selects which derived cache the engine maintains (§VII-H).
type CacheMode int

const (
	// CacheNone disables caching; every read hits the block files.
	CacheNone CacheMode = iota
	// CacheBlocks caches recently read whole blocks.
	CacheBlocks
	// CacheTxs caches recently read individual transactions.
	CacheTxs
)

// Config configures an engine instance.
type Config struct {
	// Dir is the storage directory for block segment files.
	Dir string
	// SegmentSize overrides the 256 MB default block-file size.
	SegmentSize int64
	// BlockMaxTxs caps the number of transactions packaged per block.
	// Zero means 200 (the paper's write-benchmark setting).
	BlockMaxTxs int
	// CacheMode selects the cache policy; CacheBytes its capacity
	// (default 2 GB, the paper's §VII-H setting). The cache is striped
	// over cache.DefaultShards independently locked shards.
	CacheMode  CacheMode
	CacheBytes int64
	// Mmap serves sealed (read-only) segments from memory maps where
	// the platform supports it; the active tail segment and any failed
	// map fall back to positional reads. See storage.Options.Mmap.
	Mmap bool
	// CompressAfter enables the background recompression pass: sealed
	// segments at least CompressAfter segments behind the active tail
	// are rewritten with per-record compression. Zero disables the
	// pass; CompressSealed still works for explicit sweeps.
	CompressAfter int
	// HistogramDepth is the first-level equal-depth histogram height for
	// continuous layered indexes (default 100, §VII-D).
	HistogramDepth int
	// Parallelism bounds the worker pool of both the read pipeline
	// (parallel scans, chain replay on Open, index backfill) and the
	// commit pipeline (transaction sealing and Merkle hashing in the
	// prepare stage, per-index fan-out in the index stage). Zero means
	// GOMAXPROCS; 1 makes every pipeline sequential.
	Parallelism int
	// Sync makes the block store fsync appended segments before a commit
	// reports success. Batched commits — FlushAt and consensus batches —
	// are covered by one group fsync per batch rather than one per
	// block; see storage.Store.SyncBatch. Default off: consensus
	// replication is the usual durability story.
	Sync bool
	// Signer names this node as block packager; Key signs headers.
	Signer string
	Key    ed25519.PrivateKey
	// DefaultSender is the SenID used by Execute when no session sender
	// is given.
	DefaultSender string
	// Clock supplies transaction and block timestamps (Unix micros).
	// Nil means the wall clock; tests inject clock.Fixed for
	// deterministic timing.
	Clock clock.Source
	// Obs is the metrics registry the engine and its operators report
	// into. Nil means obs.Default (what the server's /metrics exposes).
	Obs *obs.Registry
	// Recorder is the statement flight recorder: every Execute runs
	// under a sampled trace and slow statements are captured with their
	// span trees (see internal/obs). Nil disables recording — the
	// statement path then pays one nil check.
	Recorder *obs.Recorder
	// Log is the structured event logger the engine reports lifecycle
	// events into (DDL, rollbacks, checkpoints, commits at debug). Nil
	// disables event logging; every call is then a no-op.
	Log *obs.Logger
	// CheckpointInterval writes a derived-state checkpoint every that
	// many blocks (see internal/snapshot). Zero disables automatic
	// checkpointing; WriteCheckpoint still works.
	CheckpointInterval int
	// DisableCheckpointLoad makes Open ignore any existing checkpoint
	// and rebuild by full chain replay — the comparison baseline for
	// recovery benchmarks and crash-equivalence tests.
	DisableCheckpointLoad bool
	// FS injects the filesystem the store and checkpoint directory use.
	// Nil means the real one; tests inject faultfs.Injector to exercise
	// crash-restart behaviour.
	FS faultfs.FS
}

func (c *Config) fill() {
	if c.BlockMaxTxs == 0 {
		c.BlockMaxTxs = 200
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 2 << 30
	}
	if c.HistogramDepth == 0 {
		c.HistogramDepth = 100
	}
	if c.Parallelism == 0 {
		c.Parallelism = parallel.Default()
	}
	if c.Signer == "" {
		c.Signer = "node0"
	}
	if c.Key == nil {
		c.Key = ed25519.NewKeyFromSeed(make([]byte, ed25519.SeedSize))
	}
	if c.DefaultSender == "" {
		c.DefaultSender = c.Signer
	}
	if c.Clock == nil {
		c.Clock = clock.UnixMicro
	}
	if c.Obs == nil {
		c.Obs = obs.Default
	}
	if c.FS == nil {
		c.FS = faultfs.OS()
	}
}

// indexSpec remembers a user-created layered index so it can be
// maintained on append.
type indexSpec struct {
	table string // "" for the global system indexes
	col   string
}

func (s indexSpec) key() string { return s.table + "." + s.col }

// Engine is one node's SEBDB instance.
type Engine struct {
	cfg   Config
	store *storage.Store
	offDB *rdbms.DB

	// par is the worker bound of the read and commit pipelines
	// (Config.Parallelism), atomic so SetParallelism can retune it while
	// queries and commits run.
	par atomic.Int32

	// mu is the one writer lock. A writer holds it for its whole
	// critical section: writePipeline (prepare, install, the checkpoint
	// window cut and the group fsync), createIndex (view check, sampling
	// and the flush of its record), submitDDL (registration and rollback)
	// and Open's replay. Reads take no engine lock — they run on the
	// published View — so nothing a writer does under mu stalls a query.
	// It guards the definition and index maps, the commit cursor and the
	// index epochs. The maps are copy-on-write: a definition or a
	// creation replaces the map (withEntry), never changes it, because
	// published views share it.
	mu      sync.RWMutex
	defs    chainDefs
	lidx    map[string]*layered.Index
	alis    map[string]*auth.ALI
	lastTid uint64
	lastTs  int64
	// idxEpoch counts index creations; ckptEpoch is the idxEpoch the
	// checkpoint log's current generation was cut under. The log holds
	// one index set per generation, so a window cut under a newer epoch
	// starts a new generation.
	idxEpoch  uint64
	ckptEpoch uint64

	// snapDir is the checkpoint directory; ckptErr the outcome of the
	// last automatic checkpoint; recovery the finished Open span tree,
	// written once before the engine is shared.
	snapDir  *snapshot.Dir
	ckptErr  atomic.Pointer[error]
	recovery *obs.Span

	// ckptSem is the checkpoint token, a one-slot semaphore held from
	// cutting a log window to the end of its Write: a window starts where
	// the log's pin ends, so the pin must not move in between. The
	// persist runs outside e.mu — commits never stall behind its fsyncs —
	// and a commit that finds the token taken skips its checkpoint rather
	// than wait.
	ckptSem chan struct{}

	// poolMu guards the standalone mempool and nothing else. It is a
	// leaf: no lock is taken while it is held, so Submit, which takes it
	// alone, never waits on a writer.
	poolMu  sync.Mutex
	mempool []*types.Transaction

	acl *accessctl.Controller

	// log is the engine's component logger (Config.Log tagged "core");
	// nil — and therefore a no-op — when event logging is off.
	log *obs.Logger

	// keyMu guards the sender signing keys on their own lock: signing a
	// transaction happens on read paths' write cousins (execCreate,
	// DeployContract, NewTransaction) and must never touch e.mu.
	keyMu sync.RWMutex
	keys  map[string]ed25519.PrivateKey

	blockCache *cache.Sharded
	txCache    *cache.Sharded

	// compactStop/compactDone manage the background recompression
	// goroutine (see compact.go); nil when Config.CompressAfter is 0.
	compactStop chan struct{}
	compactDone chan struct{}

	// view is the published height-pinned read snapshot (see view.go);
	// readers Load it, the commit pipeline Stores a replacement at the
	// end of each index window. viewEpoch numbers the publishes.
	view      atomic.Pointer[View]
	viewEpoch atomic.Uint64

	// follower, when set, makes the local write entry points (Submit,
	// Flush/FlushAt, CommitBlock) fail with ErrFollower: a follower's
	// chain advances only through ApplyBlock on leader-pushed blocks, so
	// a locally minted block would fork it away from the leader.
	follower atomic.Bool

	// heightMu guards heightCh, a broadcast channel closed-and-replaced
	// every time a new view publishes. HeightSignal hands the current
	// channel to tailers (the replica subscription service) that wait
	// for the chain to advance without polling.
	heightMu sync.Mutex
	heightCh chan struct{}

	// mPrepare, mAppend and mIndex time the commit pipeline's three
	// stages into sebdb_stage_micros (stages commit.prepare,
	// commit.append, commit.index), resolved once at construction so the
	// hot path never takes the registry lock. mViewSwap and gViewEpoch
	// track the view publish cost and the running epoch.
	mPrepare, mAppend, mIndex *obs.Histogram
	mViewSwap                 *obs.Histogram
	gViewEpoch                *obs.Gauge
}

// Open opens (creating if needed) an engine over cfg.Dir and rebuilds
// the chain's definitions and system indexes — from the newest valid
// checkpoint plus a suffix replay when one exists, by full chain replay
// otherwise. The recovery is traced; ExplainRecovery reports where the
// time went.
func Open(cfg Config) (*Engine, error) {
	cfg.fill()
	if cfg.HistogramDepth-1 > maxIndexBounds {
		// Every index definition is held to maxIndexBounds (check), so a
		// deeper histogram could only propose records every node refuses.
		return nil, fmt.Errorf("core: HistogramDepth %d is above %d", cfg.HistogramDepth, maxIndexBounds+1)
	}
	tctx, root := obs.NewTrace(context.Background(), cfg.Obs, "recovery")
	e, err := openTraced(tctx, cfg)
	root.Finish()
	if err != nil {
		return nil, err
	}
	e.recovery = root
	e.log.Info("engine opened",
		"dir", cfg.Dir, "height", e.Height(), "recovery_micros", root.DurationMicros())
	if cfg.CompressAfter > 0 {
		e.startCompactor()
	}
	return e, nil
}

func openTraced(ctx context.Context, cfg Config) (*Engine, error) {
	snapDir := snapshot.NewDir(cfg.FS, cfg.Dir)
	sopts := storage.Options{SegmentSize: cfg.SegmentSize, Sync: cfg.Sync, FS: cfg.FS,
		Mmap: cfg.Mmap, Log: cfg.Log.With("storage"), Parallelism: max(cfg.Parallelism, 1)}

	// Phase 1: checkpoint. Fold the pinned log, open the segment store
	// by its scan, and seed the derived state from the log when its
	// anchor is on the chain the scan found. Every failure mode drops
	// back to replay — never wrong answers, only slower ones.
	_, ckSpan := obs.StartSpan(ctx, "recovery.checkpoint")
	defer ckSpan.Finish()
	var ck *snapshot.Checkpoint
	if !cfg.DisableCheckpointLoad {
		c, err := snapDir.Load()
		if err != nil {
			return nil, err
		}
		ck = c
	}
	st, err := storage.Open(cfg.Dir, sopts)
	if err != nil {
		return nil, err
	}
	if ck != nil {
		if h, err := st.Header(ck.Height - 1); err != nil || h.Hash() != ck.Anchor {
			cfg.Obs.Counter("sebdb_snapshot_anchor_mismatch_total").Inc()
			ck = nil
		}
	}
	e := newEngine(cfg, st, snapDir)
	var base uint64
	if ck != nil {
		if err := e.restoreCheckpoint(ck); err != nil {
			// The checkpoint decoded but disagrees with itself or the
			// chain; rebuild everything from the chain instead. Restore
			// only reads the store, so the scanned store serves the replay.
			cfg.Obs.Counter("sebdb_snapshot_restore_errors_total").Inc()
			e = newEngine(cfg, st, snapDir)
			ck = nil
		} else {
			base = ck.Height
		}
	}
	if ck == nil {
		// Nothing may be appended to a log this chain did not restore
		// from: the next checkpoint starts a new generation.
		snapDir.Forget()
	}
	ckSpan.Finish()

	// Phase 2: replay the remaining suffix (the whole chain when no
	// checkpoint seeded state): definitions, indexes and counters. The
	// worker pool reads ahead: it decodes each block and builds its run
	// for every registered index (readAhead); this goroutine
	// admits the blocks and links what was built in height order (Tids,
	// bitmaps and index appends all assume blocks arrive in order). The
	// cached index definitions are registered first, so the replay feeds
	// them with every other index and each block is decoded once; the
	// chain's records decide which of them stay (replayBlock,
	// dropPending).
	_, repSpan := obs.StartSpan(ctx, "recovery.replay")
	defer repSpan.Finish()
	cached, cacheRaw := e.readIndexCache()
	pending, err := e.preRegister(cached, base)
	if err != nil {
		return nil, err
	}
	n := uint64(st.Count())
	err = parallel.Ordered(e.Parallelism(), int(n-base),
		func(i int) (*builtBlock, error) { return e.readAhead(base + uint64(i)) },
		func(_ int, bb *builtBlock) error { return e.replayBlock(bb, pending) })
	if err != nil {
		return nil, err
	}
	e.dropPending(pending, nil)
	cfg.Obs.Counter("sebdb_snapshot_suffix_blocks").Add(n - base)
	repSpan.AddCounter("suffix_blocks", int64(n-base))
	// Publish the recovered state as the first real view: replay does not
	// publish per block (nobody can read mid-recovery), so this is where
	// readers first see the chain.
	e.mu.Lock()
	e.publishViewLocked()
	e.mu.Unlock()
	if raw, err := renderIndexCache(e.defs); err == nil && !bytes.Equal(raw, cacheRaw) && (len(e.defs.indexes) > 0 || cacheRaw != nil) {
		e.saveIndexCache()
	}
	return e, nil
}

// newEngine builds the in-memory engine shell over an opened store.
func newEngine(cfg Config, st *storage.Store, snapDir *snapshot.Dir) *Engine {
	e := &Engine{
		cfg:   cfg,
		store: st,
		offDB: rdbms.New(),
		defs: chainDefs{tables: map[string]*schema.Table{}, contracts: map[string]*contract.Contract{},
			indexes: map[string]*indexDef{}},
		// The global track-trace indexes on the system columns are always
		// present (§V-A: "the layered indices on column SenID and Tname
		// are pre-created ... on all tables for all historical
		// transactions"). A checkpoint restore replaces them with the
		// serialised state.
		lidx: map[string]*layered.Index{
			".senid": layered.NewDiscrete("senid"),
			".tname": layered.NewDiscrete("tname"),
		},
		alis:       map[string]*auth.ALI{},
		keys:       make(map[string]ed25519.PrivateKey),
		acl:        accessctl.New(),
		log:        cfg.Log.With("core"),
		snapDir:    snapDir,
		ckptSem:    make(chan struct{}, 1),
		mPrepare:   cfg.Obs.Histogram(`sebdb_stage_micros{stage="commit.prepare"}`),
		mAppend:    cfg.Obs.Histogram(`sebdb_stage_micros{stage="commit.append"}`),
		mIndex:     cfg.Obs.Histogram(`sebdb_stage_micros{stage="commit.index"}`),
		mViewSwap:  cfg.Obs.Histogram("sebdb_view_swap_micros"),
		gViewEpoch: cfg.Obs.Gauge("sebdb_view_epoch"),
	}
	e.par.Store(int32(cfg.Parallelism))
	switch cfg.CacheMode {
	case CacheBlocks:
		e.blockCache = cache.NewSharded(cfg.CacheBytes, cache.DefaultShards)
	case CacheTxs:
		e.txCache = cache.NewSharded(cfg.CacheBytes, cache.DefaultShards)
	}
	e.heightCh = make(chan struct{})
	// Install an empty view so CurrentView never returns nil; the real
	// one is published once recovery has rebuilt the derived state. The
	// shell is not shared yet, so no lock is needed.
	e.view.Store(e.buildView(blockindex.Index{}))
	return e
}

// RecoveryTrace returns the finished span tree of the last Open: a
// "recovery" root with "recovery.checkpoint" (checkpoint load, anchor
// verification, state restore) and "recovery.replay" (suffix replay and
// index-definition reload) children. Their durations also feed the
// sebdb_stage_micros metrics.
func (e *Engine) RecoveryTrace() *obs.Span { return e.recovery }

// ExplainRecovery renders the recovery trace the way EXPLAIN ANALYZE
// renders a query trace: one row per stage with its wall time, so
// checkpoint-load vs suffix-replay cost is inspectable.
func (e *Engine) ExplainRecovery() *Result {
	if e.recovery == nil {
		return &Result{Columns: []string{"stage", "micros", "blocks_read",
			"txs_examined", "index_probes", "detail"}}
	}
	return renderTrace(e.recovery)
}

// Close stops the background compactor (if running) and releases the
// engine's resources.
func (e *Engine) Close() error {
	e.stopCompactor()
	return e.store.Close()
}

// OffChain returns the node-local off-chain RDBMS.
func (e *Engine) OffChain() *rdbms.DB { return e.offDB }

// AccessControl returns the node's channel/permission configuration
// (paper §III-B's application-layer access control). A fresh engine
// permits everything (all tables in the public channel).
func (e *Engine) AccessControl() *accessctl.Controller { return e.acl }

// Height returns the chain height (number of blocks).
func (e *Engine) Height() uint64 { return uint64(e.store.Count()) }

// Recorder returns the engine's statement flight recorder (nil when
// tracing is off); callers that run queries below the SQL layer can
// record statements against it directly.
func (e *Engine) Recorder() *obs.Recorder { return e.cfg.Recorder }

// Parallelism returns the read and commit pipelines' worker bound
// (>= 1); views hand it to the operators (View.Parallelism).
func (e *Engine) Parallelism() int {
	if n := int(e.par.Load()); n > 1 {
		return n
	}
	return 1
}

// SetParallelism retunes the worker bound at runtime; values below 1
// make reads sequential. The benchmark harness uses it to sweep the
// worker axis over one loaded chain.
func (e *Engine) SetParallelism(n int) {
	if n < 1 {
		n = 1
	}
	e.par.Store(int32(n))
}

// Headers returns all block headers (what a thin client syncs).
func (e *Engine) Headers() []types.BlockHeader { return e.store.Headers() }

// nowMicro returns the engine clock's current time in Unix
// microseconds.
func (e *Engine) nowMicro() int64 { return e.cfg.Clock() }

// Obs returns the engine's metrics registry — the one views hand to the
// operators (View.Obs), so they report into the same registry the
// server exposes.
func (e *Engine) Obs() *obs.Registry { return e.cfg.Obs }

// EventLog returns the engine's base event logger (Config.Log, untagged;
// possibly nil — obs.Logger is nil-safe). Subsystems layered over the
// engine (node, replica) derive their component loggers from it.
func (e *Engine) EventLog() *obs.Logger { return e.cfg.Log }

// RegisterKey associates a sender identity with a signing key; Submit
// and Execute sign transactions from that sender.
func (e *Engine) RegisterKey(sender string, key ed25519.PrivateKey) {
	e.keyMu.Lock()
	defer e.keyMu.Unlock()
	e.keys[sender] = key
}

// signFor signs tx with sender's registered key, if any. It is the one
// signing block shared by NewTransaction, execCreate and
// DeployContract; it takes only keyMu, never e.mu.
func (e *Engine) signFor(tx *types.Transaction, sender string) {
	e.keyMu.RLock()
	key, ok := e.keys[sender]
	e.keyMu.RUnlock()
	if ok {
		tx.Sign(key)
	}
}

// txCommitted reports whether tx landed on the chain: a committed
// transaction has a Tid assigned at or below the published view's. The
// DDL rollback paths use it to distinguish an append failure (tx never
// committed — roll the local registration back) from a sync failure
// after the commit (tx is chain state — keep the registration).
func (e *Engine) txCommitted(tx *types.Transaction) bool {
	return tx.Tid != 0 && tx.Tid <= e.CurrentView().LastTid()
}

// NewTransaction builds (and signs, when the sender has a registered
// key) a transaction for the given table, validating the args against
// the schema of the current view. The Tid is assigned at commit time.
func (e *Engine) NewTransaction(sender, tname string, args []types.Value) (*types.Transaction, error) {
	tbl, err := e.CurrentView().Table(tname)
	if err != nil {
		return nil, err
	}
	vals, err := tbl.ValidateArgs(args)
	if err != nil {
		return nil, err
	}
	tx := &types.Transaction{
		Ts:    e.nowMicro(),
		SenID: sender,
		Tname: tbl.Name,
		Args:  vals,
	}
	e.signFor(tx, sender)
	return tx, nil
}

// ErrFollower rejects local write entry points on an engine running in
// follower mode; its chain advances only through ApplyBlock.
var ErrFollower = errors.New("core: engine is a follower; writes go to the leader")

// SetFollower switches the engine's follower mode. A follower rejects
// Submit/Flush/CommitBlock with ErrFollower so it can never mint a block
// that forks it away from its leader; ApplyBlock (replicated, verified
// blocks) stays open, as do all reads.
func (e *Engine) SetFollower(on bool) { e.follower.Store(on) }

// HeightSignal returns a channel closed the next time a new view
// publishes (commit, apply, DDL, index creation). Waiters select on it,
// then call Height/CurrentView and re-arm by calling HeightSignal again.
// Because the channel is replaced on every publish, a waiter must
// re-check the height after grabbing the channel to close the
// check-then-wait race.
func (e *Engine) HeightSignal() <-chan struct{} {
	e.heightMu.Lock()
	ch := e.heightCh
	e.heightMu.Unlock()
	return ch
}

// bumpHeightSignal wakes every HeightSignal waiter. Called with e.mu
// held (from publishViewLocked); heightMu nests inside e.mu and is never
// held across anything blocking.
func (e *Engine) bumpHeightSignal() {
	e.heightMu.Lock()
	close(e.heightCh)
	e.heightCh = make(chan struct{})
	e.heightMu.Unlock()
}

// Submit appends a transaction to the standalone mempool, packaging a
// block when BlockMaxTxs accumulate. Consensus-driven deployments skip
// Submit and deliver ordered batches through CommitBlock instead.
func (e *Engine) Submit(tx *types.Transaction) error {
	if e.follower.Load() {
		return ErrFollower
	}
	e.poolMu.Lock()
	e.mempool = append(e.mempool, tx)
	full := len(e.mempool) >= e.cfg.BlockMaxTxs
	e.poolMu.Unlock()
	if full {
		return e.Flush()
	}
	return nil
}

// Flush packages all pending mempool transactions, stamping blocks with
// the current time.
func (e *Engine) Flush() error { return e.FlushAt(e.nowMicro()) }

// FlushAt packages all pending mempool transactions into blocks stamped
// with the given timestamp (clamped to stay monotonic). Deterministic
// loaders — the benchmark's data generator — use it to control the
// chain's time axis. The pool is taken before the writer lock, so a
// Submit arriving meanwhile waits on nothing.
func (e *Engine) FlushAt(ts int64) error {
	if e.follower.Load() {
		return ErrFollower
	}
	pending := e.takePool()
	if len(pending) == 0 {
		return nil
	}
	return e.writePipeline(func() error { return e.commitPool(pending, ts) })
}

// takePool empties the mempool and returns what it held with txs
// appended, so no other flush carries them off: whoever commits the
// result holds every one of them.
func (e *Engine) takePool(txs ...*types.Transaction) []*types.Transaction {
	e.poolMu.Lock()
	pending := append(e.mempool, txs...)
	e.mempool = nil
	e.poolMu.Unlock()
	return pending
}

// commitPool packages pending into blocks of at most BlockMaxTxs and
// commits them back to back; the caller's one group fsync makes the
// whole batch durable. Callers hold e.mu.
func (e *Engine) commitPool(pending []*types.Transaction, ts int64) (err error) {
	for len(pending) > 0 && err == nil {
		n := min(len(pending), e.cfg.BlockMaxTxs)
		_, err = e.commitOne(pending[:n], ts)
		pending = pending[n:]
	}
	return err
}

// writePipeline is the one writer critical section FlushAt, CommitBlock,
// ApplyBlock and createIndex share: under e.mu, run the commits, cut one
// checkpoint window after the last of them if they crossed an interval
// boundary, and make whatever they appended durable; then persist the
// window once the lock is released, so the next writer does not stall
// behind checkpoint I/O. Reads never wait on any of it: they take no
// engine lock.
//
// Durability is one group fsync covering every block appended with
// AppendNoSync since the last one. A crash before it can only lose an
// unsynced suffix of appended blocks — recovery's torn-tail truncate
// restores the last durable prefix, never a chain with a gap. A sync
// failure is reported to the committer; the blocks stay applied in
// memory, since they are valid chain state that consensus has already
// replicated.
func (e *Engine) writePipeline(commits func() error) error {
	e.mu.Lock()
	// A node that never checkpoints does no checkpoint work in here, not
	// even the store-lock round trip of reading the height: dueCheckpoint
	// returns at once for it.
	var before uint64
	if e.cfg.CheckpointInterval > 0 {
		before = e.Height()
	}
	err := commits()
	ck := e.dueCheckpoint(before)
	if e.cfg.Sync {
		//sebdb:ignore-lockio reason: the group fsync runs under the writer lock by design — writers queue behind durability, reads run on views and take no engine lock
		if serr := e.store.SyncBatch(); err == nil {
			err = serr
		}
	}
	e.mu.Unlock()
	e.finishCheckpoint(ck)
	return err
}

// CommitBlock packages the ordered transactions into the next block,
// appends it durably and updates every index. It assigns Tids in order
// and is the single entry point consensus uses to apply a decided batch.
//
// The commit is a staged pipeline under the writer lock. The prepare
// stage — timestamp clamp, Tid assignment, sealing and Merkle-hashing
// every transaction with the worker pool, header chain and signature —
// is followed by the install stage: the DDL pre-check, the segment
// append and the fanned-out index maintenance; see install.
func (e *Engine) CommitBlock(txs []*types.Transaction, ts int64) (b *types.Block, err error) {
	if e.follower.Load() {
		return nil, ErrFollower
	}
	err = e.writePipeline(func() (err error) {
		b, err = e.commitOne(txs, ts)
		return err
	})
	if err != nil {
		return nil, err
	}
	return b, nil
}

// commitOne is the local door into the install stage: prepare, then
// install. Callers hold e.mu.
func (e *Engine) commitOne(txs []*types.Transaction, ts int64) (*types.Block, error) {
	start := e.cfg.Obs.Now()
	b := e.prepareBlock(txs, ts)
	return b, e.install(b, start, "block committed")
}

// ApplyBlock validates and installs a block produced elsewhere
// (received via consensus or the replication stream): the same
// pipeline as CommitBlock with validation — the foreign-block
// equivalent of prepare — fanned out to the worker pool.
func (e *Engine) ApplyBlock(b *types.Block) error {
	return e.writePipeline(func() error { return e.applyOne(b) })
}

// applyOne is the foreign door into the install stage: validate, then
// install. Callers hold e.mu.
func (e *Engine) applyOne(b *types.Block) error {
	start := e.cfg.Obs.Now()
	if err := b.ValidateWorkers(e.Parallelism()); err != nil {
		return err
	}
	return e.install(b, start, "block applied")
}

// install is the write path's one install stage: every block, locally
// prepared or foreign and validated, becomes chain state here and
// nowhere else. Callers hold e.mu; start is when the block's
// prepare/validate stage began.
//
// The block is admitted before the append: a block whose tids do not
// continue the chain's, whose _schema, _contract or _index transaction
// fails to decode or check or conflicts with an existing definition, or
// whose tuple does not fit its table, is refused whole while the segment
// store, the indexes and the published view are still untouched; a
// block appended first and refused while indexing would stay on disk
// and fail every later Open's replay. An index the block defines is
// built first (admit), and a new one rewrites indexes.json.
func (e *Engine) install(b *types.Block, start int64, event string) error {
	prepared := e.cfg.Obs.Now()
	e.mPrepare.Observe(prepared - start)

	defs, built, err := e.admit(b, nil)
	if err == nil {
		// Indexes read tuples by column position: a block carrying a
		// short or mistyped tuple would append and then fail to index,
		// and a NaN has no place in any index's order. Replay
		// (replayBlock) skips this, so chains already on disk open as
		// before.
		err = schema.CheckTuples(defs.tables, b.Txs)
	}
	if err != nil {
		return err
	}
	if _, err := e.store.AppendNoSync(b); err != nil {
		return err
	}
	appended := e.cfg.Obs.Now()
	if err := e.indexBlockLocked(b, defs, built, nil); err != nil {
		return err
	}
	e.publishViewLocked()
	if len(built) > 0 {
		e.saveIndexCache()
	}
	e.mAppend.Observe(appended - prepared)
	e.mIndex.Observe(e.cfg.Obs.Now() - appended)
	e.log.Debug(event, "height", b.Header.Height, "txs", len(b.Txs),
		"first_tid", b.Header.FirstTid, "signer", b.Header.Signer)
	return nil
}

// prepareBlock is the pipeline's prepare stage: it stamps the batch
// against the commit cursor, seals and leaf-hashes every transaction
// with the worker pool, reduces the Merkle root in parallel, and builds
// the signed header. Callers hold e.mu, which keeps the cursor and the
// tip still until the block is installed.
func (e *Engine) prepareBlock(txs []*types.Transaction, ts int64) *types.Block {
	lastTid, lastTs := e.lastTid, e.lastTs
	// Monotonic block timestamps keep the block-level index's time
	// lookups well-defined.
	if ts <= lastTs {
		ts = lastTs + 1
	}
	for i, tx := range txs {
		tx.Tid = lastTid + uint64(i) + 1
	}
	workers := e.Parallelism()
	leaves := types.TxLeavesWorkers(txs, workers)
	root := merkle.RootWorkers(leaves, workers)
	var prev *types.BlockHeader
	if tip, ok := e.store.Tip(); ok {
		prev = &tip
	}
	b := types.NewBlockFromRoot(prev, txs, root, ts, e.cfg.Signer)
	b.Header.Sign(e.cfg.Key)
	return b
}

// builtBlock is one block of Open's replay as the read-ahead leaves it:
// decoded, and built for every index registered when it was read.
type builtBlock struct {
	b *types.Block
	// built says the block was built ahead; links are the feeds' links,
	// in feedsLocked order, up to the first that failed, whose error is
	// err. epoch and tables are the index epoch and the tables the build
	// read.
	built  bool
	links  []func()
	err    error
	epoch  uint64
	tables map[string]*schema.Table
}

// readAhead is the produce stage of Open's replay: it reads block h and
// runs the build half of every registered index's feed on it, off the
// engine lock, against the definitions current when it reads the block.
// A block carrying a reserved-table transaction is not built: what it
// defines decides what its indexes are and read. A build error is held,
// not returned: the result may turn out stale (current).
func (e *Engine) readAhead(h uint64) (*builtBlock, error) {
	b, err := e.store.Block(h)
	if err != nil || definesAny(b.Txs) {
		return &builtBlock{b: b}, err
	}
	bb := &builtBlock{b: b, built: true}
	e.mu.RLock()
	bb.epoch, bb.tables = e.idxEpoch, e.defs.tables
	feeds := e.feedsLocked()
	e.mu.RUnlock()
	bb.links = make([]func(), 0, len(feeds))
	for _, feed := range feeds {
		link, err := feed(b, bb.tables)
		if err != nil {
			bb.err = err
			break
		}
		bb.links = append(bb.links, link)
	}
	return bb, nil
}

// current reports whether what the read-ahead built for bb's block is
// what indexBlockLocked would build under the lock: the index set is the
// one it fed (no creation or drop moved idxEpoch since) and the block's
// resolved tables are the ones it read. The maps are copy-on-write, so
// one map is one set of definitions. Callers hold e.mu.
func (bb *builtBlock) current(e *Engine, tables map[string]*schema.Table) bool {
	return bb != nil && bb.built && bb.epoch == e.idxEpoch &&
		reflect.ValueOf(bb.tables).UnsafePointer() == reflect.ValueOf(tables).UnsafePointer()
}

// replayBlock indexes one block of Open's replay. pending are the
// cached indexes no record has settled yet (unbuilt); one whose table
// the block defines is checked before any of the table's tuples reach
// it.
func (e *Engine) replayBlock(bb *builtBlock, pending map[string]*indexDef) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	defs, built, err := e.admit(bb.b, pending)
	if err != nil {
		return err
	}
	if len(defs.tables) != len(e.defs.tables) {
		e.dropPending(pending, defs.tables)
	}
	return e.indexBlockLocked(bb.b, defs, built, bb)
}

// admit checks b against the engine's state without changing it, and
// returns the definitions the engine holds once b is chain state. A
// non-empty block's first tid must continue the commit cursor —
// Validate has made its tids consecutive — so the store's tid cursors
// rise with height and the block-level index can bisect them. Its
// reserved-table transactions are resolved against the engine's
// definitions and each other. Callers hold e.mu exclusively — every
// definition is installed under it — so what resolves here is still
// current when indexBlockLocked installs it.
// For each index definition b adds that no registered index serves
// (unbuilt) admit builds the index, fed the blocks below b; readers
// never wait on the backfill, since they take no engine lock.
func (e *Engine) admit(b *types.Block, pending map[string]*indexDef) (chainDefs, []func(), error) {
	if b.Header.TxCount > 0 && b.Header.FirstTid != e.lastTid+1 {
		return chainDefs{}, nil, fmt.Errorf("core: block %d starts at tid %d, the chain continues at %d",
			b.Header.Height, b.Header.FirstTid, e.lastTid+1)
	}
	defs, err := e.defs.resolve(b.Txs)
	if err != nil {
		return defs, nil, err
	}
	fresh := e.unbuilt(defs, pending)
	if len(fresh) == 0 {
		return defs, nil, nil
	}
	built, err := e.buildIndexes(fresh, defs.tables, b.Header.Height)
	return defs, built, err
}

// indexBlockLocked installs a newly appended block's resolved
// definitions and the indexes built for them, and updates counters and
// all indexes. ahead is what Open's read-ahead built for the block, or
// nil; when it is current its links are all that is left to run, and
// otherwise the block is built here. Callers hold e.mu.
func (e *Engine) indexBlockLocked(b *types.Block, defs chainDefs, built []func(), ahead *builtBlock) error {
	e.installDefs(defs, built)
	for _, tx := range b.Txs {
		if tx.Tid > e.lastTid {
			e.lastTid = tx.Tid
		}
	}
	if b.Header.Timestamp > e.lastTs {
		e.lastTs = b.Header.Timestamp
	}

	if ahead.current(e, defs.tables) {
		for _, link := range ahead.links {
			link()
		}
		return ahead.err
	}
	// Layered indexes and ALIs: the global system ones plus any user
	// indexes. Each index is self-contained, so the per-index build fans
	// out to the worker pool and the links follow in feed order; all run
	// before e.mu is released, so readers never see a block half-indexed
	// and crash/replay fingerprints are identical to the serial walk. The
	// feeds are in a fixed order so a failure is always reported for the
	// same index regardless of scheduling.
	feeds := e.feedsLocked()
	return parallel.Ordered(e.Parallelism(), len(feeds),
		func(i int) (func(), error) { return feeds[i](b, defs.tables) },
		func(_ int, link func()) error {
			link()
			return nil
		})
}

// feedsLocked returns the feed of every registered index: the layered
// ones, then the ALIs, each by key — the order the install stage
// reports a failing feed in. Callers hold e.mu.
func (e *Engine) feedsLocked() []blockFeed {
	feeds := make([]blockFeed, 0, len(e.lidx)+len(e.alis))
	for _, key := range sortedKeys(e.lidx) {
		feeds = append(feeds, layeredFeed(key, e.lidx[key].AppendRun))
	}
	for _, key := range sortedKeys(e.alis) {
		feeds = append(feeds, layeredFeed(key, e.alis[key].AppendRun))
	}
	return feeds
}

// blockFeed is the write side every index family shares, in two
// halves. The call is the build: extract one block's input for the
// index and build the block's run from it — a layered index's second
// level, or the entries an ALI builds an MB-tree from when a query
// first needs it. It is the fallible, order-free half and
// touches no index, so it may run ahead on the worker pool. The link it
// returns installs what was built under the block's height and the
// first-level marks; links must run in height order. tables are the
// tables defined once b is chain state.
type blockFeed func(b *types.Block, tables map[string]*schema.Table) (link func(), err error)

// layeredFeed feeds the index registered under key ("table.col" or
// ".senid"/".tname"): the block's run of (key, position) entries, linked
// by appendRun — a layered index's, or an ALI's, whose MB-tree is built
// from the block's body when a query first needs it (aliRecords).
func layeredFeed(key string, appendRun func(uint64, *layered.Run)) blockFeed {
	return func(b *types.Block, tables map[string]*schema.Table) (func(), error) {
		entries, err := extract(key, tables, b, func(v types.Value, pos int, _ *types.Transaction) layered.Entry {
			return layered.Entry{Key: v, Pos: uint32(pos)}
		})
		if err != nil {
			return nil, err
		}
		r := layered.BuildRun(entries)
		return func() { appendRun(b.Header.Height, r) }, nil
	}
}

// extract collects, for the index identified by key, one item per
// transaction of b that carries the indexed column. The slice is
// allocated at the first such transaction, for all the block has left:
// the build that reads it drops it.
func extract[T any](key string, tables map[string]*schema.Table, b *types.Block, item func(v types.Value, pos int, tx *types.Transaction) T) ([]T, error) {
	value := extractorFor(key, tables)
	var out []T
	for pos, tx := range b.Txs {
		v, ok, err := value(tx)
		if err != nil {
			return nil, err
		}
		if ok {
			if out == nil {
				out = make([]T, 0, len(b.Txs)-pos)
			}
			out = append(out, item(v, pos, tx))
		}
	}
	return out, nil
}

// extractorFor resolves one index key's per-transaction value lookup
// once per block and returns the cheap per-transaction closure: the
// schema lookup and column-position resolution that used to repeat for
// every transaction of every index are hoisted out of the loop. The
// closure reports ok=false for transactions outside the indexed table.
// The schema resolves lazily from tables on the first matching
// transaction, so blocks without the indexed table never look it up.
// Each call returns a fresh closure, so extractors may run concurrently
// — one per index task of the commit pipeline's fan-out, or one per
// block of a backfill.
func extractorFor(key string, tables map[string]*schema.Table) func(tx *types.Transaction) (types.Value, bool, error) {
	spec := splitKey(key)
	if spec.table == "" {
		// Global system index: every transaction carries the value.
		return func(tx *types.Transaction) (types.Value, bool, error) {
			v, err := tx.SystemValue(spec.col)
			if err != nil {
				return types.Null, false, err
			}
			return v, true, nil
		}
	}
	col := strings.ToLower(spec.col)
	if _, err := types.SystemColumnKind(col); err == nil {
		// A table-scoped index on a system column needs no schema at all.
		return func(tx *types.Transaction) (types.Value, bool, error) {
			if tx.Tname != spec.table {
				return types.Null, false, nil
			}
			v, err := tx.SystemValue(col)
			if err != nil {
				return types.Null, false, err
			}
			return v, true, nil
		}
	}
	pos := -1
	return func(tx *types.Transaction) (types.Value, bool, error) {
		if tx.Tname != spec.table {
			return types.Null, false, nil
		}
		if pos < 0 {
			tbl, ok := tables[spec.table]
			if !ok {
				return types.Null, false, fmt.Errorf("schema: no such table %q", spec.table)
			}
			if pos = tbl.ColumnIndex(col); pos < 0 {
				return types.Null, false, fmt.Errorf("core: table %q has no column %q", spec.table, col)
			}
		}
		v, err := tx.Column(pos)
		if err != nil {
			return types.Null, false, err
		}
		return v, true, nil
	}
}

func splitKey(key string) indexSpec {
	for i := 0; i < len(key); i++ {
		if key[i] == '.' {
			return indexSpec{table: key[:i], col: key[i+1:]}
		}
	}
	return indexSpec{col: key}
}

// withEntry returns a copy of m with key set to v: the copy-on-write
// step every write to the engine's definition and index maps takes,
// because published views share the map they saw.
func withEntry[V any](m map[string]V, key string, v V) map[string]V {
	out := maps.Clone(m)
	out[key] = v
	return out
}

// withoutEntry returns a copy of m without key: withEntry's inverse,
// for submitDDL's rollback and Open's dropped cache entries.
func withoutEntry[V any](m map[string]V, key string) map[string]V {
	out := maps.Clone(m)
	delete(out, key)
	return out
}
