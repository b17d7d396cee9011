package core

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"sebdb/internal/clock"
	"sebdb/internal/contract"
	"sebdb/internal/faultfs"
	"sebdb/internal/obs"
	"sebdb/internal/schema"
	"sebdb/internal/types"
)

// donateTx builds one deterministic donate transaction with a synthetic
// time axis, matching seedDonation's stream.
func donateTx(t testing.TB, e *Engine, i int) *types.Transaction {
	t.Helper()
	tx, err := e.NewTransaction(fmt.Sprintf("org%d", i%3), "donate", []types.Value{
		types.Str(fmt.Sprintf("donor%03d", i%10)),
		types.Str("education"),
		types.Dec(float64(i)),
	})
	if err != nil {
		t.Fatal(err)
	}
	tx.Ts = int64(i+1) * 1000
	return tx
}

// TestCommitPipelineEquivalence is the pipeline's correctness anchor: a
// serial engine (Parallelism 1) and a pipelined engine (Parallelism 8)
// fed the identical transaction stream, and a third engine that receives
// the serial engine's blocks through ApplyBlock — its indexes built from
// the serial engine's _index records — must produce
// byte-identical blocks, identical header hashes, identical answers
// from every index family including the ALIs' verified results, the
// same checkpoints on disk, and — both doors sharing one install stage —
// one observation per block in every commit-stage histogram.
func TestCommitPipelineEquivalence(t *testing.T) {
	const nonBlockPublishes = 1 // Open; an index creation publishes with its record's block
	indexes := func(e *Engine) {
		if err := e.CreateIndex("donate", "amount"); err != nil {
			t.Fatal(err)
		}
		if err := e.CreateAuthIndex("donate", "amount"); err != nil {
			t.Fatal(err)
		}
		if err := e.CreateAuthIndex("donate", "donor"); err != nil {
			t.Fatal(err)
		}
	}
	open := func(par int) *Engine {
		return testEngine(t, Config{BlockMaxTxs: 4, Parallelism: par, Clock: clock.Fixed(1),
			CheckpointInterval: 5, Obs: obs.NewRegistry(clock.Fixed(1))})
	}
	build := func(par int) *Engine {
		e := open(par)
		seedDonation(t, e, 60, 4)
		indexes(e)
		// A post-index tail so index maintenance (not only backfill) runs
		// on both engines.
		for i := 60; i < 84; i += 4 {
			batch := make([]*types.Transaction, 4)
			for j := range batch {
				batch[j] = donateTx(t, e, i+j)
			}
			if _, err := e.CommitBlock(batch, int64(i+4)*1000); err != nil {
				t.Fatal(err)
			}
		}
		return e
	}
	serial, piped := build(1), build(8)
	applied := open(8)
	for h := uint64(0); h < serial.Height(); h++ {
		b, err := serial.store.Block(h)
		if err != nil {
			t.Fatal(err)
		}
		if err := applied.ApplyBlock(b); err != nil {
			t.Fatalf("apply block %d: %v", h, err)
		}
	}

	// The manifest pins the checkpoint log's height, anchor, length and
	// CRC: equal manifests are byte-identical logs.
	snaps := func(e *Engine) string {
		m, err := e.snapDir.Manifest()
		if err != nil {
			t.Fatal(err)
		}
		if m == nil {
			return "[]"
		}
		return fmt.Sprintf("%+v", *m)
	}
	for name, e := range map[string]*Engine{"pipelined": piped, "applied": applied} {
		if serial.Height() != e.Height() {
			t.Fatalf("heights diverge: serial %d vs %s %d", serial.Height(), name, e.Height())
		}
		for h := uint64(0); h < serial.Height(); h++ {
			bs, err := serial.store.Block(h)
			if err != nil {
				t.Fatal(err)
			}
			bp, err := e.store.Block(h)
			if err != nil {
				t.Fatal(err)
			}
			if bs.Header.Hash() != bp.Header.Hash() {
				t.Fatalf("%s block %d: header hashes diverge", name, h)
			}
			if !bytes.Equal(bs.EncodeBytes(), bp.EncodeBytes()) {
				t.Fatalf("%s block %d: encodings diverge", name, h)
			}
		}
		if fs, fp := recoveryFingerprint(t, serial), recoveryFingerprint(t, e); fs != fp {
			t.Errorf("query answers diverge:\n--- serial ---\n%s--- %s ---\n%s", fs, name, fp)
		}
		if ss, se := snaps(serial), snaps(e); ss == "[]" || ss != se {
			t.Errorf("checkpoints on disk diverge: serial %s vs %s %s", ss, name, se)
		}
	}
	// Every block, through either door, is one observation in each stage
	// histogram and one view publish. The two local CREATEs additionally
	// publish once each when they register, which a follower never runs.
	for name, e := range map[string]*Engine{"serial": serial, "pipelined": piped, "applied": applied} {
		blocks := e.Height()
		for _, stage := range []string{"commit.prepare", "commit.append", "commit.index"} {
			h := e.cfg.Obs.Histogram(`sebdb_stage_micros{stage="` + stage + `"}`)
			if got := h.Snapshot().Count; got != blocks {
				t.Errorf("%s: %d %s observations for %d blocks", name, got, stage, blocks)
			}
		}
		want := blocks + nonBlockPublishes
		if e != applied {
			want += 2
		}
		if got := e.cfg.Obs.Histogram("sebdb_view_swap_micros").Snapshot().Count; got != want {
			t.Errorf("%s: %d view publishes, want %d", name, got, want)
		}
	}
}

// TestCommitPipelineFlushGroupFsync pins the group-fsync batching: one
// FlushAt spanning several blocks issues exactly one fsync, while each
// standalone CommitBlock issues its own.
func TestCommitPipelineFlushGroupFsync(t *testing.T) {
	inj := faultfs.New(faultfs.Options{OpsBeforeCrash: -1})
	e := testEngine(t, Config{BlockMaxTxs: 2, Sync: true, FS: inj, Clock: clock.Fixed(1)})
	mustExec(t, e, `CREATE donate (donor string, project string, amount decimal)`)
	if err := e.FlushAt(1); err != nil {
		t.Fatal(err)
	}
	h0 := e.Height()

	txs := make([]*types.Transaction, 10)
	for i := range txs {
		txs[i] = donateTx(t, e, i)
	}
	e.poolMu.Lock()
	e.mempool = append(e.mempool, txs...)
	e.poolMu.Unlock()

	base := inj.Syncs()
	if err := e.FlushAt(20_000); err != nil {
		t.Fatal(err)
	}
	if got := e.Height() - h0; got != 5 {
		t.Fatalf("flush packaged %d blocks, want 5", got)
	}
	if got := inj.Syncs() - base; got != 1 {
		t.Fatalf("5-block flush issued %d fsyncs, want 1", got)
	}

	base = inj.Syncs()
	for i := 10; i < 13; i++ {
		if _, err := e.CommitBlock([]*types.Transaction{donateTx(t, e, i)}, int64(i+1)*10_000); err != nil {
			t.Fatal(err)
		}
	}
	if got := inj.Syncs() - base; got != 3 {
		t.Fatalf("3 standalone commits issued %d fsyncs, want 3", got)
	}
}

// TestSubmitDoesNotWaitOnTheWriterLock: a Submit below BlockMaxTxs
// takes only the pool lock, so it returns while a writer holds e.mu —
// an INSERT stream never queues behind an install, a backfill or a
// group fsync.
func TestSubmitDoesNotWaitOnTheWriterLock(t *testing.T) {
	e := testEngine(t, Config{BlockMaxTxs: 10})
	mustExec(t, e, `CREATE donate (donor string, project string, amount decimal)`)
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	tx := donateTx(t, e, 0)
	done := make(chan error, 1)
	e.mu.Lock()
	go func() { done <- e.Submit(tx) }()
	select {
	case err := <-done:
		e.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		e.mu.Unlock()
		<-done
		t.Fatal("Submit below BlockMaxTxs waited on the writer lock")
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := mustExec(t, e, `SELECT * FROM donate`).Rows; len(got) != 1 {
		t.Errorf("submitted transaction committed %d rows, want 1", len(got))
	}
}

// TestCommitPipelineRaceStress hammers the staged write path from every
// side at once: a leader committing blocks, a follower applying them,
// SELECT/TRACE readers on both, and periodic checkpoint builds. Run
// with -race this is the pipeline's lock-discipline regression test.
func TestCommitPipelineRaceStress(t *testing.T) {
	leader := testEngine(t, Config{BlockMaxTxs: 4, Parallelism: 4, CheckpointInterval: 7})
	follower := testEngine(t, Config{BlockMaxTxs: 4, Parallelism: 4})
	seedDonation(t, leader, 20, 4)
	if err := leader.CreateIndex("donate", "amount"); err != nil {
		t.Fatal(err)
	}
	if err := leader.CreateAuthIndex("donate", "donor"); err != nil {
		t.Fatal(err)
	}
	// Bring the follower to the leader's tip: the leader's index records
	// give it the same indexes, which the apply path then maintains too.
	for h := uint64(0); h < leader.Height(); h++ {
		b, err := leader.store.Block(h)
		if err != nil {
			t.Fatal(err)
		}
		if err := follower.ApplyBlock(b); err != nil {
			t.Fatalf("apply block %d: %v", h, err)
		}
	}
	if v := follower.CurrentView(); v.Layered("donate", "amount") == nil || v.AuthIndex("donate", "donor") == nil {
		t.Fatal("the follower did not build the leader's indexes")
	}

	const rounds = 40
	blocks := make(chan *types.Block, rounds)
	done := make(chan struct{})
	var writers, readers sync.WaitGroup

	writers.Add(1)
	go func() { // leader writer
		defer writers.Done()
		defer close(blocks)
		for i := 0; i < rounds; i++ {
			batch := make([]*types.Transaction, 4)
			for j := range batch {
				batch[j] = donateTx(t, leader, 20+i*4+j)
			}
			b, err := leader.CommitBlock(batch, int64(21+i)*1000)
			if err != nil {
				t.Error(err)
				return
			}
			blocks <- b
		}
	}()
	writers.Add(1)
	go func() { // follower applier
		defer writers.Done()
		for b := range blocks {
			if err := follower.ApplyBlock(b); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	writers.Add(1)
	go func() { // checkpoint builder, racing the commits
		defer writers.Done()
		for i := 0; i < 5; i++ {
			if err := leader.WriteCheckpoint(); err != nil {
				t.Errorf("WriteCheckpoint: %v", err)
				return
			}
		}
	}()
	for _, e := range []*Engine{leader, follower} {
		e := e
		for r := 0; r < 2; r++ {
			readers.Add(1)
			go func() { // readers, spinning until the writers finish
				defer readers.Done()
				for {
					select {
					case <-done:
						return
					default:
					}
					for _, q := range []string{
						`SELECT * FROM donate WHERE amount >= 3 AND amount <= 40`,
						`TRACE OPERATOR = "org1"`,
					} {
						if _, err := e.Execute(q); err != nil {
							t.Errorf("Execute(%q): %v", q, err)
							return
						}
					}
				}
			}()
		}
	}

	writers.Wait()
	close(done)
	readers.Wait()

	if leader.Height() != follower.Height() {
		t.Fatalf("heights diverge: leader %d vs follower %d", leader.Height(), follower.Height())
	}
	if fl, ff := recoveryFingerprint(t, leader), recoveryFingerprint(t, follower); fl != ff {
		t.Errorf("leader and follower answers diverge:\n--- leader ---\n%s--- follower ---\n%s", fl, ff)
	}
}

// groupFsyncCycle is the deterministic batch under crash test: stuff 12
// transactions into the mempool and flush them as one group-fsynced
// batch of 4 blocks. Fixed clock, fixed flush timestamp and the
// deterministic default signer key make every run produce byte-identical
// blocks, so a crash run's surviving chain can be compared header by
// header against the rehearsal's.
func groupFsyncCycle(t testing.TB, e *Engine) error {
	t.Helper()
	txs := make([]*types.Transaction, 12)
	for i := range txs {
		txs[i] = donateTx(t, e, 18+i)
	}
	e.poolMu.Lock()
	e.mempool = append(e.mempool, txs...)
	e.poolMu.Unlock()
	return e.FlushAt(100_000)
}

// TestGroupFsyncCrashMatrix crashes the filesystem at every mutating
// operation of a group-fsynced multi-block flush. Whatever the crash
// point, the rebooted chain must be an exact prefix of the crash-free
// run — batched fsync may lose an unsynced suffix, never tear a hole —
// and the checkpoint and full-replay recovery paths must agree.
func TestGroupFsyncCrashMatrix(t *testing.T) {
	seed := t.TempDir()
	se, err := Open(Config{Dir: seed, BlockMaxTxs: 3, Clock: clock.Fixed(1)})
	if err != nil {
		t.Fatal(err)
	}
	seedDonation(t, se, 18, 3)
	seedHeight := se.Height()
	if err := se.Close(); err != nil {
		t.Fatal(err)
	}

	// Rehearsal: run the cycle crash-free to capture the op count and
	// the canonical post-flush chain.
	rehearsal := t.TempDir()
	copyTree(t, seed, rehearsal)
	inj := faultfs.New(faultfs.Options{OpsBeforeCrash: -1})
	re, err := Open(Config{Dir: rehearsal, BlockMaxTxs: 3, Sync: true, FS: inj, Clock: clock.Fixed(1)})
	if err != nil {
		t.Fatal(err)
	}
	if err := groupFsyncCycle(t, re); err != nil {
		t.Fatal(err)
	}
	wantHeaders := re.Headers()
	finalHeight := re.Height()
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	total := inj.Mutations()
	if total < 6 || finalHeight != seedHeight+4 {
		t.Fatalf("rehearsal: %d mutating ops, height %d -> %d", total, seedHeight, finalHeight)
	}

	for k := 0; k < total; k++ {
		k := k
		t.Run(fmt.Sprintf("crash-at-%d", k), func(t *testing.T) {
			dir := t.TempDir()
			copyTree(t, seed, dir)
			inj := faultfs.New(faultfs.Options{OpsBeforeCrash: k})
			e, err := Open(Config{Dir: dir, BlockMaxTxs: 3, Sync: true, FS: inj, Clock: clock.Fixed(1)})
			if err == nil {
				// crash-injected flush may fail by design
				groupFsyncCycle(t, e)
				// crashed engine teardown
				e.Close()
			}
			if !inj.Crashed() {
				t.Fatalf("crash point %d never reached", k)
			}

			fast, err := Open(Config{Dir: dir})
			if err != nil {
				t.Fatalf("reboot (checkpoint path): %v", err)
			}
			defer fast.Close()
			full, err := Open(Config{Dir: dir, DisableCheckpointLoad: true})
			if err != nil {
				t.Fatalf("reboot (full replay): %v", err)
			}
			defer full.Close()

			h := fast.Height()
			if full.Height() != h {
				t.Fatalf("heights diverge: checkpoint %d vs full %d", h, full.Height())
			}
			if h < seedHeight || h > finalHeight {
				t.Fatalf("recovered height %d outside [%d, %d]", h, seedHeight, finalHeight)
			}
			// Prefix, never a gap: every surviving block is the one the
			// crash-free run committed at that height.
			for i, hdr := range fast.Headers() {
				if hdr.Hash() != wantHeaders[i].Hash() {
					t.Fatalf("crash at op %d: block %d diverges from the crash-free chain", k, i)
				}
			}
			if ff, fu := recoveryFingerprint(t, fast), recoveryFingerprint(t, full); ff != fu {
				t.Fatalf("crash at op %d: recovery paths diverge:\n--- checkpoint ---\n%s--- full ---\n%s", k, ff, fu)
			}
		})
	}
}

// TestBadDDLBlockRefused delivers blocks that cannot be installed — a
// table or contract redefined differently, an undecodable payload, two
// definitions of one block contradicting each other, a transaction that
// is not a tuple of its table — through both doors of the install stage. The block must be
// refused before anything is written: the consensus entry point used to
// append it and fail while indexing, leaving a block on disk that no
// later Open could replay.
func TestBadDDLBlockRefused(t *testing.T) {
	meta := func(tname string, args []types.Value) *types.Transaction {
		return &types.Transaction{Ts: 1, SenID: "mallory", Tname: tname, Args: args}
	}
	table := func(name string, cols ...schema.Column) *types.Transaction {
		tbl, err := schema.NewTable(name, cols)
		if err != nil {
			t.Fatal(err)
		}
		return meta(schema.MetaTable, tbl.EncodeDDL())
	}
	deploy := func(name, stmt string) *types.Transaction {
		c, err := contract.Parse(name, []string{stmt})
		if err != nil {
			t.Fatal(err)
		}
		return meta(contract.MetaTable, c.EncodeDeploy())
	}
	intCol := schema.Column{Name: "x", Kind: types.KindInt}
	intCol2 := schema.Column{Name: "y", Kind: types.KindInt}
	bad := map[string]func(e *Engine) []*types.Transaction{
		"table conflicts with catalog": func(e *Engine) []*types.Transaction {
			return []*types.Transaction{donateTx(t, e, 100), table("donate", intCol)}
		},
		"undecodable schema payload": func(e *Engine) []*types.Transaction {
			return []*types.Transaction{meta(schema.MetaTable, []types.Value{types.Int(1)})}
		},
		"two tables conflict within the block": func(e *Engine) []*types.Transaction {
			return []*types.Transaction{table("fresh", intCol), table("fresh", intCol, intCol2)}
		},
		"contract conflicts with registry": func(e *Engine) []*types.Transaction {
			return []*types.Transaction{deploy("give", `SELECT * FROM transfer`)}
		},
		"undecodable deploy payload": func(e *Engine) []*types.Transaction {
			return []*types.Transaction{meta(contract.MetaTable, []types.Value{types.Int(1)})}
		},
		// The node holds a layered index on donate.amount, the third
		// column; indexing this tuple would run past its arguments.
		"tuple shorter than its table": func(e *Engine) []*types.Transaction {
			return []*types.Transaction{donateTx(t, e, 100), meta("donate", []types.Value{types.Str("solo")})}
		},
		"tuple of the wrong kinds": func(e *Engine) []*types.Transaction {
			return []*types.Transaction{meta("donate", []types.Value{types.Int(1), types.Int(2), types.Str("x")})}
		},
		"short tuple of a table the block itself defines": func(e *Engine) []*types.Transaction {
			return []*types.Transaction{table("fresh", intCol, intCol2), meta("fresh", []types.Value{types.Int(1)})}
		},
	}
	doors := map[string]func(e *Engine, txs []*types.Transaction, ts int64) error{
		"CommitBlock": func(e *Engine, txs []*types.Transaction, ts int64) error {
			_, err := e.CommitBlock(txs, ts)
			return err
		},
		// A foreign block: well-formed, signed and linked to the tip, as
		// a peer would deliver it.
		"ApplyBlock": func(e *Engine, txs []*types.Transaction, ts int64) error {
			return e.ApplyBlock(e.prepareBlock(txs, ts))
		},
	}
	for door, deliver := range doors {
		for name, txs := range bad {
			t.Run(door+"/"+name, func(t *testing.T) {
				cfg := Config{Dir: t.TempDir(), BlockMaxTxs: 4, Clock: clock.Fixed(1)}
				e, err := Open(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer func() { e.Close() }()
				seedDonation(t, e, 16, 4)
				if err := e.DeployContract("org1", "give", []string{`INSERT INTO donate ($sender, $1, $2)`}); err != nil {
					t.Fatal(err)
				}
				if err := e.FlushAt(20_000); err != nil {
					t.Fatal(err)
				}
				if err := e.CreateIndex("donate", "amount"); err != nil {
					t.Fatal(err)
				}
				if err := e.CreateAuthIndex("donate", "donor"); err != nil {
					t.Fatal(err)
				}
				height, epoch, want := e.Height(), e.CurrentView().Epoch(), recoveryFingerprint(t, e)

				if err := deliver(e, txs(e), 30_000); err == nil {
					t.Fatal("a block that cannot be installed was accepted")
				}
				if e.Height() != height || uint64(e.store.Count()) != height {
					t.Fatalf("refused block moved the chain: height %d, store %d, want %d", e.Height(), e.store.Count(), height)
				}
				if got := e.CurrentView().Epoch(); got != epoch {
					t.Errorf("refused block published a view: epoch %d -> %d", epoch, got)
				}
				if _, ok := e.defs.tables["fresh"]; ok {
					t.Error("refused block left a table behind")
				}
				if got := recoveryFingerprint(t, e); got != want {
					t.Errorf("refused block changed query answers:\n--- before ---\n%s--- after ---\n%s", want, got)
				}

				// The node is not wedged: the next good block lands through
				// the same door, and the directory reopens.
				if err := deliver(e, []*types.Transaction{donateTx(t, e, 101)}, 40_000); err != nil {
					t.Fatalf("good block after the refused one: %v", err)
				}
				if e.Height() != height+1 {
					t.Fatalf("height = %d after the good block, want %d", e.Height(), height+1)
				}
				want = recoveryFingerprint(t, e)
				if err := e.Close(); err != nil {
					t.Fatal(err)
				}
				if e, err = Open(cfg); err != nil {
					t.Fatalf("reopen after a refused block: %v", err)
				}
				if got := recoveryFingerprint(t, e); got != want {
					t.Errorf("reopened engine answers differently:\n--- before ---\n%s--- after ---\n%s", want, got)
				}
			})
		}
	}
}

// TestApplyBlockRefusesBrokenMerkleRoot delivers a block linked to the
// tip whose body no longer matches its Merkle root. ApplyBlock is the
// door that validates foreign blocks — the segment store only checks
// linkage — so it must refuse the block, and the height must not move.
func TestApplyBlockRefusesBrokenMerkleRoot(t *testing.T) {
	e := testEngine(t, Config{BlockMaxTxs: 4, Clock: clock.Fixed(1)})
	seedDonation(t, e, 8, 4)
	height := e.Height()
	// As a peer would deliver it: decoded from the wire, then tampered.
	sealed := e.prepareBlock([]*types.Transaction{donateTx(t, e, 100), donateTx(t, e, 101)}, 30_000)
	b, err := types.DecodeBlock(types.NewDecoder(sealed.EncodeBytes()))
	if err != nil {
		t.Fatal(err)
	}
	b.Txs[1].Args[2] = types.Dec(777)
	if err = e.ApplyBlock(b); err == nil || !strings.Contains(err.Error(), "merkle root mismatch") {
		t.Fatalf("ApplyBlock of a block with a broken Merkle root: err = %v", err)
	}
	if e.Height() != height || uint64(e.store.Count()) != height {
		t.Fatalf("refused block moved the chain: height %d, store %d, want %d", e.Height(), e.store.Count(), height)
	}
}

// TestApplyRefusesOutOfOrderBlock delivers three forged blocks linked to
// the tip that would break the order the block-level index bisects: one
// stamped before the tip, one reusing tids already on the chain, and an
// empty one naming a first tid. Each must be refused with the height
// and every GET BLOCK answer unchanged, and the chain must still accept
// the honest next block.
func TestApplyRefusesOutOfOrderBlock(t *testing.T) {
	e := testEngine(t, Config{Clock: clock.Fixed(1)})
	seedDonation(t, e, 20, 5) // tids 1-22; the tip is block 4 at ts 20000
	height := e.Height()
	queries := []string{`GET BLOCK TID=2`, `GET BLOCK TID=3`, `GET BLOCK TID=22`, `GET BLOCK TID=23`,
		`GET BLOCK TS=10`, `GET BLOCK TS=20000`, `GET BLOCK TS=99999`}
	answers := func() string {
		var sb strings.Builder
		for _, q := range queries {
			res, err := e.Execute(q)
			if err != nil {
				fmt.Fprintf(&sb, "%s: %v\n", q, err)
				continue
			}
			fmt.Fprintf(&sb, "%s: %v\n", q, res.Rows)
		}
		return sb.String()
	}
	before := answers()
	tip := e.CurrentView().Tip()
	forge := func(firstTid uint64, n int, ts int64) *types.Block {
		txs := make([]*types.Transaction, n)
		for i := range txs {
			txs[i] = donateTx(t, e, 200+i)
			txs[i].Tid = firstTid + uint64(i)
		}
		return types.NewBlock(tip, txs, ts, "forger")
	}
	early := forge(23, 2, 10)
	reused := forge(3, 2, 30000)
	empty := forge(0, 0, 30000)
	empty.Header.FirstTid = 2
	for name, b := range map[string]*types.Block{"stamped before the tip": early, "reusing tids": reused, "empty with a first tid": empty} {
		err := e.ApplyBlock(b)
		if err == nil {
			t.Errorf("block %s accepted", name)
		}
		t.Logf("block %s: %v", name, err)
		if e.Height() != height || uint64(e.store.Count()) != height {
			t.Fatalf("block %s moved the chain: height %d, store %d, want %d", name, e.Height(), e.store.Count(), height)
		}
		if got := answers(); got != before {
			t.Fatalf("block %s changed GET BLOCK:\n--- before ---\n%s--- after ---\n%s", name, before, got)
		}
	}
	if err := e.ApplyBlock(forge(23, 2, 30000)); err != nil {
		t.Fatalf("the honest next block: %v", err)
	}
	if res := mustExec(t, e, `GET BLOCK TID=23`); res.Rows[0][0] != types.Int(int64(height)) {
		t.Errorf("GET BLOCK TID=23 = %v, want the new block %d", res.Rows[0][0], height)
	}
}
