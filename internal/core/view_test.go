package core

import (
	"bytes"
	"slices"
	"sync"
	"testing"

	"sebdb/internal/auth"
	"sebdb/internal/clock"
	"sebdb/internal/exec"
	"sebdb/internal/faultfs"
	"sebdb/internal/index/blockindex"
	"sebdb/internal/sqlparser"
	"sebdb/internal/types"
)

// TestViewPinnedBeforeCommitServesOldHeight is the tentpole's regression
// anchor: a view pinned before a run of commits keeps answering at its
// own height — same block count, same rows — while the engine's current
// view moves on.
func TestViewPinnedBeforeCommitServesOldHeight(t *testing.T) {
	e := testEngine(t, Config{BlockMaxTxs: 4, Clock: clock.Fixed(1)})
	seedDonation(t, e, 20, 4)

	v := e.CurrentView()
	h0, epoch0 := v.Height(), v.Epoch()
	if h0 != e.Height() {
		t.Fatalf("pinned view height %d, engine height %d", h0, e.Height())
	}
	txs, _, err := exec.Select(v, "donate", nil, nil, exec.MethodBitmap)
	if err != nil {
		t.Fatal(err)
	}
	if len(txs) != 20 {
		t.Fatalf("pinned view served %d rows, want 20", len(txs))
	}

	for i := 20; i < 40; i += 4 {
		batch := make([]*types.Transaction, 4)
		for j := range batch {
			batch[j] = donateTx(t, e, i+j)
		}
		if _, err := e.CommitBlock(batch, int64(i+4)*1000); err != nil {
			t.Fatal(err)
		}
	}

	cur := e.CurrentView()
	if cur.Height() != h0+5 {
		t.Errorf("current view height %d, want %d", cur.Height(), h0+5)
	}
	if cur.Epoch() <= epoch0 {
		t.Errorf("epoch did not advance: pinned %d, current %d", epoch0, cur.Epoch())
	}
	// The old view is frozen: height, block bound and served rows.
	if v.Height() != h0 || v.NumBlocks() != int(h0) {
		t.Errorf("pinned view moved: height %d, blocks %d, want %d", v.Height(), v.NumBlocks(), h0)
	}
	if _, err := v.Block(h0); err == nil {
		t.Error("pinned view served a block beyond its height")
	}
	txs, _, err = exec.Select(v, "donate", nil, nil, exec.MethodBitmap)
	if err != nil {
		t.Fatal(err)
	}
	if len(txs) != 20 {
		t.Errorf("pinned view served %d rows after commits, want 20", len(txs))
	}
	txs, _, err = exec.Select(cur, "donate", nil, nil, exec.MethodBitmap)
	if err != nil {
		t.Fatal(err)
	}
	if len(txs) != 40 {
		t.Errorf("current view served %d rows, want 40", len(txs))
	}
}

// TestViewBlockIdxPinned: a view's block-level index answers over its
// own prefix [0, h) while commits extend the chain past it.
func TestViewBlockIdxPinned(t *testing.T) {
	e := testEngine(t, Config{BlockMaxTxs: 4, Clock: clock.Fixed(1)})
	seedDonation(t, e, 8, 4) // block 0 schema (tids 1-2), 1 at 4000 (3-6), 2 at 8000 (7-10)
	v := e.CurrentView()
	if v.Height() != 3 {
		t.Fatalf("height %d, want 3", v.Height())
	}
	for _, c := range []struct {
		txs []*types.Transaction
		ts  int64
	}{
		{[]*types.Transaction{donateTx(t, e, 50), donateTx(t, e, 51)}, 9000}, // block 3: tids 11-12
		{nil, 10000}, // block 4
		{[]*types.Transaction{donateTx(t, e, 52)}, 12000}, // block 5: tid 13
	} {
		if _, err := e.CommitBlock(c.txs, c.ts); err != nil {
			t.Fatal(err)
		}
	}
	old, cur := v.BlockIdx(), e.CurrentView().BlockIdx()
	if old.Count() != 3 || cur.Count() != 6 {
		t.Fatalf("Count: pinned %d, current %d", old.Count(), cur.Count())
	}
	if tip := v.Tip(); tip == nil || tip.Height != 2 {
		t.Errorf("pinned tip = %+v", tip)
	}
	for _, c := range []struct {
		tid      uint64
		old, cur int64 // -1: no block
	}{{10, 2, 2}, {11, -1, 3}, {13, -1, 5}, {14, -1, -1}} {
		for _, x := range []struct {
			idx  blockindex.Index
			want int64
		}{{old, c.old}, {cur, c.cur}} {
			bid, ok := x.idx.ByTid(c.tid)
			if ok != (x.want >= 0) || (ok && int64(bid) != x.want) {
				t.Errorf("height %d: ByTid(%d) = %d,%v; want %d", x.idx.Count(), c.tid, bid, ok, x.want)
			}
		}
	}
	for _, c := range []struct {
		ts       int64
		old, cur uint64
	}{{8000, 2, 2}, {9000, 2, 3}, {1 << 40, 2, 5}} {
		if bid, _ := old.ByTime(c.ts); bid != c.old {
			t.Errorf("pinned ByTime(%d) = %d, want %d", c.ts, bid, c.old)
		}
		if bid, _ := cur.ByTime(c.ts); bid != c.cur {
			t.Errorf("current ByTime(%d) = %d, want %d", c.ts, bid, c.cur)
		}
	}
	if got := old.TimeWindow(8500, 0).Slice(); len(got) != 0 {
		t.Errorf("pinned TimeWindow(8500, 0) = %v", got)
	}
	if got := cur.TimeWindow(8500, 0).Slice(); !slices.Equal(got, []int{3, 4, 5}) {
		t.Errorf("current TimeWindow(8500, 0) = %v", got)
	}
	if got := old.TimeWindow(0, 0).Slice(); !slices.Equal(got, []int{0, 1, 2}) {
		t.Errorf("pinned TimeWindow(0, 0) = %v", got)
	}
	if got := v.TableBlocks("donate").Slice(); !slices.Equal(got, []int{1, 2}) {
		t.Errorf("pinned TableBlocks(donate) = %v", got)
	}
}

// TestPublishAllocsFlat: publishing a view after a data-only commit
// allocates the View and the next height signal, nothing that grows with
// the chain.
func TestPublishAllocsFlat(t *testing.T) {
	for _, n := range []int{10, 1000} {
		e := testEngine(t, Config{Clock: clock.Fixed(1)})
		seedDonation(t, e, 8, 4)
		for i := 0; i < n; i++ {
			if _, err := e.CommitBlock(nil, int64(i+10)*1000); err != nil {
				t.Fatal(err)
			}
		}
		e.mu.Lock()
		allocs := testing.AllocsPerRun(100, e.publishViewLocked)
		e.mu.Unlock()
		if allocs > 2 {
			t.Errorf("%d blocks: a publish makes %.1f allocations, want at most 2", e.Height(), allocs)
		}
	}
}

// TestViewPinsIndexMembership pins the membership rule: an index created
// after a view was published is not visible through it, while the next
// published view carries it.
func TestViewPinsIndexMembership(t *testing.T) {
	e := testEngine(t, Config{BlockMaxTxs: 4, Clock: clock.Fixed(1)})
	seedDonation(t, e, 8, 4)

	before := e.CurrentView()
	if err := e.CreateIndex("donate", "amount"); err != nil {
		t.Fatal(err)
	}
	if err := e.CreateAuthIndex("donate", "amount"); err != nil {
		t.Fatal(err)
	}
	if before.Layered("donate", "amount") != nil || before.AuthIndex("donate", "amount") != nil {
		t.Error("index created after the pin is visible through the old view")
	}
	after := e.CurrentView()
	if after.Layered("donate", "amount") == nil || after.AuthIndex("donate", "amount") == nil {
		t.Error("index creation did not republish the view")
	}
}

// rehearseMutationWindow opens a throwaway engine, runs setup, counts
// the injector ops consumed, then runs act and returns the half-open
// mutation window [m0, m1) that act's filesystem writes occupy. Crash
// runs replay the same sequence against a fresh directory, so pinning
// OpsBeforeCrash inside the window lands the crash inside act.
func rehearseMutationWindow(t *testing.T, setup, act func(e *Engine)) (m0, m1 int) {
	t.Helper()
	inj := faultfs.New(faultfs.Options{OpsBeforeCrash: -1})
	e := testEngine(t, Config{BlockMaxTxs: 1, FS: inj, Clock: clock.Fixed(1)})
	setup(e)
	m0 = inj.Mutations()
	act(e)
	m1 = inj.Mutations()
	if m1 <= m0 {
		t.Fatalf("rehearsal: act performed no mutations (window [%d, %d))", m0, m1)
	}
	return m0, m1
}

// TestCreateRollsBackWhenAppendFails forces the block append under
// execCreate's submit to fail at every possible write and checks the
// local registration is rolled back each time: the catalog would
// otherwise claim a table the chain never defines.
func TestCreateRollsBackWhenAppendFails(t *testing.T) {
	const ddl = `CREATE donate (donor string, project string, amount decimal)`
	m0, m1 := rehearseMutationWindow(t,
		func(e *Engine) {},
		func(e *Engine) { mustExec(t, e, ddl) })

	for k := m0; k < m1; k++ {
		inj := faultfs.New(faultfs.Options{OpsBeforeCrash: k})
		e := testEngine(t, Config{BlockMaxTxs: 1, FS: inj, Clock: clock.Fixed(1)})
		if _, err := e.Execute(ddl); err == nil {
			t.Fatalf("k=%d: CREATE succeeded through a crashed append", k)
		}
		if _, ok := e.defs.tables["donate"]; ok {
			t.Errorf("k=%d: catalog still defines the table after the failed submit", k)
		}
		if e.CurrentView().HasTable("donate") {
			t.Errorf("k=%d: published view still serves the table after the rollback", k)
		}
	}
}

// TestDeployContractRollsBackWhenAppendFails is the contract analog:
// a deployment whose transaction never reaches the chain must leave the
// registry (and the published view) without the contract.
func TestDeployContractRollsBackWhenAppendFails(t *testing.T) {
	statements := []string{`INSERT INTO donate ($sender, $1, $2)`}
	setup := func(e *Engine) {
		mustExec(t, e, `CREATE donate (donor string, project string, amount decimal)`)
	}
	m0, m1 := rehearseMutationWindow(t, setup,
		func(e *Engine) {
			if err := e.DeployContract("charity", "give", statements); err != nil {
				t.Fatal(err)
			}
		})

	for k := m0; k < m1; k++ {
		inj := faultfs.New(faultfs.Options{OpsBeforeCrash: k})
		e := testEngine(t, Config{BlockMaxTxs: 1, FS: inj, Clock: clock.Fixed(1)})
		setup(e)
		if err := e.DeployContract("charity", "give", statements); err == nil {
			t.Fatalf("k=%d: deployment succeeded through a crashed append", k)
		}
		if _, ok := e.defs.contracts["give"]; ok {
			t.Errorf("k=%d: registry still holds the contract after the failed submit", k)
		}
		if _, err := e.CurrentView().Contract("give"); err == nil {
			t.Errorf("k=%d: published view still serves the contract after the rollback", k)
		}
	}
}

// TestRepeatedDefinitionKeptWhenAppendFails: a CREATE or a deployment
// that repeats one the chain already holds adds nothing when it
// registers, so when its own append fails there is nothing to roll
// back — the table and the contract stay, as the chain defines them.
func TestRepeatedDefinitionKeptWhenAppendFails(t *testing.T) {
	const ddl = `CREATE donate (donor string, project string, amount decimal)`
	statements := []string{`INSERT INTO donate ($sender, $1, $2)`}
	setup := func(e *Engine) {
		mustExec(t, e, ddl)
		if err := e.DeployContract("charity", "give", statements); err != nil {
			t.Fatal(err)
		}
	}
	for what, repeat := range map[string]func(e *Engine) error{
		"CREATE": func(e *Engine) error { _, err := e.Execute(ddl); return err },
		"DeployContract": func(e *Engine) error {
			return e.DeployContract("charity", "give", statements)
		},
	} {
		m0, m1 := rehearseMutationWindow(t, setup, func(e *Engine) {
			if err := repeat(e); err != nil {
				t.Fatal(err)
			}
		})
		for k := m0; k < m1; k++ {
			inj := faultfs.New(faultfs.Options{OpsBeforeCrash: k})
			e := testEngine(t, Config{BlockMaxTxs: 1, FS: inj, Clock: clock.Fixed(1)})
			setup(e)
			if err := repeat(e); err == nil {
				t.Fatalf("%s k=%d: the repeat succeeded through a crashed append", what, k)
			}
			v := e.CurrentView()
			if !v.HasTable("donate") {
				t.Errorf("%s k=%d: the view lost the table the chain defines", what, k)
			}
			if _, err := v.Contract("give"); err != nil {
				t.Errorf("%s k=%d: the view lost the contract the chain defines", what, k)
			}
		}
	}
}

// TestCreateKeptWhenOnlyFsyncFails pins the other half of the rollback
// condition: when the block committed and only the group fsync failed,
// the transaction is on the chain, so the local registration must stay
// — rolling it back would diverge from what every peer replays.
func TestCreateKeptWhenOnlyFsyncFails(t *testing.T) {
	inj := faultfs.New(faultfs.Options{OpsBeforeCrash: -1, SyncErrors: true})
	e := testEngine(t, Config{BlockMaxTxs: 1, Sync: true, FS: inj, Clock: clock.Fixed(1)})

	if _, err := e.Execute(`CREATE donate (donor string, project string, amount decimal)`); err == nil {
		t.Fatal("CREATE reported success despite the failed fsync")
	}
	if _, ok := e.defs.tables["donate"]; !ok {
		t.Error("committed table was rolled back on a sync-only failure")
	}
	if !e.CurrentView().HasTable("donate") {
		t.Error("published view lost the committed table")
	}
	if e.Height() != 1 {
		t.Errorf("height = %d, want 1 (the DDL block committed)", e.Height())
	}

	if err := e.DeployContract("charity", "give", []string{`INSERT INTO donate ($sender, $1, $2)`}); err == nil {
		t.Fatal("deployment reported success despite the failed fsync")
	}
	if _, ok := e.defs.contracts["give"]; !ok {
		t.Error("committed contract was rolled back on a sync-only failure")
	}
	if _, err := e.CurrentView().Contract("give"); err != nil {
		t.Error("published view lost the committed contract")
	}
}

// TestViewReadStressSingleHeight hammers the read paths — SELECT,
// TRACE, EXPLAIN and thin-client VO generation — against an engine
// that is simultaneously committing blocks and building checkpoints.
// Every reader pins views and demands answers exactly consistent with
// one published height; run with -race this is the tentpole's
// lock-discipline and torn-read regression test.
func TestViewReadStressSingleHeight(t *testing.T) {
	e := testEngine(t, Config{BlockMaxTxs: 4, Parallelism: 4, CheckpointInterval: 5, Clock: clock.Fixed(1)})
	seedDonation(t, e, 20, 4)
	if err := e.CreateIndex("donate", "amount"); err != nil {
		t.Fatal(err)
	}
	if err := e.CreateAuthIndex("donate", "amount"); err != nil {
		t.Fatal(err)
	}

	const rounds = 40
	base := e.Height()
	// Row count as a function of height: blocks past the seed hold 4
	// donate rows each.
	rowsAt := func(h uint64) int {
		if h < base {
			t.Fatalf("observed height %d below the seeded base %d", h, base)
		}
		return 20 + 4*int(h-base)
	}
	// org1 donations among the first n rows (donateTx assigns org i%3).
	traceAt := func(n int) int { return (n + 1) / 3 }
	// The set of legal whole-statement answers: any published height.
	validRows := make(map[int]bool)
	validTrace := make(map[int]bool)
	for h := base; h <= base+rounds; h++ {
		validRows[rowsAt(h)] = true
		validTrace[traceAt(rowsAt(h))] = true
	}

	done := make(chan struct{})
	var writers, readers sync.WaitGroup

	writers.Add(1)
	go func() {
		defer writers.Done()
		for i := 0; i < rounds; i++ {
			batch := make([]*types.Transaction, 4)
			for j := range batch {
				batch[j] = donateTx(t, e, 20+i*4+j)
			}
			if _, err := e.CommitBlock(batch, int64(21+i)*1000); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var lastHeight uint64
			for {
				select {
				case <-done:
					return
				default:
				}
				// A pinned view answers exactly at its own height, and
				// published heights are monotone per reader.
				v := e.CurrentView()
				if v.Height() < lastHeight {
					t.Errorf("view height went backwards: %d after %d", v.Height(), lastHeight)
					return
				}
				lastHeight = v.Height()
				// The block-level index and the tip read the pinned header
				// prefix while the writer appends past it: every block past
				// the seed holds transactions, so the newest block owns the
				// view's last tid and is the newest at any later time.
				bx, top := v.BlockIdx(), v.Height()-1
				if tip := v.Tip(); tip == nil || tip.Height != top {
					t.Errorf("view at height %d has tip %+v", v.Height(), tip)
					return
				}
				if bid, ok := bx.ByTid(v.LastTid()); !ok || bid != top {
					t.Errorf("view at height %d: ByTid(%d) = %d,%v", v.Height(), v.LastTid(), bid, ok)
					return
				}
				if bid, ok := bx.ByTime(1 << 62); !ok || bid != top {
					t.Errorf("view at height %d: ByTime = %d,%v", v.Height(), bid, ok)
					return
				}
				if n := bx.TimeWindow(0, 0).Count(); n != int(v.Height()) {
					t.Errorf("view at height %d: open window covers %d blocks", v.Height(), n)
					return
				}
				txs, _, err := exec.Select(v, "donate", nil, nil, exec.MethodBitmap)
				if err != nil {
					t.Error(err)
					return
				}
				if want := rowsAt(v.Height()); len(txs) != want {
					t.Errorf("view at height %d served %d rows, want %d", v.Height(), len(txs), want)
					return
				}
				// Whole statements pin their own views; their answers must
				// match some published height.
				res, err := e.Execute(`SELECT * FROM donate WHERE amount >= 0`)
				if err != nil {
					t.Error(err)
					return
				}
				if !validRows[len(res.Rows)] {
					t.Errorf("SELECT answered %d rows — no published height serves that", len(res.Rows))
					return
				}
				res, err = e.Execute(`TRACE OPERATOR = "org1"`)
				if err != nil {
					t.Error(err)
					return
				}
				if !validTrace[len(res.Rows)] {
					t.Errorf("TRACE answered %d rows — no published height serves that", len(res.Rows))
					return
				}
				if _, err := e.Execute(`EXPLAIN SELECT * FROM donate WHERE amount BETWEEN 3 AND 40`); err != nil {
					t.Error(err)
					return
				}
				// Thin-client VO generation from a pinned view: the answer
				// verifies and covers exactly the pinned height's rows.
				v = e.CurrentView()
				ali := v.AuthIndex("donate", "amount")
				if ali == nil {
					t.Error("view lost the ALI")
					return
				}
				lo, hi := types.Dec(0), types.Dec(1_000_000)
				ans := auth.Serve(ali, v.Height(), nil, lo, hi)
				digest, txs2, err := auth.VerifyAnswer(ans, lo, hi)
				if err != nil {
					t.Errorf("VO verification failed: %v", err)
					return
				}
				if want := rowsAt(v.Height()); len(txs2) != want {
					t.Errorf("VO at height %d carried %d rows, want %d", v.Height(), len(txs2), want)
					return
				}
				if digest != auth.Digest(ali, v.Height(), nil, lo, hi) {
					t.Error("VO digest diverges from the auxiliary digest at the same height")
					return
				}
			}
		}()
	}

	writers.Wait()
	close(done)
	readers.Wait()

	if got := e.CurrentView().Height(); got != base+rounds {
		t.Errorf("final view height %d, want %d", got, base+rounds)
	}
}

// TestFilteredRowsOutliveReadBuffers is the aliasing guard of the
// filtered scan: keep sees transactions whose strings alias pooled read
// buffers, the rows a scan returns must not. Overwriting those buffers —
// by the same goroutine's next reads, then by concurrent scans — leaves
// every returned row byte-identical. verify.sh runs it under -race.
func TestFilteredRowsOutliveReadBuffers(t *testing.T) {
	for _, compressed := range []bool{false, true} {
		e := testEngine(t, Config{SegmentSize: 2048, BlockMaxTxs: 5, Parallelism: 4})
		seedDonation(t, e, 200, 5)
		if compressed {
			if err := e.CompressSealed(1); err != nil {
				t.Fatal(err)
			}
		}
		v := e.CurrentView()
		preds := []sqlparser.Pred{{Col: "donor", Op: sqlparser.OpEq, Val: types.Str("donor003")}}
		rows, _, err := exec.Select(v, "donate", preds, nil, exec.MethodScan)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 20 {
			t.Fatalf("fixture: %d rows, want 20", len(rows))
		}
		want := encodeAll(rows)

		overwrite := func() {
			for bid := uint64(0); bid < uint64(v.NumBlocks()); bid++ {
				if _, _, err := v.FilterBlock(bid, func(*types.Transaction) (bool, error) { return true, nil }); err != nil {
					t.Error(err)
					return
				}
			}
		}
		overwrite()
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				overwrite()
				if _, _, err := exec.Select(v, "donate", nil, nil, exec.MethodScan); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		for i, got := range encodeAll(rows) {
			if !bytes.Equal(got, want[i]) {
				t.Fatalf("compressed=%v: row %d changed after its read buffers were reused", compressed, i)
			}
			if rows[i].Args[0].S != "donor003" {
				t.Fatalf("compressed=%v: row %d donor now %q", compressed, i, rows[i].Args[0].S)
			}
		}
	}
}
