package core

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"sebdb/internal/auth"
	"sebdb/internal/clock"
	"sebdb/internal/mbtree"
	"sebdb/internal/types"
)

// eagerALI builds, beside the engine's ALI on key, one whose every tree
// is built at append from the transactions of the blocks read back
// from the store — the form an ALI took before trees were built on first
// touch — over the same first-level histogram.
func eagerALI(t *testing.T, e *Engine, key string) *auth.ALI {
	t.Helper()
	v := e.CurrentView()
	spec := splitKey(key)
	var out *auth.ALI
	if h := v.AuthIndex(spec.table, spec.col).Histogram(); h != nil {
		out = auth.NewContinuous(spec.col, h, mbtree.DefaultFanout)
	} else {
		out = auth.NewDiscrete(spec.col, mbtree.DefaultFanout)
	}
	for bid := uint64(0); bid < v.Height(); bid++ {
		b, err := e.store.Block(bid)
		if err != nil {
			t.Fatal(err)
		}
		recs, err := extract(key, v.defs.tables, b, func(v types.Value, _ int, tx *types.Transaction) mbtree.Record {
			return mbtree.Record{Key: v, Payload: tx.EncodeBytes()}
		})
		if err != nil {
			t.Fatal(err)
		}
		out.AppendBlock(bid, recs)
	}
	return out
}

// aliRanges are the ranges compareALIs queries: on amount, whose keys
// are small halves with signed zeros among them, and on donor.
var aliRanges = map[string][][2]types.Value{
	"donate.amount": {
		{types.Dec(0), types.Dec(0)}, {types.Dec(-1), types.Dec(1.5)},
		{types.Dec(3), types.Dec(20)}, {types.Dec(-1e9), types.Dec(1e9)},
	},
	"donate.donor": {
		{types.Str("donor003"), types.Str("donor003")},
		{types.Str("donor001"), types.Str("donor004")}, {types.Str(""), types.Str("~")},
	},
}

// compareALIs checks the engine's ALIs against eager ones built from its
// blocks: no tree built before the first query, then the same VO bytes
// and digest for every range — the engine's trees built on that first
// touch — and the same root for every block.
func compareALIs(t *testing.T, route string, e *Engine) {
	t.Helper()
	v := e.CurrentView()
	for key, ranges := range aliRanges {
		spec := splitKey(key)
		lazy := v.AuthIndex(spec.table, spec.col)
		if lazy == nil {
			t.Fatalf("%s: no ALI on %s", route, key)
		}
		if n := lazy.TreesBuilt(); n != 0 {
			t.Errorf("%s: %s built %d trees before any query", route, key, n)
		}
		eager := eagerALI(t, e, key)
		for _, r := range ranges {
			got, want := auth.Serve(lazy, v.Height(), nil, r[0], r[1]), auth.Serve(eager, v.Height(), nil, r[0], r[1])
			if !bytes.Equal(got.Wire(), want.Wire()) {
				t.Errorf("%s: %s [%v, %v]: answer differs from the eager ALI's (%d vs %d bytes)", route, key, r[0], r[1], got.Size(), want.Size())
			}
			if auth.Digest(lazy, v.Height(), nil, r[0], r[1]) != auth.Digest(eager, v.Height(), nil, r[0], r[1]) {
				t.Errorf("%s: %s [%v, %v]: digest differs from the eager ALI's", route, key, r[0], r[1])
			}
		}
		roots := 0
		for bid := uint64(0); bid < v.Height(); bid++ {
			lr, lok := lazy.Root(bid)
			er, eok := eager.Root(bid)
			if lr != er || lok != eok {
				t.Errorf("%s: %s block %d: root %x (%v), eager %x (%v)", route, key, bid, lr[:4], lok, er[:4], eok)
			}
			if lok {
				roots++
			}
		}
		if roots < 6 {
			t.Errorf("%s: %s: only %d blocks carry a root", route, key, roots)
		}
	}
}

// TestOnDemandALIMatchesEager: every route that builds an ALI — the
// backfill of CreateAuthIndex followed by commits, a checkpoint restore,
// a full replay and a follower applying the leader's blocks — keeps
// runs, builds no tree, and once queried answers with the VO bytes,
// digests and roots of an ALI built eagerly from the same blocks.
func TestOnDemandALIMatchesEager(t *testing.T) {
	cfg := Config{Dir: t.TempDir(), BlockMaxTxs: 16, Clock: clock.Fixed(1)}
	leader := pinnedChain(t, cfg, "amount")
	compareALIs(t, "backfill and commit", leader)

	follower := testEngine(t, Config{BlockMaxTxs: 16, Clock: clock.Fixed(1)})
	for h := uint64(0); h < leader.Height(); h++ {
		b, err := leader.Block(h)
		if err != nil {
			t.Fatal(err)
		}
		if err := follower.ApplyBlock(b); err != nil {
			t.Fatalf("apply block %d: %v", h, err)
		}
	}
	compareALIs(t, "follower apply", follower)

	if err := leader.WriteCheckpoint(); err != nil {
		t.Fatal(err)
	}
	if err := leader.Close(); err != nil {
		t.Fatal(err)
	}
	for _, route := range []struct {
		name   string
		replay bool
	}{{"checkpoint restore", false}, {"full replay", true}} {
		c := cfg
		c.DisableCheckpointLoad = route.replay
		e, err := Open(c)
		if err != nil {
			t.Fatal(err)
		}
		compareALIs(t, route.name, e)
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReadsBuildNoTree: SELECT, TRACE and GET BLOCK on a node with an
// ALI never touch its trees — only a verified query builds one, which
// is what keeps a node that serves no thin client from holding them.
func TestReadsBuildNoTree(t *testing.T) {
	e := testEngine(t, Config{HistogramDepth: 10})
	seedDonation(t, e, 60, 10)
	if err := e.CreateAuthIndex("donate", "amount"); err != nil {
		t.Fatal(err)
	}
	if err := e.CreateIndex("donate", "amount"); err != nil {
		t.Fatal(err)
	}
	mustExec(t, e, `INSERT INTO donate ("late", "p", 3.5)`)
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{
		`SELECT * FROM donate WHERE amount BETWEEN 5 AND 25`,
		`SELECT * FROM donate WHERE donor = "donor003"`,
		`TRACE OPERATOR = "org1"`,
		`TRACE OPERATION = "donate"`,
		`GET BLOCK ID=2`,
		`GET BLOCK TID=7`,
	} {
		mustExec(t, e, sql)
	}
	ali := e.CurrentView().AuthIndex("donate", "amount")
	if n := ali.TreesBuilt(); n != 0 {
		t.Errorf("reads built %d MB-trees", n)
	}
	if _, ok := ali.Root(1); !ok || ali.TreesBuilt() != 1 {
		t.Errorf("Root built %d trees, want 1", ali.TreesBuilt())
	}
}

// TestFirstTouchRace runs verified queries — Serve, Digest, the client's
// check — on pinned views while blocks commit, so first touches of the
// same blocks race each other and the appends. Meant for -race; every
// answer must still verify to its view's digest.
func TestFirstTouchRace(t *testing.T) {
	e := testEngine(t, Config{HistogramDepth: 10})
	seedDonation(t, e, 40, 10)
	if err := e.CreateAuthIndex("donate", "amount"); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				v := e.CurrentView()
				ali := v.AuthIndex("donate", "amount")
				lo := types.Dec(float64((i*7 + r*11) % 60))
				hi := types.Dec(lo.F + 9)
				ans := auth.Serve(ali, v.Height(), nil, lo, hi)
				d, _, err := auth.VerifyAnswer(ans, lo, hi)
				if err == nil && d != auth.Digest(ali, v.Height(), nil, lo, hi) {
					err = fmt.Errorf("answer at height %d does not match the digest", v.Height())
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	for i := 0; i < 8; i++ {
		var batch []*types.Transaction
		for j := 0; j < 10; j++ {
			batch = append(batch, donateTx(t, e, 100+i*10+j))
		}
		if _, err := e.CommitBlock(batch, int64(1000+i)*1000); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
