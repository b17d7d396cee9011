package core

import (
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"sebdb/internal/auth"
	"sebdb/internal/clock"
	"sebdb/internal/contract"
	"sebdb/internal/index/bitmap"
	"sebdb/internal/schema"
	"sebdb/internal/types"
)

// seededFrameDigest is the SHA-256 of the whole-state frame
// TestCheckpointFramePinned encodes, as the B+-tree second level
// produced it. The frame records every layered index block by block as
// its (key, pos) sequence in key order, so a change to how a block's
// second level is stored must leave this value alone.
const seededFrameDigest = "39a6be1c92ab1349c9a006ab7be3e1d2d9a0c451eff75d1093eb545ec3062e1a"

// pinnedChain builds the seeded chain TestCheckpointFramePinned pins: a
// continuous and a discrete layered index and a discrete ALI created
// after 48 rows, plus any further ALIs on the columns named in alis, then
// six more blocks whose keys repeat out of order, signed zeros among
// them. The histogram is sampled over the first part only, so a route
// that resampled it over the whole chain would bucket differently.
func pinnedChain(t *testing.T, cfg Config, alis ...string) *Engine {
	t.Helper()
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seedDonation(t, e, 48, 8)
	for _, col := range []string{"amount", "donor"} {
		if err := e.CreateIndex("donate", col); err != nil {
			t.Fatal(err)
		}
	}
	for _, col := range append([]string{"donor"}, alis...) {
		if err := e.CreateAuthIndex("donate", col); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewPCG(25, 1))
	for b := 0; b < 6; b++ {
		batch := make([]*types.Transaction, 16)
		for j := range batch {
			amount := float64(rng.IntN(6)) / 2
			if amount == 0 && rng.IntN(2) == 0 {
				amount = math.Copysign(0, -1)
			}
			tx, err := e.NewTransaction(fmt.Sprintf("org%d", rng.IntN(4)), "donate", []types.Value{
				types.Str(fmt.Sprintf("donor%03d", rng.IntN(5))),
				types.Str("health"),
				types.Dec(amount),
			})
			if err != nil {
				t.Fatal(err)
			}
			tx.Ts = int64(100+b) * 1000
			batch[j] = tx
		}
		if _, err := e.CommitBlock(batch, int64(100+b)*1000); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// frameDigest hashes the engine's whole-state checkpoint frame.
func frameDigest(t *testing.T, e *Engine) string {
	t.Helper()
	c, err := e.BuildCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(c.Encode()))
}

// TestCheckpointFramePinned encodes the whole-state checkpoint of the
// seeded pinnedChain and checks it hashes to seededFrameDigest, both on
// the engine that built the chain and on one restored from the
// checkpoint.
func TestCheckpointFramePinned(t *testing.T) {
	cfg := Config{Dir: t.TempDir(), BlockMaxTxs: 16, Clock: clock.Fixed(1)}
	e := pinnedChain(t, cfg)
	if got := frameDigest(t, e); got != seededFrameDigest {
		t.Errorf("frame digest %s, want %s", got, seededFrameDigest)
	}
	if err := e.WriteCheckpoint(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	restored, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if got := frameDigest(t, restored); got != seededFrameDigest {
		t.Errorf("restored engine's frame digest %s, want %s", got, seededFrameDigest)
	}
}

// TestCheckpointFramePinnedByFullReplay: the same chain reopened by full
// replay, with no checkpoint to restore from, comes back to the same
// frame. The continuous index's histogram is part of its definition, so
// the replay buckets every block with the bounds its creator sampled —
// not with a resample over the six blocks committed since.
func TestCheckpointFramePinnedByFullReplay(t *testing.T) {
	cfg := Config{Dir: t.TempDir(), BlockMaxTxs: 16, Clock: clock.Fixed(1)}
	e := pinnedChain(t, cfg)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	cfg.DisableCheckpointLoad = true
	replayed, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer replayed.Close()
	if got := frameDigest(t, replayed); got != seededFrameDigest {
		t.Errorf("full replay's frame digest %s, want %s", got, seededFrameDigest)
	}
}

// TestCandidatesAgreeAcrossRecoveryRoutes: on the pinned chain with a
// continuous ALI beside the discrete one, the live engine, a checkpoint
// restore, a full replay and a fresh engine fed the blocks through
// ApplyBlock pick the same candidate blocks at both first levels and
// authenticate every range to the same digest — a node that restarted
// keeps agreeing with auxiliaries that did not. Each also holds the
// table-level bitmaps a brute-force scan of the blocks finds: TableBlocks
// for every Tname, reserved ones included, and the SenID index's first
// level for every sender. Both are checked at two heights: the pinned
// chain's, and after a new table, a contract and a new sender, through a
// view pinned at each — the first one's answers are cut below blocks the
// live bitmaps hold by then.
func TestCandidatesAgreeAcrossRecoveryRoutes(t *testing.T) {
	dir, early := t.TempDir(), t.TempDir()
	cfg := Config{Dir: dir, BlockMaxTxs: 16, Clock: clock.Fixed(1)}
	ranges := [][2]types.Value{
		{types.Dec(0), types.Dec(0)},
		{types.Dec(0.5), types.Dec(1.5)},
		{types.Dec(2), types.Dec(2.5)},
		{types.Dec(0.1), types.Dec(0.4)},
		{types.Dec(2.6), types.Dec(2.9)},
		{types.Dec(10), types.Dec(30)},
		{types.Dec(-1), types.Dec(100)},
	}
	// names are every Tname and SenID of the whole chain, so a name the
	// first height lacks must come back empty there.
	names := map[string]map[string]bool{"tname": {}, "senid": {}}
	// answers cuts the live first levels at the view's height, as every
	// reader of a view does.
	answers := func(v *View) string {
		var sb strings.Builder
		h := v.Height()
		upto := bitmap.Upto(int(h))
		amount := v.Layered("donate", "amount")
		ali, donors := v.AuthIndex("donate", "amount"), v.AuthIndex("donate", "donor")
		if amount == nil || ali == nil || donors == nil {
			t.Fatal("an index of the pinned chain is missing")
		}
		for _, r := range ranges {
			fmt.Fprintf(&sb, "[%v,%v] layered %v ali %v digest %x\n", r[0], r[1],
				amount.CandidateBlocks(r[0], r[1]).And(upto).Slice(), ali.CandidateBlocks(r[0], r[1]).And(upto).Slice(),
				auth.Digest(ali, h, nil, r[0], r[1]))
		}
		lo, hi := types.Str("donor001"), types.Str("donor003")
		fmt.Fprintf(&sb, "donors %x\n", auth.Digest(donors, h, nil, lo, hi))
		return sb.String()
	}
	bitmaps := func(route string, v *View) {
		t.Helper()
		want := map[string]map[string][]int{"tname": {}, "senid": {}}
		for bid := 0; bid < v.NumBlocks(); bid++ {
			b, err := v.Block(uint64(bid))
			if err != nil {
				t.Fatal(err)
			}
			for _, tx := range b.Txs {
				for col, name := range map[string]string{"tname": tx.Tname, "senid": tx.SenID} {
					if ids := want[col][name]; len(ids) == 0 || ids[len(ids)-1] != bid {
						want[col][name] = append(ids, bid)
					}
				}
			}
		}
		senid := v.Layered("", "senid")
		for col, all := range names {
			for name := range all {
				got := v.TableBlocks(name).Slice()
				if col == "senid" {
					got = senid.ValueBlocks(types.Str(name)).And(bitmap.Upto(v.NumBlocks())).Slice()
				}
				if !slices.Equal(got, want[col][name]) {
					t.Errorf("%s at height %d: %s %q blocks %v, the blocks hold it in %v", route, v.Height(), col, name, got, want[col][name])
				}
			}
		}
	}

	e := pinnedChain(t, cfg, "amount")
	if err := e.WriteCheckpoint(); err != nil {
		t.Fatal(err)
	}
	copyTree(t, dir, early)
	pinned := e.CurrentView()
	mustExec(t, e, `CREATE gift (donor string, amount decimal)`)
	if err := e.DeployContract("org7", "give", []string{`INSERT INTO gift ($sender, $1)`}); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	var batch []*types.Transaction
	for i, tname := range []string{"gift", "transfer", "donate"} {
		args := []types.Value{types.Str("donor009"), types.Dec(float64(i))}
		if tname != "gift" {
			args = append([]types.Value{types.Str("health")}, args...)
		}
		if tname == "transfer" {
			args = append(args, types.Dec(1))
			args[2] = types.Str("ngo")
		}
		tx, err := e.NewTransaction("org7", tname, args)
		if err != nil {
			t.Fatal(err)
		}
		batch = append(batch, tx)
	}
	if _, err := e.CommitBlock(batch, 200_000); err != nil {
		t.Fatal(err)
	}
	if err := e.WriteCheckpoint(); err != nil {
		t.Fatal(err)
	}
	tip := e.CurrentView()
	for bid := 0; bid < tip.NumBlocks(); bid++ {
		b, err := tip.Block(uint64(bid))
		if err != nil {
			t.Fatal(err)
		}
		for _, tx := range b.Txs {
			names["tname"][tx.Tname], names["senid"][tx.SenID] = true, true
		}
	}
	for _, name := range []string{"gift", schema.MetaTable, contract.MetaTable, indexTable} {
		if !names["tname"][name] {
			t.Fatalf("the chain holds no %s transaction", name)
		}
	}
	live := []string{answers(pinned), answers(tip)}
	views := map[string][]*View{"live": {pinned, tip}}

	for _, disable := range []bool{false, true} {
		route := map[bool]string{false: "checkpoint restore", true: "full replay"}[disable]
		for _, d := range []string{early, dir} {
			c := cfg
			c.Dir, c.DisableCheckpointLoad = d, disable
			r, err := Open(c)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			views[route] = append(views[route], r.CurrentView())
		}
	}
	applied, err := Open(Config{Dir: t.TempDir(), BlockMaxTxs: 16, Clock: clock.Fixed(1)})
	if err != nil {
		t.Fatal(err)
	}
	defer applied.Close()
	for bid := uint64(0); bid < tip.Height(); bid++ {
		if bid == pinned.Height() {
			views["ApplyBlock"] = append(views["ApplyBlock"], applied.CurrentView())
		}
		b, err := tip.Block(bid)
		if err == nil {
			err = applied.ApplyBlock(b)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	views["ApplyBlock"] = append(views["ApplyBlock"], applied.CurrentView())

	for route, vs := range views {
		for i, v := range vs {
			if want := []*View{pinned, tip}[i].Height(); v.Height() != want {
				t.Fatalf("%s: view %d at height %d, want %d", route, i, v.Height(), want)
			}
			if got := answers(v); got != live[i] {
				t.Errorf("%s at height %d answers\n%s, the live engine\n%s", route, v.Height(), got, live[i])
			}
			bitmaps(route, v)
		}
	}
}
