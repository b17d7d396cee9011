package core

import (
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"sebdb/internal/auth"
	"sebdb/internal/clock"
	"sebdb/internal/types"
)

// seededFrameDigest is the SHA-256 of the whole-state frame
// TestCheckpointFramePinned encodes, as the B+-tree second level
// produced it. The frame records every layered index block by block as
// its (key, pos) sequence in key order, so a change to how a block's
// second level is stored must leave this value alone.
const seededFrameDigest = "9667e339eb667eefcf6012f0f2e93ef5b317fedbaac21ca4c13710ef9db56ba5"

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
// restore and a full replay pick the same candidate blocks at both
// first levels and authenticate every range to the same digest — a
// node that restarted keeps agreeing with auxiliaries that did not.
func TestCandidatesAgreeAcrossRecoveryRoutes(t *testing.T) {
	cfg := Config{Dir: t.TempDir(), BlockMaxTxs: 16, Clock: clock.Fixed(1)}
	ranges := [][2]types.Value{
		{types.Dec(0), types.Dec(0)},
		{types.Dec(0.5), types.Dec(1.5)},
		{types.Dec(2), types.Dec(2.5)},
		{types.Dec(0.1), types.Dec(0.4)},
		{types.Dec(2.6), types.Dec(2.9)},
		{types.Dec(10), types.Dec(30)},
		{types.Dec(-1), types.Dec(100)},
	}
	answers := func(e *Engine) string {
		var sb strings.Builder
		v := e.CurrentView()
		h := v.Height()
		amount := v.Layered("donate", "amount")
		ali, donors := v.AuthIndex("donate", "amount"), v.AuthIndex("donate", "donor")
		if amount == nil || ali == nil || donors == nil {
			t.Fatal("an index of the pinned chain is missing")
		}
		for _, r := range ranges {
			fmt.Fprintf(&sb, "[%v,%v] layered %v ali %v digest %x\n", r[0], r[1],
				amount.CandidateBlocks(r[0], r[1]).Slice(), ali.CandidateBlocks(r[0], r[1]).Slice(),
				auth.Digest(ali, h, nil, r[0], r[1]))
		}
		lo, hi := types.Str("donor001"), types.Str("donor003")
		fmt.Fprintf(&sb, "donors %x\n", auth.Digest(donors, h, nil, lo, hi))
		return sb.String()
	}
	e := pinnedChain(t, cfg, "amount")
	live := answers(e)
	if err := e.WriteCheckpoint(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	for _, disable := range []bool{false, true} {
		cfg.DisableCheckpointLoad = disable
		r, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := answers(r); got != live {
			t.Errorf("DisableCheckpointLoad=%v answers\n%s, the live engine\n%s", disable, got, live)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
