package core

import (
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"sebdb/internal/clock"
	"sebdb/internal/types"
)

// seededFrameDigest is the SHA-256 of the whole-state frame
// TestCheckpointFramePinned encodes, as the B+-tree second level
// produced it. The frame records every layered index block by block as
// its (key, pos) sequence in key order, so a change to how a block's
// second level is stored must leave this value alone.
const seededFrameDigest = "101aef06891300a58b57bd045fc518f974b30be4ade86ea2fc818bc9be935234"

// TestCheckpointFramePinned encodes the whole-state checkpoint of a
// seeded chain — a continuous and a discrete layered index whose blocks
// repeat keys out of order, signed zeros among them, plus an ALI — and
// checks it hashes to seededFrameDigest, both on the engine that built
// the chain and on one restored from the checkpoint.
func TestCheckpointFramePinned(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, BlockMaxTxs: 16, Clock: clock.Fixed(1)}
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
	if err := e.CreateAuthIndex("donate", "donor"); err != nil {
		t.Fatal(err)
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
	digest := func(e *Engine) string {
		c, err := e.BuildCheckpoint()
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%x", sha256.Sum256(c.Encode()))
	}
	if got := digest(e); got != seededFrameDigest {
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
	if got := digest(restored); got != seededFrameDigest {
		t.Errorf("restored engine's frame digest %s, want %s", got, seededFrameDigest)
	}
}
