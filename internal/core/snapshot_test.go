package core

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sebdb/internal/auth"
	"sebdb/internal/clock"
	"sebdb/internal/faultfs"
	"sebdb/internal/obs"
	"sebdb/internal/types"
)

// recoveryFingerprint captures one deterministic view over every index
// family: block-level (GET BLOCK), transaction-level (table bitmaps via
// equality predicates and TRACE), in-block (layered range scans), and
// the ALIs via the full Serve/VerifyAnswer protocol. Two engines over
// the same chain must produce byte-identical fingerprints.
func recoveryFingerprint(t *testing.T, e *Engine) string {
	t.Helper()
	var sb strings.Builder
	for _, q := range []string{
		`GET BLOCK ID = 1`,
		`TRACE OPERATOR = "org1"`,
		`SELECT * FROM donate WHERE amount >= 3 AND amount <= 14`,
		`SELECT donor, amount FROM donate WHERE donor = "donor003"`,
		`SELECT * FROM donate WHERE project = "education" AND amount = 7`,
	} {
		res, err := e.Execute(q)
		if err != nil {
			t.Fatalf("Execute(%q): %v", q, err)
		}
		fmt.Fprintf(&sb, "%s | %v | %v\n", q, res.Columns, res.Rows)
	}
	h := e.Height()
	// Continuous ALI: the histogram first level is fixed when the index
	// is created and persisted with its definition, so candidate sets —
	// and hence digests — agree across recovery routes as well as the
	// verified answer.
	if ali := e.CurrentView().AuthIndex("donate", "amount"); ali != nil {
		ans := auth.Serve(ali, h, nil, types.Dec(3), types.Dec(14))
		digest, txs, err := auth.VerifyAnswer(ans, types.Dec(3), types.Dec(14))
		if err != nil {
			t.Fatalf("VerifyAnswer(amount): %v", err)
		}
		fmt.Fprintf(&sb, "ali amount | %x |", digest)
		for _, tx := range txs {
			fmt.Fprintf(&sb, " %d", tx.Tid)
		}
		fmt.Fprintln(&sb)
	}
	// Discrete ALI: the first level is exact value bitmaps, so the full
	// digest must round-trip too.
	if ali := e.CurrentView().AuthIndex("donate", "donor"); ali != nil {
		lo, hi := types.Str("donor003"), types.Str("donor003")
		ans := auth.Serve(ali, h, nil, lo, hi)
		digest, txs, err := auth.VerifyAnswer(ans, lo, hi)
		if err != nil {
			t.Fatalf("VerifyAnswer(donor): %v", err)
		}
		fmt.Fprintf(&sb, "ali donor | %x |", digest)
		for _, tx := range txs {
			fmt.Fprintf(&sb, " %d", tx.Tid)
		}
		fmt.Fprintln(&sb)
	}
	fmt.Fprintf(&sb, "height=%d\n", h)
	return sb.String()
}

// seedSnapshotChain builds a chain with both user index kinds and a
// checkpoint that covers them, plus a two-block uncheckpointed suffix.
func seedSnapshotChain(t *testing.T, dir string) {
	t.Helper()
	e, err := Open(Config{Dir: dir, BlockMaxTxs: 4, CheckpointInterval: 5})
	if err != nil {
		t.Fatal(err)
	}
	seedDonation(t, e, 60, 4)
	if err := e.CreateIndex("donate", "amount"); err != nil {
		t.Fatal(err)
	}
	if err := e.CreateAuthIndex("donate", "amount"); err != nil {
		t.Fatal(err)
	}
	if err := e.CreateAuthIndex("donate", "donor"); err != nil {
		t.Fatal(err)
	}
	if err := e.WriteCheckpoint(); err != nil {
		t.Fatal(err)
	}
	// A suffix past the checkpoint so reopen really replays something.
	for i := 0; i < 8; i++ {
		tx, err := e.NewTransaction(fmt.Sprintf("org%d", i%3), "donate", []types.Value{
			types.Str(fmt.Sprintf("donor%03d", i%10)),
			types.Str("health"),
			types.Dec(float64(100 + i)),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Submit(tx); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointRestartEquivalence is the crash-free round trip: every
// index family and the ALIs must answer identically on the original
// engine, after a checkpoint-seeded restart, and after a full-replay
// restart.
func TestCheckpointRestartEquivalence(t *testing.T) {
	dir := t.TempDir()
	seedSnapshotChain(t, dir)

	reg := obs.NewRegistry(clock.UnixMicro)
	fast, err := Open(Config{Dir: dir, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer fast.Close()
	fpFast := recoveryFingerprint(t, fast)
	total := fast.Height()
	suffix := reg.Counter("sebdb_snapshot_suffix_blocks").Value()
	if suffix == 0 || suffix >= total {
		t.Fatalf("checkpoint reopen replayed %d of %d blocks", suffix, total)
	}

	reg2 := obs.NewRegistry(clock.UnixMicro)
	full, err := Open(Config{Dir: dir, Obs: reg2, DisableCheckpointLoad: true})
	if err != nil {
		t.Fatal(err)
	}
	defer full.Close()
	fpFull := recoveryFingerprint(t, full)
	if got := reg2.Counter("sebdb_snapshot_suffix_blocks").Value(); got != total {
		t.Fatalf("full reopen replayed %d of %d blocks", got, total)
	}

	if fpFast != fpFull {
		t.Errorf("checkpoint restart diverges from full replay:\n--- checkpoint ---\n%s--- full ---\n%s", fpFast, fpFull)
	}
}

// TestAutoCheckpointInterval checks CommitBlock writes a checkpoint at
// every interval boundary and keeps it loadable.
func TestAutoCheckpointInterval(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(Config{Dir: dir, BlockMaxTxs: 2, CheckpointInterval: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	seedDonation(t, e, 12, 2) // 1 schema block + 6 data blocks = height 7
	if err := e.CheckpointErr(); err != nil {
		t.Fatalf("automatic checkpoint failed: %v", err)
	}
	ck, err := e.snapDir.Load()
	if err != nil {
		t.Fatal(err)
	}
	if ck == nil {
		t.Fatal("no checkpoint written")
	}
	if ck.Height != 6 {
		t.Fatalf("checkpoint height = %d, want 6 (last interval boundary under %d)", ck.Height, e.Height())
	}
	if ck.Anchor != e.Headers()[5].Hash() {
		t.Fatal("checkpoint anchor does not match block 5")
	}
}

// TestExplainRecoveryStages asserts the Open trace exposes the
// checkpoint and replay stages (satellite: recovery visibility on
// sebdb_stage_micros / EXPLAIN-style rendering).
func TestExplainRecoveryStages(t *testing.T) {
	dir := t.TempDir()
	seedSnapshotChain(t, dir)
	e, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	res := e.ExplainRecovery()
	var stages []string
	for _, row := range res.Rows {
		stages = append(stages, strings.TrimSpace(row[0].String()))
	}
	joined := strings.Join(stages, ",")
	for _, want := range []string{"recovery", "recovery.checkpoint", "recovery.replay"} {
		found := false
		for _, s := range stages {
			if s == want {
				found = true
			}
		}
		if !found {
			t.Errorf("stage %q missing from recovery trace (got %s)", want, joined)
		}
	}
	if tr := e.RecoveryTrace(); tr == nil || tr.Name() != "recovery" {
		t.Fatal("RecoveryTrace not retained")
	}
}

func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, p)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(target, b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestEngineCheckpointCrashMatrix crashes the filesystem at every
// mutating operation of an open-checkpoint-close cycle — the checkpoint
// is a window appended to the seed's log: append, fsync, manifest tmp,
// fsync, rename — then reboots cleanly both with and without checkpoint
// loading. Whatever the crash left behind, the two recovery paths must
// agree exactly — "never wrong answers, only slower ones". The rebooted
// node then commits and checkpoints again, which is where a torn frame
// past the pinned length gets truncated: the log must still tile the
// chain, and both routes still agree.
func TestEngineCheckpointCrashMatrix(t *testing.T) {
	seed := t.TempDir()
	seedSnapshotChain(t, seed)

	// Rehearsal: count the mutating ops of the cycle under test.
	rehearsal := t.TempDir()
	copyTree(t, seed, rehearsal)
	inj := faultfs.New(faultfs.Options{OpsBeforeCrash: -1})
	re, err := Open(Config{Dir: rehearsal, FS: inj})
	if err != nil {
		t.Fatal(err)
	}
	if err := re.WriteCheckpoint(); err != nil {
		t.Fatal(err)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	total := inj.Mutations()
	if total < 8 {
		t.Fatalf("rehearsal saw only %d mutating ops", total)
	}

	var want string
	for k := 0; k < total; k++ {
		k := k
		t.Run(fmt.Sprintf("crash-at-%d", k), func(t *testing.T) {
			dir := t.TempDir()
			copyTree(t, seed, dir)
			inj := faultfs.New(faultfs.Options{OpsBeforeCrash: k})
			e, err := Open(Config{Dir: dir, FS: inj})
			if err == nil {
				// The open survived; crash during the checkpoint instead,
				// whose write may fail by design.
				e.WriteCheckpoint()
				// crashed engine teardown
				e.Close()
			}
			if !inj.Crashed() {
				t.Fatalf("crash point %d never reached", k)
			}

			fast, err := Open(Config{Dir: dir, BlockMaxTxs: 4})
			if err != nil {
				t.Fatalf("reboot (checkpoint path): %v", err)
			}
			defer fast.Close()
			full, err := Open(Config{Dir: dir, DisableCheckpointLoad: true})
			if err != nil {
				t.Fatalf("reboot (full replay): %v", err)
			}
			defer full.Close()

			if fast.Height() != full.Height() {
				t.Fatalf("heights diverge: checkpoint %d vs full %d", fast.Height(), full.Height())
			}
			fpFast := recoveryFingerprint(t, fast)
			fpFull := recoveryFingerprint(t, full)
			if fpFast != fpFull {
				t.Fatalf("crash at op %d: recovery paths diverge:\n--- checkpoint ---\n%s--- full ---\n%s", k, fpFast, fpFull)
			}
			// No writes happened in this phase's chain, so the chain must
			// have survived untouched regardless of the crash point.
			if want == "" {
				want = fpFull
			} else if fpFull != want {
				t.Fatalf("crash at op %d altered the chain:\n%s\nvs\n%s", k, fpFull, want)
			}

			if _, err := fast.CommitBlock([]*types.Transaction{donateTx(t, fast, 500)}, 9_000_000); err != nil {
				t.Fatal(err)
			}
			if err := fast.WriteCheckpoint(); err != nil {
				t.Fatalf("checkpoint after the reboot: %v", err)
			}
			if got := logTiles(t, dir); got != fast.Height() {
				t.Fatalf("crash at op %d: the log tiles [0,%d) of %d blocks after the next checkpoint", k, got, fast.Height())
			}
			if suffix, _ := sameByEveryRoute(t, dir); suffix != 0 {
				t.Fatalf("crash at op %d: reopen after the next checkpoint replayed %d blocks", k, suffix)
			}
		})
	}
}

// TestOpenWithShortReads drives recovery through a filesystem that
// never returns more than a few bytes per Read call; every load path
// must tolerate partial reads.
func TestOpenWithShortReads(t *testing.T) {
	dir := t.TempDir()
	seedSnapshotChain(t, dir)
	inj := faultfs.New(faultfs.Options{OpsBeforeCrash: -1, ShortReads: 7})
	e, err := Open(Config{Dir: dir, FS: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	clean, err := Open(Config{Dir: dir, DisableCheckpointLoad: true})
	if err != nil {
		t.Fatal(err)
	}
	defer clean.Close()
	if got, want := recoveryFingerprint(t, e), recoveryFingerprint(t, clean); got != want {
		t.Fatalf("short reads corrupted recovery:\n%s\nvs\n%s", got, want)
	}
}

// TestOpenSuffixCounterTallChain is the headline acceptance test: on a
// 10k-block chain with periodic checkpoints, Open replays only the
// post-checkpoint suffix, observable on sebdb_snapshot_suffix_blocks.
func TestOpenSuffixCounterTallChain(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-block chain")
	}
	dir := t.TempDir()
	e, err := Open(Config{Dir: dir, BlockMaxTxs: 1, CheckpointInterval: 3000})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, e, `CREATE donate (donor string, project string, amount decimal)`)
	if err := e.FlushAt(1); err != nil {
		t.Fatal(err)
	}
	for e.Height() < 10_000 {
		i := int(e.Height())
		tx, err := e.NewTransaction(fmt.Sprintf("org%d", i%3), "donate", []types.Value{
			types.Str(fmt.Sprintf("donor%03d", i%997)),
			types.Str("education"),
			types.Dec(float64(i)),
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.CommitBlock([]*types.Transaction{tx}, int64(i+1)*1000); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.CheckpointErr(); err != nil {
		t.Fatalf("automatic checkpoint failed: %v", err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry(clock.UnixMicro)
	e2, err := Open(Config{Dir: dir, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if e2.Height() != 10_000 {
		t.Fatalf("height = %d", e2.Height())
	}
	// Checkpoints were written at heights 3000, 6000 and 9000, so the
	// reopen must replay exactly the last 1000 blocks.
	if got := reg.Counter("sebdb_snapshot_suffix_blocks").Value(); got != 1000 {
		t.Fatalf("suffix blocks = %d, want 1000", got)
	}
	res := mustExec(t, e2, `SELECT * FROM donate WHERE amount = 9500`)
	if len(res.Rows) != 1 {
		t.Fatalf("post-recovery query returned %d rows", len(res.Rows))
	}
}

// TestALIRootsAgreeAcrossRecoveryRoutes: a checkpoint stores an ALI as
// records, never as hashes, so a restart rebuilds every MB-tree. Whether
// the engine came up from the checkpoint plus a replayed suffix or from
// a full replay, every block's MB-root must come out the same — a node
// that restarted has to keep agreeing with the auxiliaries that did not.
func TestALIRootsAgreeAcrossRecoveryRoutes(t *testing.T) {
	dir := t.TempDir()
	seedSnapshotChain(t, dir)
	roots := func(cfg Config) string {
		e, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		var sb strings.Builder
		v := e.CurrentView()
		for _, col := range []string{"amount", "donor"} {
			ali := v.AuthIndex("donate", col)
			if ali == nil {
				t.Fatalf("no ALI on donate.%s after reopen", col)
			}
			for bid := uint64(0); bid < v.Height(); bid++ {
				if root, ok := ali.Root(bid); ok {
					fmt.Fprintf(&sb, "%s %d %x\n", col, bid, root)
				}
			}
		}
		return sb.String()
	}
	fromCheckpoint := roots(Config{Dir: dir})
	replayed := roots(Config{Dir: dir, DisableCheckpointLoad: true})
	if strings.Count(fromCheckpoint, "\n") < 20 {
		t.Fatalf("only %d roots to compare", strings.Count(fromCheckpoint, "\n"))
	}
	if fromCheckpoint != replayed {
		t.Errorf("MB-roots differ between checkpoint restart and full replay:\n%s---\n%s", fromCheckpoint, replayed)
	}
}
