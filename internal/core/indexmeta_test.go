package core

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"sebdb/internal/clock"
	"sebdb/internal/faultfs"
	"sebdb/internal/index/layered"
	"sebdb/internal/obs"
	"sebdb/internal/types"
)

// readDefs parses dir's indexes.json.
func readDefs(t *testing.T, dir string) indexMeta {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, indexMetaFile))
	if err != nil {
		t.Fatal(err)
	}
	var m indexMeta
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("indexes.json does not parse: %v", err)
	}
	return m
}

func boundBits(h *layered.Histogram) []uint64 {
	var out []uint64
	for _, f := range h.Bounds() {
		out = append(out, math.Float64bits(f))
	}
	return out
}

// TestIndexBoundsSurviveBitForBit: histogram bounds that JSON cannot
// carry as numbers — −0, ±Inf — persist through indexes.json and
// come back bit-equal after a full-replay reopen, for layered indexes
// and ALIs alike.
func TestIndexBoundsSurviveBitForBit(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, BlockMaxTxs: 8, HistogramDepth: 4}
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, e, `CREATE odd (a decimal, b decimal)`)
	if err := e.FlushAt(1); err != nil {
		t.Fatal(err)
	}
	negZero, inf, negInf := math.Copysign(0, -1), math.Inf(1), math.Inf(-1)
	var batch []*types.Transaction
	for i := 0; i < 8; i++ {
		a := negZero
		if i >= 4 {
			a = inf
		}
		tx, err := e.NewTransaction("org0", "odd", []types.Value{types.Dec(a), types.Dec(negInf)})
		if err != nil {
			t.Fatal(err)
		}
		batch = append(batch, tx)
	}
	if _, err := e.CommitBlock(batch, 2); err != nil {
		t.Fatal(err)
	}
	for _, col := range []string{"a", "b"} {
		if err := e.CreateIndex("odd", col); err != nil {
			t.Fatal(err)
		}
		if err := e.CreateAuthIndex("odd", col); err != nil {
			t.Fatal(err)
		}
	}
	want := map[string][]uint64{
		"odd.a": {math.Float64bits(negZero), math.Float64bits(inf)},
		"odd.b": {math.Float64bits(negInf)},
	}
	check := func(e *Engine, route string) {
		t.Helper()
		for key, bits := range want {
			if got := boundBits(e.lidx[key].Histogram()); !reflect.DeepEqual(got, bits) {
				t.Errorf("%s: layered %s bounds %x, want %x", route, key, got, bits)
			}
			if got := boundBits(e.alis[key].Histogram()); !reflect.DeepEqual(got, bits) {
				t.Errorf("%s: auth %s bounds %x, want %x", route, key, got, bits)
			}
		}
	}
	check(e, "live")
	liveRoots := aliRoots(e)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	cfg.DisableCheckpointLoad = true
	r, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	check(r, "full replay")
	if got := aliRoots(r); got != liveRoots {
		t.Errorf("MB-roots after the full replay differ from the live engine's:\n%s---\n%s", got, liveRoots)
	}
}

// TestIndexMetaCrashMatrix crashes the filesystem at every mutating
// operation of an open, CreateAuthIndex, close cycle — the definition
// rewrite is a tmp file written, fsynced and renamed over indexes.json —
// and reboots cleanly: Open succeeds, and the file holds either the
// definitions from before the creation or those from after, never a torn
// mix, with the ALI rebuilt exactly when its definition landed.
func TestIndexMetaCrashMatrix(t *testing.T) {
	seed := t.TempDir()
	boot, err := Open(Config{Dir: seed, BlockMaxTxs: 4})
	if err != nil {
		t.Fatal(err)
	}
	seedDonation(t, boot, 24, 4)
	if err := boot.CreateIndex("donate", "amount"); err != nil {
		t.Fatal(err)
	}
	if err := boot.Close(); err != nil {
		t.Fatal(err)
	}
	before := readDefs(t, seed)

	cycle := func(dir string, inj *faultfs.Injector) {
		e, err := Open(Config{Dir: dir, BlockMaxTxs: 4, FS: inj})
		if err != nil {
			return
		}
		// A crashed cycle's creation and teardown fail by design.
		e.CreateAuthIndex("donate", "amount")
		e.Close()
	}
	rehearsal := t.TempDir()
	copyTree(t, seed, rehearsal)
	inj := faultfs.New(faultfs.Options{OpsBeforeCrash: -1})
	cycle(rehearsal, inj)
	after := readDefs(t, rehearsal)
	if reflect.DeepEqual(before, after) {
		t.Fatal("the rehearsal did not change the definitions")
	}
	total := inj.Mutations()
	for k := 0; k < total; k++ {
		t.Run(fmt.Sprintf("crash-at-%d", k), func(t *testing.T) {
			dir := t.TempDir()
			copyTree(t, seed, dir)
			inj := faultfs.New(faultfs.Options{OpsBeforeCrash: k})
			cycle(dir, inj)
			if !inj.Crashed() {
				t.Fatalf("crash point %d never reached", k)
			}
			e, err := Open(Config{Dir: dir, DisableCheckpointLoad: true})
			if err != nil {
				t.Fatalf("reboot: %v", err)
			}
			defer e.Close()
			got := readDefs(t, dir)
			switch {
			case reflect.DeepEqual(got, before):
				if e.CurrentView().AuthIndex("donate", "amount") != nil {
					t.Error("the ALI came back without its definition")
				}
			case reflect.DeepEqual(got, after):
				if e.CurrentView().AuthIndex("donate", "amount") == nil {
					t.Error("the ALI's definition landed but the ALI was not rebuilt")
				}
			default:
				t.Fatalf("indexes.json holds neither the old nor the new definitions: %+v", got)
			}
		})
	}
}

// blockReads is the process-wide count of whole-block segment reads.
func blockReads() uint64 {
	return obs.Default.Counter(`sebdb_storage_segment_reads_total{kind="block"}`).Value()
}

// TestFullReplayDecodesEachBlockOnce: with a continuous layered index,
// an ALI on the same column and a discrete index defined, a full-replay
// Open reads every block exactly once — the one replay pass feeds the
// user indexes along with the system ones — and rebuilds them exactly as
// the engine that created them left them.
func TestFullReplayDecodesEachBlockOnce(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(Config{Dir: dir, BlockMaxTxs: 4})
	if err != nil {
		t.Fatal(err)
	}
	seedDonation(t, e, 40, 4)
	if err := e.CreateIndex("donate", "amount"); err != nil {
		t.Fatal(err)
	}
	if err := e.CreateAuthIndex("donate", "amount"); err != nil {
		t.Fatal(err)
	}
	if err := e.CreateIndex("donate", "donor"); err != nil {
		t.Fatal(err)
	}
	for i := 100; i < 120; i += 4 {
		batch := make([]*types.Transaction, 4)
		for j := range batch {
			batch[j] = donateTx(t, e, i+j)
		}
		if _, err := e.CommitBlock(batch, int64(i+4)*1000); err != nil {
			t.Fatal(err)
		}
	}
	want := recoveryFingerprint(t, e)
	wantFrame := frameDigest(t, e)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	reads := blockReads()
	r, err := Open(Config{Dir: dir, DisableCheckpointLoad: true})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := blockReads() - reads; got != r.Height() {
		t.Errorf("a full-replay Open read %d blocks of a %d-block chain, want each once", got, r.Height())
	}
	if got := recoveryFingerprint(t, r); got != want {
		t.Errorf("the replayed engine answers\n%s, the engine that built the chain\n%s", got, want)
	}
	if got := frameDigest(t, r); got != wantFrame {
		t.Errorf("the replayed engine's frame %s, the builder's %s", got, wantFrame)
	}
}

// TestDefinitionAfterCheckpointBackfillsItsPrefix: an ALI created after
// the last checkpoint is not in the log. A checkpoint-route Open
// registers it from its definition, feeds it the checkpointed blocks
// [0, base) and lets the suffix replay do the rest — ending where the
// creating engine and a full replay end, frame for frame.
func TestDefinitionAfterCheckpointBackfillsItsPrefix(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(Config{Dir: dir, BlockMaxTxs: 4})
	if err != nil {
		t.Fatal(err)
	}
	seedDonation(t, e, 40, 4)
	if err := e.CreateIndex("donate", "amount"); err != nil {
		t.Fatal(err)
	}
	if err := e.WriteCheckpoint(); err != nil {
		t.Fatal(err)
	}
	base := e.Height()
	if err := e.CreateAuthIndex("donate", "amount"); err != nil {
		t.Fatal(err)
	}
	for i := 100; i < 112; i += 4 {
		batch := make([]*types.Transaction, 4)
		for j := range batch {
			batch[j] = donateTx(t, e, i+j)
		}
		if _, err := e.CommitBlock(batch, int64(i+4)*1000); err != nil {
			t.Fatal(err)
		}
	}
	want := frameDigest(t, e)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry(clock.UnixMicro)
	fast, err := Open(Config{Dir: dir, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer fast.Close()
	if got := reg.Counter("sebdb_snapshot_suffix_blocks").Value(); got != fast.Height()-base {
		t.Fatalf("the checkpoint route replayed %d blocks, want the %d past the checkpoint", got, fast.Height()-base)
	}
	if got := frameDigest(t, fast); got != want {
		t.Errorf("checkpoint route's frame %s, the creating engine's %s", got, want)
	}
	if suffix, _ := sameByEveryRoute(t, dir); suffix != fast.Height()-base {
		t.Errorf("reopen replayed %d blocks", suffix)
	}
}

// TestOpenRefusesBadLocalIndexDefs: indexes.json is held to the check a
// peer's definitions get (checkIndexDefs), so Open refuses a definition
// ParseIndexDefs would refuse instead of building the index.
func TestOpenRefusesBadLocalIndexDefs(t *testing.T) {
	bits := func(f float64) string { return fmt.Sprintf(`"%016x"`, math.Float64bits(f)) }
	for name, def := range map[string]string{
		"continuous string": `{"family":"layered","key":"donate.donor","continuous":true}`,
		"descending bounds": `{"family":"auth","key":"donate.amount","continuous":true,"bounds":[` + bits(2) + `,` + bits(1) + `]}`,
		"unknown column":    `{"family":"layered","key":"donate.nosuch","continuous":false}`,
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			e, err := Open(Config{Dir: dir, BlockMaxTxs: 4})
			if err != nil {
				t.Fatal(err)
			}
			seedDonation(t, e, 8, 4)
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			raw := []byte(`{"indexes":[` + def + `]}`)
			if _, err := e.ParseIndexDefs(raw); err == nil {
				t.Fatal("fixture: ParseIndexDefs accepts the definition")
			}
			if err := os.WriteFile(filepath.Join(dir, indexMetaFile), raw, 0o644); err != nil {
				t.Fatal(err)
			}
			if r, err := Open(Config{Dir: dir, BlockMaxTxs: 4}); err == nil {
				r.Close()
				t.Fatalf("Open accepted indexes.json holding %s", def)
			}
		})
	}
	// A histogram deeper than the check allows could only write
	// definitions the next Open refuses, so the depth is refused at once.
	if e, err := Open(Config{Dir: t.TempDir(), HistogramDepth: maxPeerBounds + 2}); err == nil {
		e.Close()
		t.Error("Open accepted a histogram depth whose bounds the check refuses")
	}
}
