package core

import (
	"bytes"
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

// readDefs parses dir's indexes.json, entry by entry.
func readDefs(t *testing.T, dir string) []*indexDef {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, indexMetaFile))
	if err != nil {
		t.Fatal(err)
	}
	var m struct{ Indexes []json.RawMessage }
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("indexes.json does not parse: %v", err)
	}
	var defs []*indexDef
	for _, entry := range m.Indexes {
		d, err := parseIndexDef(entry)
		if err != nil {
			t.Fatalf("indexes.json entry %s: %v", entry, err)
		}
		defs = append(defs, d)
	}
	return defs
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
// operation of an open, CreateAuthIndex, close cycle — the record's
// block append, then the cache rewrite, a tmp file written, fsynced and
// renamed over indexes.json — and reboots cleanly: Open succeeds, the
// file holds either the definitions from before the creation or those
// from after, never a torn mix, and the ALI exists exactly when its
// record reached the chain, whatever the cache said.
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
	seedHeight := boot.Height()

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
			if got := readDefs(t, dir); !reflect.DeepEqual(got, before) && !reflect.DeepEqual(got, after) {
				t.Fatalf("indexes.json holds neither the old nor the new definitions: %+v", got)
			}
			e, err := Open(Config{Dir: dir, DisableCheckpointLoad: true})
			if err != nil {
				t.Fatalf("reboot: %v", err)
			}
			defer e.Close()
			onChain := e.Height() > seedHeight
			if got := e.CurrentView().AuthIndex("donate", "amount") != nil; got != onChain {
				t.Errorf("ALI present = %v, its record on the chain = %v", got, onChain)
			}
			if want := map[bool][]*indexDef{false: before, true: after}[onChain]; !reflect.DeepEqual(readDefs(t, dir), want) {
				t.Errorf("after the reboot indexes.json holds %+v, want %+v", readDefs(t, dir), want)
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

// TestOpenRefusesBadLocalIndexDefs: an indexes.json entry is held to
// the check an _index record gets, and one it refuses is never built —
// Open succeeds, and answers as it does with no cache at all, which also
// replaces the file.
func TestOpenRefusesBadLocalIndexDefs(t *testing.T) {
	bits := func(f float64) string { return fmt.Sprint(math.Float64bits(f)) }
	dir := t.TempDir()
	e, err := Open(Config{Dir: dir, BlockMaxTxs: 4})
	if err != nil {
		t.Fatal(err)
	}
	seedDonation(t, e, 8, 4)
	if err := e.CreateAuthIndex("donate", "amount"); err != nil {
		t.Fatal(err)
	}
	want, wantFrame := recoveryFingerprint(t, e), frameDigest(t, e)
	good, err := os.ReadFile(filepath.Join(dir, indexMetaFile))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	for name, def := range map[string]string{
		"continuous string": `{"family":"layered","key":"donate.donor","continuous":true}`,
		"descending bounds": `{"family":"auth","key":"donate.amount","continuous":true,"bounds":[` + bits(2) + `,` + bits(1) + `]}`,
		"unknown column":    `{"family":"layered","key":"donate.nosuch","continuous":false}`,
	} {
		t.Run(name, func(t *testing.T) {
			if _, err := parseIndexDef([]byte(def)); err != nil {
				t.Fatalf("fixture: %v", err)
			}
			d := emptyDefs()
			if _, err := d.resolve(indexRecords(def)); err == nil {
				t.Fatal("fixture: resolve accepts the definition")
			}
			dir2 := t.TempDir()
			copyTree(t, dir, dir2)
			if err := os.WriteFile(filepath.Join(dir2, indexMetaFile), []byte(`{"indexes":[`+def+`]}`), 0o644); err != nil {
				t.Fatal(err)
			}
			r, err := Open(Config{Dir: dir2, BlockMaxTxs: 4, DisableCheckpointLoad: true})
			if err != nil {
				t.Fatalf("Open refused indexes.json holding %s: %v", def, err)
			}
			defer r.Close()
			if got := recoveryFingerprint(t, r); got != want {
				t.Errorf("reopened with %s it answers\n%s, want\n%s", def, got, want)
			}
			if got := frameDigest(t, r); got != wantFrame {
				t.Errorf("reopened with %s its frame is %s, want %s", def, got, wantFrame)
			}
			if got, err := os.ReadFile(filepath.Join(dir2, indexMetaFile)); err != nil || !bytes.Equal(got, good) {
				t.Errorf("indexes.json is now %s, want %s (err %v)", got, good, err)
			}
		})
	}
	// A histogram deeper than the check allows could only propose records
	// every node refuses, so the depth is refused at once.
	if e, err := Open(Config{Dir: t.TempDir(), HistogramDepth: maxIndexBounds + 2}); err == nil {
		e.Close()
		t.Error("Open accepted a histogram depth whose bounds the check refuses")
	}
}

// TestIndexCacheNeverChangesState: indexes.json only saves work. A
// full-replay reopen with no cache, a torn one, one listing an index the
// chain does not define, one whose bounds differ from the chain's, or a
// names-only file an older build wrote answers exactly as a reopen with
// the correct cache does — same fingerprint, same checkpoint frame — and
// leaves the correct cache behind.
func TestIndexCacheNeverChangesState(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(Config{Dir: dir, BlockMaxTxs: 4, HistogramDepth: 10})
	if err != nil {
		t.Fatal(err)
	}
	seedDonation(t, e, 40, 4)
	if err := e.CreateIndex("donate", "amount"); err != nil {
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
	if err := e.CreateAuthIndex("donate", "amount"); err != nil {
		t.Fatal(err)
	}
	if err := e.CreateAuthIndex("donate", "donor"); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(filepath.Join(dir, indexMetaFile))
	if err != nil {
		t.Fatal(err)
	}
	reopen := func(t *testing.T, dir string) (string, string) {
		t.Helper()
		r, err := Open(Config{Dir: dir, DisableCheckpointLoad: true})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		return recoveryFingerprint(t, r), frameDigest(t, r)
	}
	want, wantFrame := reopen(t, dir)

	defs := readDefs(t, dir)
	render := func(defs ...*indexDef) []byte {
		d := emptyDefs()
		for _, x := range defs {
			d.indexes[x.id()] = x
		}
		raw, err := renderIndexCache(d)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	shifted := func(x *indexDef) *indexDef {
		y := *x
		y.Bounds = nil
		for _, b := range x.Bounds {
			y.Bounds = append(y.Bounds, math.Float64bits(math.Float64frombits(b)+0.5))
		}
		return &y
	}
	var rebounded []*indexDef
	for _, x := range defs {
		if x.Continuous {
			x = shifted(x)
		}
		rebounded = append(rebounded, x)
	}
	for name, cache := range map[string][]byte{
		"none":           nil,
		"torn":           good[:len(good)/2],
		"extra index":    render(append(defs, &indexDef{Family: familyLayered, Key: "donate.project"})...),
		"other bounds":   render(rebounded...),
		"names only":     []byte(`{"layered":["donate.amount"],"auth":["donate.amount","donate.donor","donate.project"]}`),
		"only the extra": render(&indexDef{Family: familyAuth, Key: ".senid"}),
	} {
		t.Run(name, func(t *testing.T) {
			dir2 := t.TempDir()
			copyTree(t, dir, dir2)
			path := filepath.Join(dir2, indexMetaFile)
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
			if cache != nil {
				if err := os.WriteFile(path, cache, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			got, gotFrame := reopen(t, dir2)
			if got != want {
				t.Errorf("reopened it answers\n%s, with the correct cache\n%s", got, want)
			}
			if gotFrame != wantFrame {
				t.Errorf("reopened its frame is %s, with the correct cache %s", gotFrame, wantFrame)
			}
			if raw, err := os.ReadFile(path); err != nil || !bytes.Equal(raw, good) {
				t.Errorf("indexes.json is now %s, want %s (err %v)", raw, good, err)
			}
		})
	}
}
