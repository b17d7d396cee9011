package core

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sebdb/internal/clock"
	"sebdb/internal/faultfs"
	"sebdb/internal/obs"
	"sebdb/internal/snapshot"
	"sebdb/internal/types"
)

// aliRoots renders every MB-root of every ALI the engine maintains.
func aliRoots(e *Engine) string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	var sb strings.Builder
	for _, key := range sortedKeys(e.alis) {
		for bid := uint64(0); bid < e.Height(); bid++ {
			if root, ok := e.alis[key].Root(bid); ok {
				fmt.Fprintf(&sb, "%s %d %x\n", key, bid, root)
			}
		}
	}
	return sb.String()
}

// sameByEveryRoute reopens dir from its checkpoint log and by full
// replay and demands the same answers and the same MB-roots from both.
// It returns how many blocks the checkpoint route replayed, and the
// chain height.
func sameByEveryRoute(t *testing.T, dir string) (suffix, height uint64) {
	t.Helper()
	reg := obs.NewRegistry(clock.UnixMicro)
	fast, err := Open(Config{Dir: dir, Obs: reg})
	if err != nil {
		t.Fatalf("reopen (checkpoint route): %v", err)
	}
	defer fast.Close()
	full, err := Open(Config{Dir: dir, DisableCheckpointLoad: true})
	if err != nil {
		t.Fatalf("reopen (full replay): %v", err)
	}
	defer full.Close()
	if got, want := recoveryFingerprint(t, fast), recoveryFingerprint(t, full); got != want {
		t.Fatalf("recovery routes diverge:\n--- checkpoint ---\n%s--- full ---\n%s", got, want)
	}
	if got, want := aliRoots(fast), aliRoots(full); got != want {
		t.Fatalf("MB-roots differ between the checkpoint route and full replay:\n%s---\n%s", got, want)
	}
	return reg.Counter("sebdb_snapshot_suffix_blocks").Value(), fast.Height()
}

// pinnedLog reads the checkpoint log prefix dir's manifest pins, checked
// against the manifest's CRC; (nil, nil, nil) when nothing is pinned.
func pinnedLog(dir string) (*snapshot.Manifest, []byte, error) {
	d := snapshot.NewDir(nil, dir)
	m, err := d.Manifest()
	if err != nil || m == nil {
		return nil, nil, err
	}
	blob, err := os.ReadFile(filepath.Join(d.Path(), m.File))
	if err != nil {
		return nil, nil, err
	}
	if uint64(len(blob)) < m.Size || crc32.ChecksumIEEE(blob[:m.Size]) != m.CRC {
		return nil, nil, snapshot.ErrCorrupt
	}
	return m, blob[:m.Size], nil
}

// logTiles decodes dir's pinned checkpoint log strictly — every frame
// valid and continuing the one before, no gap, no overlap — and returns
// the height it reaches (0 when the directory holds no log).
func logTiles(t *testing.T, dir string) uint64 {
	t.Helper()
	m, payload, err := pinnedLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m == nil {
		return 0
	}
	ck, err := snapshot.Decode(payload)
	if err != nil {
		t.Fatalf("the pinned log does not tile the chain: %v", err)
	}
	return ck.Height
}

func builds(reg *obs.Registry) uint64 {
	return reg.Histograms()["sebdb_snapshot_build_micros"].Count
}

// TestOneWindowPerPipeline: a FlushAt that crosses three interval
// boundaries cuts one checkpoint window — after its last install, from
// the height the log pins, not one build per boundary with all but the
// last thrown away. Blocks reach the chain through all three doors
// (CommitBlock and FlushAt on the leader, ApplyBlock on a follower);
// both logs must tile their chain without a gap and both nodes come
// back identical by either recovery route.
func TestOneWindowPerPipeline(t *testing.T) {
	const iv, blockTxs = 5, 4
	leadDir, follDir := t.TempDir(), t.TempDir()
	reg := obs.NewRegistry(clock.UnixMicro)
	lead, err := Open(Config{Dir: leadDir, BlockMaxTxs: blockTxs, CheckpointInterval: iv, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	seedDonation(t, lead, 6*blockTxs, blockTxs) // height 7: one checkpoint, at 5
	if err := lead.CreateAuthIndex("donate", "amount"); err != nil {
		t.Fatal(err)
	}
	seedMore := func(from, n int) {
		for i := from; i < from+n; i += blockTxs {
			batch := make([]*types.Transaction, blockTxs)
			for j := range batch {
				batch[j] = donateTx(t, lead, i+j)
			}
			if _, err := lead.CommitBlock(batch, int64(i+blockTxs)*1000); err != nil {
				t.Fatal(err)
			}
		}
	}
	seedMore(100, 3*blockTxs) // after the record's block, height 11: the checkpoint at 10 opens a generation with the ALI
	if err := lead.CheckpointErr(); err != nil {
		t.Fatal(err)
	}
	if got := lead.snapDir.Height(); got != 10 {
		t.Fatalf("log pins %d before the flush, want 10", got)
	}

	before := builds(reg)
	var pending []*types.Transaction
	for i := 0; i < 3*iv*blockTxs; i++ {
		pending = append(pending, donateTx(t, lead, 200+i))
	}
	lead.poolMu.Lock()
	lead.mempool = pending
	lead.poolMu.Unlock()
	if err := lead.FlushAt(900_000); err != nil {
		t.Fatal(err)
	}
	if err := lead.CheckpointErr(); err != nil {
		t.Fatal(err)
	}
	if got := builds(reg) - before; got != 1 {
		t.Fatalf("a flush across three intervals cut %d windows, want 1", got)
	}
	if h := lead.Height(); h != 11+3*iv || lead.snapDir.Height() != h {
		t.Fatalf("height %d, log pins %d; want both %d", h, lead.snapDir.Height(), 11+3*iv)
	}
	seedMore(400, 2*blockTxs) // a suffix past the last window

	foll, err := Open(Config{Dir: follDir, BlockMaxTxs: blockTxs, CheckpointInterval: iv})
	if err != nil {
		t.Fatal(err)
	}
	for h := uint64(0); h < lead.Height(); h++ {
		b, err := lead.Block(h)
		if err != nil {
			t.Fatal(err)
		}
		if err := foll.ApplyBlock(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := foll.CheckpointErr(); err != nil {
		t.Fatal(err)
	}
	height := lead.Height()
	if err := lead.Close(); err != nil {
		t.Fatal(err)
	}
	if err := foll.Close(); err != nil {
		t.Fatal(err)
	}

	for name, tc := range map[string]struct {
		dir    string
		pinned uint64
	}{
		"leader":   {leadDir, 26},               // the flush's window ended at its last block
		"follower": {follDir, height / iv * iv}, // one block per pipeline: every boundary
	} {
		if got := logTiles(t, tc.dir); got != tc.pinned {
			t.Errorf("%s: log tiles [0,%d), want [0,%d)", name, got, tc.pinned)
		}
		suffix, h := sameByEveryRoute(t, tc.dir)
		if h != height || suffix != height-tc.pinned {
			t.Errorf("%s: reopened at %d replaying %d blocks, want %d replaying %d", name, h, suffix, height, height-tc.pinned)
		}
	}
}

// seedIntervalChain builds a chain whose checkpoint log holds several
// frames under a fixed index set, plus a short suffix past the last.
func seedIntervalChain(t *testing.T, dir string) {
	t.Helper()
	e, err := Open(Config{Dir: dir, BlockMaxTxs: 4, CheckpointInterval: 5})
	if err != nil {
		t.Fatal(err)
	}
	seedDonation(t, e, 8, 8) // height 2; the three records take it to the first boundary
	if err := e.CreateIndex("donate", "amount"); err != nil {
		t.Fatal(err)
	}
	if err := e.CreateAuthIndex("donate", "amount"); err != nil {
		t.Fatal(err)
	}
	if err := e.CreateAuthIndex("donate", "donor"); err != nil {
		t.Fatal(err)
	}
	for i := 8; i < 80; i += 4 { // to height 23: frames [0,5) [5,10) [10,15) [15,20)
		batch := make([]*types.Transaction, 4)
		for j := range batch {
			batch[j] = donateTx(t, e, i+j)
		}
		if _, err := e.CommitBlock(batch, int64(i+4)*1000); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.CheckpointErr(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestBadFrameCostsItsSuffix: flip a byte in, or cut the log short
// inside, any single frame — recovery seeds from the frames before it,
// replays from the damaged frame's first block instead of from block 0,
// and answers exactly as a full replay does.
func TestBadFrameCostsItsSuffix(t *testing.T) {
	seed := t.TempDir()
	seedIntervalChain(t, seed)
	if got := logTiles(t, seed); got != 20 {
		t.Fatalf("seed log tiles [0,%d), want [0,20)", got)
	}
	m, payload, err := pinnedLog(seed)
	if err != nil {
		t.Fatal(err)
	}
	// Frame boundaries: a frame's total length is its payload length
	// (bytes 4..8) plus 12 bytes of header and trailer.
	var ends []int
	for at := 0; at < len(payload); {
		at += 12 + int(payload[at+4])<<24 + int(payload[at+5])<<16 + int(payload[at+6])<<8 + int(payload[at+7])
		ends = append(ends, at)
	}
	if len(ends) != 4 {
		t.Fatalf("seed log holds %d frames, want 4", len(ends))
	}
	for frame, end := range ends {
		for _, damage := range []string{"flip", "truncate"} {
			dir := t.TempDir()
			copyTree(t, seed, dir)
			logPath := filepath.Join(dir, snapshot.DirName, m.File)
			blob, err := os.ReadFile(logPath)
			if err != nil {
				t.Fatal(err)
			}
			if damage == "flip" {
				blob[end-20] ^= 0x40
			} else {
				blob = blob[:end-20]
			}
			if err := os.WriteFile(logPath, blob, 0o644); err != nil {
				t.Fatal(err)
			}
			suffix, height := sameByEveryRoute(t, dir)
			if want := height - uint64(5*frame); suffix != want {
				t.Errorf("%s in frame %d: replayed %d blocks, want %d (from the frame's first block)", damage, frame, suffix, want)
			}
		}
	}
}

// TestV2CheckpointOpensByFullReplay: the testdata directories were
// written by releases of older checkpoint formats. v2-datadir holds a
// three-block chain with snapshots/ckpt-000000000003.snap and a
// version-2 MANIFEST, from the monolithic format; v3-datadir a
// seven-block chain with a layered index, an ALI and a contract, whose
// two-frame index-000001.log restates the definitions in every frame;
// v4-datadir an eight-block chain with a layered index and an ALI, whose
// two-frame index-000001.log restates the block store's geometry and the
// window's headers, body lengths and transaction offsets in every frame;
// v5-datadir an eleven-block chain with a layered index, an ALI, a
// contract and a _schema record in its second frame's window, whose
// two-frame index-000001.log carries the table-level bitmaps beside the
// built-in Tname and SenID indexes that hold the same bits.
// There is one checkpoint format and one decoder: the old files read as
// "no checkpoint", the chain replays in full to the state a fresh full
// replay reaches, and the next checkpoint starts a new generation — one
// whole-state frame — and sweeps the old files away.
func TestV2CheckpointOpensByFullReplay(t *testing.T) {
	for _, fixture := range []struct {
		dir    string
		height uint64
		rows   int // rows with amount >= 1
	}{{"v2-datadir", 3, 3}, {"v3-datadir", 7, 8}, {"v4-datadir", 8, 17}, {"v5-datadir", 11, 10}} {
		t.Run(fixture.dir, func(t *testing.T) {
			dir := t.TempDir()
			copyTree(t, filepath.Join("testdata", fixture.dir), dir)
			reg := obs.NewRegistry(clock.UnixMicro)
			e, err := Open(Config{Dir: dir, Obs: reg})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			if got := reg.Counter("sebdb_snapshot_suffix_blocks").Value(); e.Height() != fixture.height || got != fixture.height {
				t.Fatalf("opened at height %d replaying %d blocks, want %d and %d", e.Height(), got, fixture.height, fixture.height)
			}
			if res := mustExec(t, e, `SELECT * FROM donate WHERE amount >= 1`); len(res.Rows) != fixture.rows {
				t.Fatalf("replayed chain answers %d rows, want %d", len(res.Rows), fixture.rows)
			}
			if fixture.dir == "v2-datadir" {
				// The fixture's indexes.json names an ALI the chain never
				// defined: the release that wrote it kept index definitions
				// off the chain. Open drops it and rewrites the copy with the
				// chain's definitions — none — so the next full-replay Open
				// reads each block once; the fixture stays as it was.
				if e.CurrentView().AuthIndex("donate", "amount") != nil {
					t.Fatal("the ALI named only in indexes.json was built")
				}
				if raw, err := os.ReadFile(filepath.Join("testdata", fixture.dir, indexMetaFile)); err != nil || !strings.Contains(string(raw), `"auth": [`) {
					t.Fatalf("the checked-in fixture changed: %s (err %v)", raw, err)
				}
				if m := readDefs(t, dir); len(m) != 0 {
					t.Fatalf("indexes.json was not rewritten with the chain's definitions: %+v", m)
				}
			}
			reads := blockReads()
			replayed, err := Open(Config{Dir: dir, DisableCheckpointLoad: true})
			if err != nil {
				t.Fatal(err)
			}
			if got := blockReads() - reads; got != replayed.Height() {
				t.Errorf("reopening from the chain's definitions read %d blocks of %d", got, replayed.Height())
			}
			if got, want := recoveryFingerprint(t, e), recoveryFingerprint(t, replayed); got != want {
				t.Errorf("opened past the old checkpoint:\n%s--- a fresh full replay:\n%s", got, want)
			}
			if err := replayed.Close(); err != nil {
				t.Fatal(err)
			}
			if err := e.WriteCheckpoint(); err != nil {
				t.Fatal(err)
			}
			m, payload, err := pinnedLog(dir)
			if err != nil || m == nil {
				t.Fatalf("pinned log after the first new-format checkpoint = %v, %v", m, err)
			}
			whole, err := e.BuildCheckpoint()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(payload, whole.Encode()) {
				t.Error("the first new-format checkpoint is not one whole-state frame")
			}
			entries, err := os.ReadDir(e.snapDir.Path())
			if err != nil {
				t.Fatal(err)
			}
			for _, en := range entries {
				if en.Name() != "MANIFEST" && en.Name() != m.File {
					t.Errorf("%s survived the first new-format checkpoint", en.Name())
				}
			}
			if suffix, _ := sameByEveryRoute(t, dir); suffix != 0 {
				t.Errorf("reopen after the new checkpoint replayed %d blocks", suffix)
			}
		})
	}
}

// TestCheckpointLogProperty drives seeded random histories — commits in
// bursts of random length (some crossing several intervals in one
// flush), explicit checkpoints, index and ALI creation, recompression,
// crashes at random filesystem operations — and after every restart
// demands what the subsystem promises: whatever the log holds, opening
// from it answers and authenticates exactly like a full replay, and the
// log tiles the chain without a gap.
func TestCheckpointLogProperty(t *testing.T) {
	seeds := 6
	if testing.Short() {
		seeds = 2
	}
	for seed := 0; seed < seeds; seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewPCG(uint64(seed), 0x5EBD))
			dir := t.TempDir()
			cfg := Config{Dir: dir, BlockMaxTxs: 4, CheckpointInterval: 5, SegmentSize: 4096}
			boot, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			seedDonation(t, boot, 8, 4) // the schema and a first few rows, crash-free
			if err := boot.Close(); err != nil {
				t.Fatal(err)
			}

			next := 1000 // next donate row number
			indexes := []func(*Engine) error{
				func(e *Engine) error { return e.CreateIndex("donate", "amount") },
				func(e *Engine) error { return e.CreateAuthIndex("donate", "amount") },
				func(e *Engine) error { return e.CreateAuthIndex("donate", "donor") },
			}
			for session := 0; session < 5; session++ {
				// Every other session ends in a crash at a random mutating
				// operation; the rest shut down cleanly.
				crashAt := -1
				if session%2 == 0 {
					crashAt = 5 + rng.IntN(120)
				}
				inj := faultfs.New(faultfs.Options{OpsBeforeCrash: crashAt})
				cfg.FS = inj
				e, err := Open(cfg)
				for step := 0; err == nil && step < 12 && !inj.Crashed(); step++ {
					switch op := rng.IntN(10); {
					case op < 6:
						blocks := 1 + rng.IntN(3)
						if op == 0 {
							blocks = 11 + rng.IntN(6) // one flush across two or three intervals
						}
						var pending []*types.Transaction
						for i := 0; i < 4*blocks; i++ {
							tx, terr := e.NewTransaction(fmt.Sprintf("org%d", next%3), "donate", []types.Value{
								types.Str(fmt.Sprintf("donor%03d", next%10)), types.Str("education"), types.Dec(float64(next % 40)),
							})
							if terr != nil {
								t.Fatal(terr)
							}
							pending = append(pending, tx)
							next++
						}
						e.poolMu.Lock()
						e.mempool = pending
						e.poolMu.Unlock()
						err = e.FlushAt(int64(next) * 1000)
					case op < 7:
						err = e.WriteCheckpoint()
					case op < 9:
						err = indexes[rng.IntN(len(indexes))](e)
					default:
						err = e.CompressSealed(1)
					}
				}
				if err != nil && !inj.Crashed() {
					t.Fatalf("session %d: %v", session, err)
				}
				if e != nil {
					// a crashed engine's teardown fails by design
					e.Close()
				}
				logTiles(t, dir)
				sameByEveryRoute(t, dir)
			}
		})
	}
}

// intervalChain opens an engine that checkpoints every iv blocks, over
// a donate table with a layered index and an ALI on amount, and grows
// it to chain blocks of cfg.BlockMaxTxs rows each; commit appends more
// such blocks, and logSize reads the checkpoint log's pinned length.
func intervalChain(tb testing.TB, cfg Config, chain int) (e *Engine, commit func(blocks int), logSize func() int64) {
	tb.Helper()
	e = testEngine(tb, cfg)
	mustExec(tb, e, `CREATE donate (donor string, project string, amount decimal)`)
	if err := e.FlushAt(1); err != nil {
		tb.Fatal(err)
	}
	if err := e.CreateIndex("donate", "amount"); err != nil {
		tb.Fatal(err)
	}
	if err := e.CreateAuthIndex("donate", "amount"); err != nil {
		tb.Fatal(err)
	}
	row := 0
	commit = func(blocks int) {
		for ; blocks > 0; blocks-- {
			batch := make([]*types.Transaction, cfg.BlockMaxTxs)
			for j := range batch {
				batch[j] = donateTx(tb, e, row)
				row++
			}
			if _, err := e.CommitBlock(batch, int64(row)*1000); err != nil {
				tb.Fatal(err)
			}
		}
	}
	commit(chain - int(e.Height()))
	logSize = func() int64 {
		m, err := e.snapDir.Manifest()
		if err != nil || m == nil {
			tb.Fatalf("no checkpoint log: %v", err)
		}
		return int64(m.Size)
	}
	return e, commit, logSize
}

// TestIntervalCheckpointCostsTheInterval: the frame one interval
// appends holds the interval's blocks and nothing per block of the
// chain below them, so it has the same length on a 200-block chain as
// on a 2,000-block one.
func TestIntervalCheckpointCostsTheInterval(t *testing.T) {
	const iv = 50
	var appended []int64
	for _, chain := range []int{200, 2000} {
		_, commit, logSize := intervalChain(t, Config{BlockMaxTxs: 3, CheckpointInterval: iv, CacheMode: CacheNone}, chain)
		before := logSize()
		commit(iv)
		appended = append(appended, logSize()-before)
	}
	if appended[0] != appended[1] {
		t.Errorf("one %d-block interval appended %d B at chain 200 and %d B at chain 2,000", iv, appended[0], appended[1])
	}
}

// TestCheckpointFrameIgnoresBlockLayout: a frame is a function of the
// chain alone. Recompressing the sealed segments under an engine, or
// applying the same blocks to an engine with another segment size,
// leaves the whole-state frame byte for byte as it was.
func TestCheckpointFrameIgnoresBlockLayout(t *testing.T) {
	frame := func(e *Engine) []byte {
		c, err := e.BuildCheckpoint()
		if err != nil {
			t.Fatal(err)
		}
		return c.Encode()
	}
	e := pinnedChain(t, Config{Dir: t.TempDir(), BlockMaxTxs: 16, Clock: clock.Fixed(1), SegmentSize: 2048})
	defer e.Close()
	want := frame(e)
	if err := e.CompressSealed(1); err != nil {
		t.Fatal(err)
	}
	if comp, err := e.store.Compressed(0); err != nil || !comp {
		t.Fatalf("block 0 was not recompressed (%v)", err)
	}
	if !bytes.Equal(frame(e), want) {
		t.Error("recompression changed the checkpoint frame")
	}
	other := testEngine(t, Config{BlockMaxTxs: 16, Clock: clock.Fixed(1)})
	for h := uint64(0); h < e.Height(); h++ {
		b, err := e.store.Block(h)
		if err != nil {
			t.Fatal(err)
		}
		if err := other.ApplyBlock(b); err != nil {
			t.Fatalf("apply block %d: %v", h, err)
		}
	}
	if !bytes.Equal(frame(other), want) {
		t.Error("the same blocks in segments of another size checkpoint to another frame")
	}
}

// BenchmarkIntervalCheckpoint shows that an interval checkpoint costs
// the interval, not the chain: the k-th checkpoint appends the same
// bytes and holds e.mu about as long on a 200-block chain as on a
// 2,000-block one (the whole-state format scaled both tenfold).
//
//	go test -run '^$' -bench IntervalCheckpoint -benchtime 5x ./internal/core
func BenchmarkIntervalCheckpoint(b *testing.B) {
	const iv, blockTxs = 50, 100
	for _, chain := range []int{200, 2000} {
		b.Run(fmt.Sprintf("chain=%d", chain), func(b *testing.B) {
			reg := obs.NewRegistry(clock.UnixMicro)
			e, commit, logSize := intervalChain(b, Config{BlockMaxTxs: blockTxs, CheckpointInterval: iv, Obs: reg, CacheMode: CacheNone}, chain)
			hold := func() obs.HistSnapshot { return reg.Histograms()["sebdb_snapshot_build_micros"] }
			size0, hold0 := logSize(), hold()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				commit(iv) // the last block crosses a boundary: one window
			}
			b.StopTimer()
			if err := e.CheckpointErr(); err != nil {
				b.Fatal(err)
			}
			hold1 := hold()
			if got := hold1.Count - hold0.Count; got != uint64(b.N) {
				b.Fatalf("%d windows cut in %d intervals", got, b.N)
			}
			b.ReportMetric(float64(logSize()-size0)/float64(b.N), "appended-B/ckpt")
			b.ReportMetric(float64(hold1.Sum-hold0.Sum)/float64(b.N), "mu-held-us/ckpt")
		})
	}
}
