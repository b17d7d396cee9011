package snapshot

import (
	"bytes"
	"crypto/ed25519"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"sebdb/internal/faultfs"
	"sebdb/internal/index/layered"
	"sebdb/internal/types"
)

var testKey = ed25519.NewKeyFromSeed(make([]byte, ed25519.SeedSize))

// buildChain returns the headers of a chain of n tiny signed blocks.
func buildChain(n int) []types.BlockHeader {
	var hs []types.BlockHeader
	var prev *types.BlockHeader
	for i := 0; i < n; i++ {
		tx := &types.Transaction{
			Tid: uint64(i + 1), Ts: int64(i+1) * 1000, SenID: "org1", Tname: "donate",
			Args: []types.Value{types.Str("Jack"), types.Dec(float64(i))},
		}
		b := types.NewBlock(prev, []*types.Transaction{tx}, int64(i+1)*1000, "node0")
		b.Header.Sign(testKey)
		hs = append(hs, b.Header)
		prev = &hs[i]
	}
	return hs
}

// mkWindow assembles the checkpoint window [lo, hi) over the chain hs
// with one of every state family populated: every block holds one
// donate row by org1 whose money is the block height.
func mkWindow(hs []types.BlockHeader, lo, hi uint64) *Checkpoint {
	c := &Checkpoint{
		Lo:      lo,
		Height:  hi,
		Anchor:  hs[hi-1].Hash(),
		LastTid: hi,
		LastTs:  int64(hi) * 1000,
		Indexes: []IndexState{{Key: ".senid"}, {Key: ".tname"}, {Key: "donate.money"}},
		ALIs:    []IndexState{{Key: "donate.money"}},
	}
	if lo > 0 {
		c.Prev = hs[lo-1].Hash()
	}
	for b := lo; b < hi; b++ {
		c.Indexes[0].Blocks = append(c.Indexes[0].Blocks, []layered.Entry{{Key: types.Str("org1")}})
		c.Indexes[1].Blocks = append(c.Indexes[1].Blocks, []layered.Entry{{Key: types.Str("donate")}})
		var money []layered.Entry // odd blocks carry no indexed row
		if b%2 == 0 {
			money = []layered.Entry{{Key: types.Dec(float64(b))}}
		}
		c.Indexes[2].Blocks = append(c.Indexes[2].Blocks, money)
		c.ALIs[0].Blocks = append(c.ALIs[0].Blocks, money)
	}
	return c
}

// mkCheckpoint is the whole-state checkpoint over the chain hs.
func mkCheckpoint(hs []types.BlockHeader) *Checkpoint {
	return mkWindow(hs, 0, uint64(len(hs)))
}

// reframe recomputes a frame's CRC trailer after its payload was
// edited, so a test reaches the structural checks behind the CRC.
func reframe(frame []byte) []byte {
	out := bytes.Clone(frame)
	n := len(out) - frameTrailer
	binary.BigEndian.PutUint32(out[n:], crc32.ChecksumIEEE(out[frameHeader:n]))
	return out
}

func TestCheckpointRoundTrip(t *testing.T) {
	s := buildChain(3)
	ck := mkCheckpoint(s)
	got, err := Decode(ck.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Lo != 0 || got.Height != ck.Height || got.Prev != (types.Hash{}) || got.Anchor != ck.Anchor ||
		got.LastTid != ck.LastTid || got.LastTs != ck.LastTs {
		t.Fatalf("pin mismatch: %+v", got)
	}
	if !reflect.DeepEqual(got.Indexes, ck.Indexes) {
		t.Fatalf("indexes mismatch: %+v", got.Indexes)
	}
	if !reflect.DeepEqual(got.ALIs, ck.ALIs) {
		t.Fatalf("alis mismatch: %+v", got.ALIs)
	}
}

// TestLogFoldsWindows: a log of consecutive windows decodes to the very
// checkpoint one whole-state frame at the same height decodes to.
func TestLogFoldsWindows(t *testing.T) {
	s := buildChain(7)
	var log []byte
	for _, w := range [][2]uint64{{0, 3}, {3, 4}, {4, 7}} {
		log = append(log, mkWindow(s, w[0], w[1]).Encode()...)
	}
	folded, err := Decode(log)
	if err != nil {
		t.Fatal(err)
	}
	whole, err := Decode(mkCheckpoint(s).Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(folded, whole) {
		t.Fatalf("folded log differs from the whole-state frame:\n%+v\nvs\n%+v", folded, whole)
	}
	if !bytes.Equal(folded.Encode(), whole.Encode()) {
		t.Fatal("folded log re-encodes differently")
	}
}

func TestDecodeRejectsTampering(t *testing.T) {
	s := buildChain(5)
	good := mkCheckpoint(s).Encode()

	if _, err := Decode(nil); err == nil {
		t.Fatal("empty payload must fail")
	}
	if _, err := Decode(good[:len(good)-1]); err == nil {
		t.Fatal("truncated payload must fail")
	}
	if _, err := Decode(append(bytes.Clone(good), 0)); err == nil {
		t.Fatal("trailing bytes must fail")
	}
	bad := bytes.Clone(good)
	bad[len(bad)/2] ^= 0xFF
	if _, err := Decode(bad); err == nil {
		t.Fatal("a flipped byte must fail the frame CRC")
	}
	// A window at block 0 follows no block: a Prev there is refused.
	bad = bytes.Clone(good)
	bad[frameHeader+4+8+8] ^= 0xFF // first Prev byte (after version, lo, hi)
	if _, err := Decode(reframe(bad)); err == nil {
		t.Fatal("a whole-state frame naming a previous block must fail")
	}

	// A log must start at block 0 and every frame continue the last.
	first, second, third := mkWindow(s, 0, 2).Encode(), mkWindow(s, 2, 3).Encode(), mkWindow(s, 3, 5).Encode()
	// Flip the first frame's anchor and repair the CRC: the next frame's
	// Prev no longer names it.
	bad = bytes.Clone(first)
	bad[frameHeader+4+8+8+32] ^= 0xFF // first anchor byte (after version, lo, hi, prev)
	if _, err := Decode(append(reframe(bad), second...)); err == nil {
		t.Fatal("a frame that does not follow the anchor before it must fail")
	}
	for name, log := range map[string][]byte{
		"starts late": second,
		"gap":         append(bytes.Clone(first), third...),
		"repeat":      append(append(bytes.Clone(first), second...), second...),
	} {
		if _, err := Decode(log); err == nil {
			t.Errorf("%s: a log that does not tile the chain must fail", name)
		}
	}
	// A frame over another index set does not continue the generation.
	other := mkWindow(s, 2, 3)
	other.ALIs = nil
	if _, err := Decode(append(bytes.Clone(first), other.Encode()...)); err == nil {
		t.Error("a frame that changes the index set must fail")
	}
	if _, err := Decode(append(append(bytes.Clone(first), second...), third...)); err != nil {
		t.Fatalf("the well-formed log failed: %v", err)
	}
}

func dirFiles(t *testing.T, d *Dir) []string {
	t.Helper()
	entries, err := os.ReadDir(d.Path())
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// TestDirAppendsWindows: the first write opens a log, later windows are
// appended to the same file and cost their own bytes only, Load folds
// them, and a new generation replaces the file.
func TestDirAppendsWindows(t *testing.T) {
	dataDir := t.TempDir()
	s := buildChain(9)
	d := NewDir(nil, dataDir)

	if ck, err := d.Load(); err != nil || ck != nil {
		t.Fatalf("Load on empty dir = %v, %v", ck, err)
	}
	if err := d.Write(mkWindow(s, 3, 5)); err == nil {
		t.Fatal("a window must not be written into a directory without a log")
	}
	if err := d.Write(mkWindow(s, 0, 3)); err != nil {
		t.Fatal(err)
	}
	if got := dirFiles(t, d); !reflect.DeepEqual(got, []string{"MANIFEST", logName(1)}) {
		t.Fatalf("directory holds %v", got)
	}
	size := func() int64 {
		st, err := os.Stat(filepath.Join(d.Path(), logName(1)))
		if err != nil {
			t.Fatal(err)
		}
		return st.Size()
	}
	for _, w := range [][2]uint64{{3, 5}, {5, 6}} {
		before := size()
		win := mkWindow(s, w[0], w[1])
		if err := d.Write(win); err != nil {
			t.Fatal(err)
		}
		if grew := size() - before; grew != int64(len(win.Encode())) {
			t.Fatalf("window %v grew the log by %d bytes, its frame has %d", w, grew, len(win.Encode()))
		}
	}
	if err := d.Write(mkWindow(s, 7, 9)); err == nil {
		t.Fatal("a window leaving a gap must be refused")
	}

	// A fresh Dir (a restart) folds the three frames and continues them.
	d = NewDir(nil, dataDir)
	if err := d.Write(mkWindow(s, 3, 5)); err == nil {
		t.Fatal("a Dir that loaded nothing must refuse to append")
	}
	got, err := d.Load()
	if err != nil || got == nil {
		t.Fatalf("Load = %v, %v", got, err)
	}
	want, err := Decode(mkWindow(s, 0, 6).Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("loaded checkpoint differs from the whole state at 6:\n%+v\nvs\n%+v", got, want)
	}
	if d.Height() != 6 {
		t.Fatalf("pinned height = %d", d.Height())
	}
	if err := d.Write(mkWindow(s, 6, 9)); err != nil {
		t.Fatal(err)
	}

	// A whole-state write starts generation 2 and sweeps generation 1.
	if err := d.Write(mkCheckpoint(s)); err != nil {
		t.Fatal(err)
	}
	if got := dirFiles(t, d); !reflect.DeepEqual(got, []string{"MANIFEST", logName(2)}) {
		t.Fatalf("directory holds %v after a new generation", got)
	}
	if got, err := NewDir(nil, dataDir).Load(); err != nil || got == nil || got.Height != 9 {
		t.Fatalf("Load after a new generation = %v, %v", got, err)
	}
}

// TestDirLoadBadFrame: a damaged frame ends the usable prefix — Load
// returns the state at the last good frame and the next write cuts the
// rest away; a damaged first frame or manifest leaves nothing.
func TestDirLoadBadFrame(t *testing.T) {
	for _, damage := range []string{"flip", "truncate"} {
		for frame := 0; frame < 3; frame++ {
			dataDir := t.TempDir()
			s := buildChain(7)
			d := NewDir(nil, dataDir)
			var ends []int
			for _, w := range [][2]uint64{{0, 3}, {3, 5}, {5, 7}} {
				win := mkWindow(s, w[0], w[1])
				if err := d.Write(win); err != nil {
					t.Fatal(err)
				}
				ends = append(ends, len(win.Encode()))
			}
			for i := 1; i < len(ends); i++ {
				ends[i] += ends[i-1]
			}
			logPath := filepath.Join(d.Path(), logName(1))
			blob, err := os.ReadFile(logPath)
			if err != nil {
				t.Fatal(err)
			}
			if damage == "flip" {
				blob[ends[frame]-10] ^= 0xFF
			} else {
				blob = blob[:ends[frame]-10]
			}
			if err := os.WriteFile(logPath, blob, 0o644); err != nil {
				t.Fatal(err)
			}

			d = NewDir(nil, dataDir)
			got, err := d.Load()
			if err != nil {
				t.Fatalf("%s frame %d: Load error %v", damage, frame, err)
			}
			wantHeight := []uint64{0, 3, 5}[frame]
			if wantHeight == 0 {
				if got != nil {
					t.Fatalf("%s frame 0: Load = %+v, want no checkpoint", damage, got)
				}
			} else {
				if got == nil || got.Height != wantHeight || d.Height() != wantHeight {
					t.Fatalf("%s frame %d: Load = %+v, want the prefix at %d", damage, frame, got, wantHeight)
				}
				// The next window replaces the damaged tail.
				if err := d.Write(mkWindow(s, wantHeight, 7)); err != nil {
					t.Fatal(err)
				}
				re, err := NewDir(nil, dataDir).Load()
				if err != nil || re == nil || re.Height != 7 {
					t.Fatalf("%s frame %d: reload after repair = %v, %v", damage, frame, re, err)
				}
			}
		}
	}

	dataDir := t.TempDir()
	s := buildChain(3)
	d := NewDir(nil, dataDir)
	if err := d.Write(mkCheckpoint(s)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(d.Path(), manifestName), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := d.Load(); err != nil || got != nil {
		t.Fatalf("corrupt manifest: Load = %v, %v (want nil, nil)", got, err)
	}
}

// TestDirWriteCrashMatrix drives Dir.Write through every faultfs
// crash-point of both write protocols — a window appended to the log
// (truncate the unpinned tail, append, fsync, manifest tmp + fsync +
// rename) and a new generation (log tmp + fsync + rename, manifest,
// sweep) — and asserts the directory always recovers to a valid
// checkpoint: the previous pin or the new one, never garbage. The write
// after the reboot then has to cut a torn tail off and leave a log that
// tiles the chain exactly.
func TestDirWriteCrashMatrix(t *testing.T) {
	const chain, oldHeight, newHeight = 7, 3, 5
	for _, mode := range []string{"append", "generation"} {
		// setup leaves a log pinned at oldHeight — with the torn tail of an
		// earlier crashed append behind it, so the append protocol's
		// truncate step is in the matrix — and returns the next write.
		setup := func(t *testing.T) (dataDir string, s []types.BlockHeader, next *Checkpoint) {
			dataDir = t.TempDir()
			s = buildChain(chain)
			d := NewDir(nil, dataDir)
			if err := d.Write(mkWindow(s, 0, oldHeight)); err != nil {
				t.Fatal(err)
			}
			f, err := os.OpenFile(filepath.Join(d.Path(), logName(1)), os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(mkWindow(s, oldHeight, newHeight).Encode()[:40]); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			if mode == "append" {
				return dataDir, s, mkWindow(s, oldHeight, newHeight)
			}
			return dataDir, s, mkWindow(s, 0, newHeight)
		}
		write := func(fs faultfs.FS, dataDir string, next *Checkpoint) error {
			d := NewDir(fs, dataDir)
			if ck, err := d.Load(); err != nil || ck == nil {
				return err
			}
			return d.Write(next)
		}

		dataDir, _, next := setup(t)
		rehearse := faultfs.New(faultfs.Options{OpsBeforeCrash: -1})
		if err := write(rehearse, dataDir, next); err != nil {
			t.Fatal(err)
		}
		total := rehearse.Mutations()
		if total < 7 { // truncate + write + sync, or create + write + sync + rename; then the manifest's four
			t.Fatalf("%s: implausible mutation count %d", mode, total)
		}

		for k := 0; k < total; k++ {
			dataDir, s, next := setup(t)
			inj := faultfs.New(faultfs.Options{OpsBeforeCrash: k})
			err := write(inj, dataDir, next)
			if !inj.Crashed() {
				t.Fatalf("%s: crash point %d never reached (err %v)", mode, k, err)
			}
			// "Reboot": a clean FS must load a valid checkpoint.
			d := NewDir(nil, dataDir)
			got, err := d.Load()
			if err != nil {
				t.Fatalf("%s: crash at op %d: Load error %v", mode, k, err)
			}
			if got == nil {
				t.Fatalf("%s: crash at op %d: checkpoint lost entirely", mode, k)
			}
			if got.Height != oldHeight && got.Height != newHeight {
				t.Fatalf("%s: crash at op %d: recovered height %d, want %d or %d", mode, k, got.Height, oldHeight, newHeight)
			}
			if want := mkWindow(s, 0, got.Height); got.Anchor != want.Anchor {
				t.Fatalf("%s: crash at op %d: anchor mismatch at height %d", mode, k, got.Height)
			}
			// The next interval's window continues whatever survived.
			if err := d.Write(mkWindow(s, got.Height, chain)); err != nil {
				t.Fatalf("%s: crash at op %d: write after reboot: %v", mode, k, err)
			}
			m, payload, err := pinnedLog(NewDir(nil, dataDir))
			if err != nil || m == nil {
				t.Fatalf("%s: crash at op %d: pinned log after repair = %v, %v", mode, k, m, err)
			}
			if st, err := os.Stat(filepath.Join(d.Path(), m.File)); err != nil || uint64(st.Size()) != m.Size {
				t.Fatalf("%s: crash at op %d: log holds bytes past the pinned %d", mode, k, m.Size)
			}
			re, err := Decode(payload)
			if err != nil || re.Height != chain {
				t.Fatalf("%s: crash at op %d: repaired log = %v, %v", mode, k, re, err)
			}
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode([]byte("not a checkpoint")); err == nil {
		t.Fatal("Decode must accept only checkpoint logs")
	}
}

// pinnedLog reads the log prefix d's manifest pins, checked against the
// manifest's CRC: the whole state as Decode folds it.
func pinnedLog(d *Dir) (*Manifest, []byte, error) {
	m, err := d.Manifest()
	if err != nil || m == nil {
		return nil, nil, err
	}
	blob, err := os.ReadFile(filepath.Join(d.Path(), m.File))
	if err != nil {
		return nil, nil, err
	}
	if uint64(len(blob)) < m.Size || crc32.ChecksumIEEE(blob[:m.Size]) != m.CRC {
		return nil, nil, ErrCorrupt
	}
	return m, blob[:m.Size], nil
}

func TestRawPayloadRoundTrip(t *testing.T) {
	srcDir := t.TempDir()
	s := buildChain(5)
	src := NewDir(nil, srcDir)
	if err := src.Write(mkWindow(s, 0, 3)); err != nil {
		t.Fatal(err)
	}
	if err := src.Write(mkWindow(s, 3, 5)); err != nil {
		t.Fatal(err)
	}
	m, payload, err := pinnedLog(src)
	if err != nil || m == nil {
		t.Fatalf("pinned log = %v, %v", m, err)
	}
	if uint64(len(payload)) != m.Size || crc32.ChecksumIEEE(payload) != m.CRC {
		t.Fatal("pinned log disagrees with its manifest")
	}

	ck := mkCheckpoint(s)
	got, err := Decode(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got.Height != ck.Height || got.Anchor != ck.Anchor {
		t.Fatalf("decoded pin mismatch: %+v", got)
	}
	if !bytes.Equal(got.Encode(), ck.Encode()) {
		t.Fatal("decoded payload differs from its source")
	}
	dst := NewDir(nil, t.TempDir())
	if err := dst.Write(got); err != nil {
		t.Fatal(err)
	}
	re, err := dst.Load()
	if err != nil || re == nil || re.Height != ck.Height {
		t.Fatalf("reload after write = %v, %v", re, err)
	}
}

func TestManifestAlone(t *testing.T) {
	dir := t.TempDir()
	d := NewDir(nil, dir)
	if m, err := d.Manifest(); err != nil || m != nil {
		t.Fatalf("Manifest on empty dir = %v, %v", m, err)
	}
	s := buildChain(2)
	ck := mkCheckpoint(s)
	if err := d.Write(ck); err != nil {
		t.Fatal(err)
	}
	m, err := d.Manifest()
	if err != nil || m == nil {
		t.Fatalf("Manifest = %v, %v", m, err)
	}
	if m.Height != ck.Height || m.Anchor != ck.Anchor {
		t.Fatalf("manifest pin mismatch: %+v", m)
	}
}
