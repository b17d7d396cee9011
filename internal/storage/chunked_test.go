package storage

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sebdb/internal/types"
)

// mkBlockWith builds a signed block of n transactions whose arguments
// come from args, for chains with blocks of chosen size and entropy.
func mkBlockWith(prev *types.BlockHeader, firstTid uint64, n int, args func(i int) []types.Value) *types.Block {
	txs := make([]*types.Transaction, n)
	for i := range txs {
		txs[i] = &types.Transaction{
			Tid: firstTid + uint64(i), Ts: int64(firstTid) * 10,
			SenID: "org1", Tname: "donate", Args: args(i),
		}
	}
	b := types.NewBlock(prev, txs, int64(firstTid)*100, "node0")
	b.Header.Sign(storeKey)
	return b
}

// shapedChain appends the same chain of awkward blocks to every store:
// multi-chunk bodies, a one-transaction block, an incompressible block
// and small ones, then small filler blocks until everything before the
// filler sits in sealed segments. It returns the number of shaped
// (non-filler) blocks.
func shapedChain(t *testing.T, stores ...*Store) int {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	noise := make([]byte, 6<<10)
	rng.Read(noise)
	donate := func(i int) []types.Value { return []types.Value{types.Str("Jack"), types.Dec(float64(i))} }
	shapes := []struct {
		n    int
		args func(i int) []types.Value
	}{
		{300, donate}, // three chunks
		{1, donate},   // one tx, one chunk
		{1, func(int) []types.Value { return []types.Value{types.Str(string(noise))} }}, // incompressible: stays plain
		{200, donate},
		{3, donate},
		{150, donate}, // just over one chunk target: two chunks
	}
	var prev *types.BlockHeader
	tid := uint64(1)
	add := func(n int, args func(int) []types.Value) {
		b := mkBlockWith(prev, tid, n, args)
		for _, s := range stores {
			if _, err := s.AppendNoSync(b); err != nil {
				t.Fatal(err)
			}
		}
		prev = &b.Header
		tid += uint64(n)
	}
	for _, sh := range shapes {
		add(sh.n, sh.args)
	}
	sealed := stores[0].recs[len(shapes)-1].loc.Segment
	for stores[0].curSeg <= sealed {
		add(3, donate)
	}
	return len(shapes)
}

// onDisk returns the magic and payload of the block's record as it sits
// in its segment file.
func onDisk(t *testing.T, s *Store, height int) (uint32, []byte) {
	t.Helper()
	data, err := os.ReadFile(s.segPath(s.recs[height].loc.Segment))
	if err != nil {
		t.Fatal(err)
	}
	rec := data[s.recs[height].loc.Offset:]
	n := binary.BigEndian.Uint32(rec[4:])
	return binary.BigEndian.Uint32(rec), rec[headerSize : headerSize+int(n)]
}

// sameReads checks that got serves byte-identical blocks and tuples to
// want for every height and every position.
func sameReads(t *testing.T, want, got *Store) {
	t.Helper()
	if got.Count() != want.Count() {
		t.Fatalf("count %d, want %d", got.Count(), want.Count())
	}
	for h := 0; h < want.Count(); h++ {
		wb, err := want.Block(uint64(h))
		if err != nil {
			t.Fatal(err)
		}
		gb, err := got.Block(uint64(h))
		if err != nil {
			t.Fatalf("block %d: %v", h, err)
		}
		if !bytes.Equal(gb.EncodeBytes(), wb.EncodeBytes()) {
			t.Fatalf("block %d differs from the plain tier", h)
		}
		for pos, wtx := range wb.Txs {
			gtx, err := got.ReadTx(uint64(h), uint32(pos))
			if err != nil {
				t.Fatalf("ReadTx(%d, %d): %v", h, pos, err)
			}
			if !bytes.Equal(gtx.EncodeBytes(), wtx.EncodeBytes()) {
				t.Fatalf("ReadTx(%d, %d) differs from the plain tier", h, pos)
			}
		}
		if _, err := got.ReadTx(uint64(h), uint32(len(wb.Txs))); err == nil {
			t.Fatalf("ReadTx(%d, %d) past the last tx succeeded", h, len(wb.Txs))
		}
	}
}

func TestChunkedRoundTrip(t *testing.T) {
	opts := Options{SegmentSize: 64 << 10}
	plain, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	dir := t.TempDir()
	cold, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	shaped := shapedChain(t, plain, cold)
	compressAll(t, cold)

	// The shapes landed as intended: chunk counts, tx-aligned cuts, and
	// the incompressible block plain between compressed neighbours.
	wantChunks := []int{3, 1, 0, 2, 1, 2}
	for h := 0; h < shaped; h++ {
		magic, payload := onDisk(t, cold, h)
		if wantChunks[h] == 0 {
			if magic != recordMagic {
				t.Errorf("block %d: magic %#x, want a plain record", h, magic)
			}
			continue
		}
		if magic != recordMagicC {
			t.Fatalf("block %d: magic %#x, want recordMagicC", h, magic)
		}
		z, err := parseChunked(payload)
		if err != nil {
			t.Fatalf("block %d: %v", h, err)
		}
		if err := z.check(cold.recs[h].rawLen, cold.recs[h].txOffs); err != nil {
			t.Errorf("block %d: %v", h, err)
		}
		if z.n != wantChunks[h] {
			t.Errorf("block %d: %d chunks, want %d", h, z.n, wantChunks[h])
		}
	}
	if cold.recs[1].loc.Segment != cold.recs[2].loc.Segment || cold.recs[2].loc.Segment != cold.recs[3].loc.Segment {
		t.Fatal("fixture: the plain block does not share a segment with compressed ones")
	}
	sameReads(t, plain, cold)

	// Recovery scan over the chunked records, then a checkpoint-seeded
	// open over the same files.
	meta, err := cold.MetaWindow(0, uint64(cold.Count()))
	if err != nil {
		t.Fatal(err)
	}
	if err := cold.Close(); err != nil {
		t.Fatal(err)
	}
	for name, open := range map[string]func() (*Store, error){
		"scan": func() (*Store, error) { return Open(dir, Options{SegmentSize: opts.SegmentSize, Mmap: true}) },
		"meta": func() (*Store, error) { return OpenWithMeta(dir, opts, meta) },
	} {
		re, err := open()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sameReads(t, plain, re)
		if again := re.CompressTargets(1); len(again) != 0 {
			t.Errorf("%s: reopen forgot recompressed segments: %v", name, again)
		}
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLegacyCompressedRecords opens a checked-in store whose sealed
// segments were recompressed by the retired recordMagicZ writer (one
// DEFLATE stream per body, before chunk framing). This version does not
// read that format: Open must fail naming the segment and the format,
// and leave every file as it was — in particular, a legacy segment at
// the tail must not be truncated as if it were a torn write.
func TestLegacyCompressedRecords(t *testing.T) {
	fixture := filepath.Join("testdata", "legacy-z")
	for name, files := range map[string][]string{
		"whole store":         {"blocks-000000.seg", "blocks-000001.seg", "blocks-000002.seg"},
		"legacy segment tail": {"blocks-000000.seg"},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			want := make(map[string][]byte)
			for _, f := range files {
				data, err := os.ReadFile(filepath.Join(fixture, f))
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, f), data, 0o644); err != nil {
					t.Fatal(err)
				}
				want[f] = data
			}
			s, err := Open(dir, Options{SegmentSize: 4096})
			if err == nil {
				s.Close()
				t.Fatal("Open read a store holding retired recordMagicZ records")
			}
			if msg := err.Error(); !strings.Contains(msg, "blocks-000000.seg") || !strings.Contains(msg, "retired one-stream compressed format") {
				t.Errorf("error does not name the segment and the record format: %v", err)
			}
			for f, data := range want {
				got, err := os.ReadFile(filepath.Join(dir, f))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, data) {
					t.Errorf("%s changed on a refused Open: %d bytes, was %d", f, len(got), len(data))
				}
			}
		})
	}
}

// TestChunkTableHeldToBlockShape tampers with a compressed record's
// framing — keeping its CRC valid — and checks each read is refused
// with the segment path and offset in the error, not served or sized
// from the lie.
func TestChunkTableHeldToBlockShape(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{SegmentSize: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	shapedChain(t, s)
	compressAll(t, s)
	_, orig := onDisk(t, s, 0)
	path, off := s.segPath(s.recs[0].loc.Segment), s.recs[0].loc.Offset

	tamper := func(mutate func(payload []byte)) {
		payload := append([]byte(nil), orig...)
		mutate(payload)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		copy(data[off:], encodeRecord(recordMagicC, payload))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s.handles.drop(s.recs[0].loc.Segment)
	}
	entry := func(p []byte, i int) []byte { return p[chunkedFixed+i*chunkEntry:] }
	cases := map[string]func(p []byte){
		"rawLen":            func(p []byte) { binary.BigEndian.PutUint32(p, 1<<29) },
		"chunk count":       func(p []byte) { binary.BigEndian.PutUint16(p[4:], 2) },
		"non-monotonic":     func(p []byte) { copy(entry(p, 1), entry(p, 0)[:4]) },
		"last rawEnd":       func(p []byte) { binary.BigEndian.PutUint32(entry(p, 2), uint32(s.recs[0].rawLen)-1) },
		"last storedEnd":    func(p []byte) { binary.BigEndian.PutUint32(entry(p, 2)[4:], uint32(len(p))-1) },
		"not a tx boundary": func(p []byte) { binary.BigEndian.PutUint32(entry(p, 0), s.recs[0].txOffs[100]+1) },
	}
	for name, mutate := range cases {
		tamper(mutate)
		for what, read := range map[string]func() error{
			"Block":  func() error { _, err := s.Block(0); return err },
			"ReadTx": func() error { _, err := s.ReadTx(0, 150); return err },
		} {
			err := read()
			if err == nil {
				t.Errorf("%s: %s served a tampered record", name, what)
			} else if msg := err.Error(); !strings.Contains(msg, path) || !strings.Contains(msg, "offset 0") {
				t.Errorf("%s: %s error lacks segment path and offset: %v", name, what, err)
			}
		}
	}
	tamper(func([]byte) {})
	if _, err := s.ReadTx(0, 150); err != nil {
		t.Fatalf("restored record: %v", err)
	}
}
