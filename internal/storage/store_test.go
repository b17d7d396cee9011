package storage

import (
	"bytes"
	"crypto/ed25519"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"sebdb/internal/types"
)

var storeKey = ed25519.NewKeyFromSeed(make([]byte, ed25519.SeedSize))

func mkBlock(prev *types.BlockHeader, firstTid uint64, n int) *types.Block {
	txs := make([]*types.Transaction, n)
	for i := range txs {
		txs[i] = &types.Transaction{
			Tid: firstTid + uint64(i), Ts: int64(firstTid) * 10,
			SenID: "org1", Tname: "donate",
			Args: []types.Value{types.Str("Jack"), types.Dec(float64(i))},
		}
	}
	b := types.NewBlock(prev, txs, int64(firstTid)*100, "node0")
	b.Header.Sign(storeKey)
	return b
}

func appendChain(t testing.TB, s *Store, blocks, txPerBlock int) []*types.Block {
	t.Helper()
	var out []*types.Block
	var prev *types.BlockHeader
	tid := uint64(1)
	for i := 0; i < blocks; i++ {
		b := mkBlock(prev, tid, txPerBlock)
		if _, err := s.AppendNoSync(b); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		prev = &b.Header
		tid += uint64(txPerBlock)
		out = append(out, b)
	}
	return out
}

func TestAppendAndRead(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	blocks := appendChain(t, s, 5, 3)
	if s.Count() != 5 {
		t.Fatalf("Count = %d", s.Count())
	}
	for i, want := range blocks {
		got, err := s.Block(uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		if got.Header.Hash() != want.Header.Hash() {
			t.Errorf("block %d hash mismatch", i)
		}
		if len(got.Txs) != 3 {
			t.Errorf("block %d has %d txs", i, len(got.Txs))
		}
	}
	tip, ok := s.Tip()
	if !ok || tip.Height != 4 {
		t.Errorf("Tip = %+v, %v", tip, ok)
	}
	if hs, cursors := s.Prefix(); len(hs) != 5 || cursors[2] != 7 {
		t.Errorf("Prefix: %d headers, cursor of block 2 = %d", len(hs), cursors[2])
	}
	if _, err := s.Block(99); err != ErrNoBlock {
		t.Errorf("missing block err = %v", err)
	}
	if _, err := s.Header(99); err != ErrNoBlock {
		t.Errorf("missing header err = %v", err)
	}
}

func TestLinkageEnforced(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	appendChain(t, s, 2, 2)
	// A block not linked to the tip must be rejected. (Self-validation,
	// a Merkle root that matches the body, is the engine's job before
	// the append: TestApplyBlockRefusesBrokenMerkleRoot in core.)
	orphan := mkBlock(nil, 100, 1)
	if _, err := s.AppendNoSync(orphan); err == nil {
		t.Error("unlinked block accepted")
	}
	// A block linked to the tip but stamped no later than it is refused
	// too: the block-level index bisects the headers by timestamp.
	tip, _ := s.Tip()
	for _, ts := range []int64{tip.Timestamp, tip.Timestamp - 1, 10} {
		b := mkBlock(&tip, 5, 1)
		b.Header.Timestamp = ts
		b.Header.Sign(storeKey)
		if _, err := s.AppendNoSync(b); !errors.Is(err, ErrNotLinked) {
			t.Errorf("block stamped %d after a tip at %d: err = %v", ts, tip.Timestamp, err)
		}
	}
	if s.Count() != 2 {
		t.Errorf("refused blocks changed the height to %d", s.Count())
	}
}

// TestPrefixCursors: the tid cursor of an empty block is the tid the
// chain would assign next, the same whether the block was appended,
// recovered by a segment scan or seeded from checkpoint metadata.
func TestPrefixCursors(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var prev *types.BlockHeader
	tid := uint64(1)
	for _, n := range []int{0, 2, 0, 0, 3, 0} {
		b := mkBlock(prev, tid, n)
		b.Header.Timestamp = int64(len(s.headers)+1) * 10
		b.Header.Sign(storeKey)
		if _, err := s.AppendNoSync(b); err != nil {
			t.Fatal(err)
		}
		prev, tid = &b.Header, tid+uint64(n)
	}
	want := []uint64{1, 1, 3, 3, 3, 6}
	check := func(how string, s *Store) {
		t.Helper()
		hs, cursors := s.Prefix()
		if len(hs) != len(want) || !slices.Equal(cursors, want) {
			t.Errorf("%s: cursors = %v, want %v", how, cursors, want)
		}
		if cap(hs) != len(hs) || cap(cursors) != len(cursors) {
			t.Errorf("%s: Prefix leaves room to append into the store's arrays", how)
		}
	}
	check("appended", s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	scanned, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer scanned.Close()
	check("scanned", scanned)
}

func TestRecoveryAfterReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	blocks := appendChain(t, s, 10, 4)
	s.Close()

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Count() != 10 {
		t.Fatalf("recovered Count = %d", s2.Count())
	}
	got, err := s2.Block(7)
	if err != nil || got.Header.Hash() != blocks[7].Header.Hash() {
		t.Errorf("recovered block 7 mismatch: %v", err)
	}
	// And the chain keeps growing from where it left off.
	tip, _ := s2.Tip()
	next := mkBlock(&tip, 41, 2)
	if _, err := s2.AppendNoSync(next); err != nil {
		t.Errorf("append after recovery: %v", err)
	}
}

func TestSegmentRolling(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{SegmentSize: 2048})
	if err != nil {
		t.Fatal(err)
	}
	appendChain(t, s, 20, 3)
	s.Close()

	segs, _ := filepath.Glob(filepath.Join(dir, "blocks-*.seg"))
	if len(segs) < 2 {
		t.Fatalf("expected multiple segments, got %d", len(segs))
	}
	s2, err := Open(dir, Options{SegmentSize: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Count() != 20 {
		t.Errorf("recovered across segments: Count = %d", s2.Count())
	}
	for i := 0; i < 20; i++ {
		if _, err := s2.Block(uint64(i)); err != nil {
			t.Errorf("block %d unreadable after segment roll: %v", i, err)
		}
	}
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendChain(t, s, 3, 2)
	s.Close()

	// Simulate a torn write: append garbage to the last segment.
	path := filepath.Join(dir, "blocks-000000.seg")
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0x5E, 0xBD, 0xB1, 0x0C, 0x00, 0x00, 0x10}) // truncated header
	f.Close()

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("recovery with torn tail: %v", err)
	}
	defer s2.Close()
	if s2.Count() != 3 {
		t.Errorf("Count after torn tail = %d", s2.Count())
	}
	tip, _ := s2.Tip()
	if _, err := s2.AppendNoSync(mkBlock(&tip, 7, 1)); err != nil {
		t.Errorf("append after torn-tail recovery: %v", err)
	}
}

// TestTornLengthAllocatesNothingOfIt: a record whose length field
// claims more bytes than its segment holds is a torn tail, found
// before the recovery scan sizes a buffer from that field.
func TestTornLengthAllocatesNothingOfIt(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendChain(t, s, 2, 2)
	second := s.recs[1].loc.Offset
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, "blocks-000000.seg"), os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xff, 0xff, 0xff, 0xf0}, second+4); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s2, err := Open(dir, Options{})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 16<<20 {
		t.Errorf("Open allocated %d MB", got>>20)
	}
	if s2.Count() != 1 || s2.curSize != second {
		t.Errorf("%d blocks, segment of %d bytes; want 1 block, the torn record cut at %d",
			s2.Count(), s2.curSize, second)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestHeadersCopy(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	appendChain(t, s, 4, 1)
	hs := s.Headers()
	if len(hs) != 4 {
		t.Fatalf("Headers len = %d", len(hs))
	}
	hs[0].Height = 999 // mutating the copy must not affect the store
	h0, _ := s.Header(0)
	if h0.Height != 0 {
		t.Error("Headers returned aliased memory")
	}
}

func TestEmptyStore(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Count() != 0 {
		t.Error("fresh store not empty")
	}
	if _, ok := s.Tip(); ok {
		t.Error("empty store has a tip")
	}
	// Genesis must have height 0.
	bad := mkBlock(nil, 1, 1)
	bad.Header.Height = 3
	if _, err := s.AppendNoSync(bad); err == nil {
		t.Error("non-zero-height genesis accepted")
	}
}

func TestSyncOption(t *testing.T) {
	s, err := Open(t.TempDir(), Options{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	appendChain(t, s, 2, 1)
	if s.Count() != 2 || !s.dirty {
		t.Fatalf("Count = %d, dirty = %v after appends: want 2 appends pending a sync", s.Count(), s.dirty)
	}
	if err := s.SyncBatch(); err != nil {
		t.Fatalf("sync batch: %v", err)
	}
	if s.dirty {
		t.Error("SyncBatch left the appends pending")
	}
}

func TestReadTx(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	blocks := appendChain(t, s, 4, 5)
	for bid, blk := range blocks {
		for pos, want := range blk.Txs {
			got, err := s.ReadTx(uint64(bid), uint32(pos))
			if err != nil {
				t.Fatalf("ReadTx(%d,%d): %v", bid, pos, err)
			}
			if got.Hash() != want.Hash() {
				t.Errorf("ReadTx(%d,%d) returned wrong tx", bid, pos)
			}
		}
	}
	if _, err := s.ReadTx(0, 99); err == nil {
		t.Error("out-of-range pos accepted")
	}
	if _, err := s.ReadTx(99, 0); err != ErrNoBlock {
		t.Errorf("missing block err = %v", err)
	}
	s.Close()

	// Offsets survive recovery.
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, err := s2.ReadTx(2, 3)
	if err != nil || got.Hash() != blocks[2].Txs[3].Hash() {
		t.Errorf("ReadTx after recovery: %v", err)
	}
}

// TestAppendReopenProperty drives random append/reopen sequences and
// checks every block stays readable with intact content.
func TestAppendReopenProperty(t *testing.T) {
	dir := t.TempDir()
	var all []*types.Block
	var prev *types.BlockHeader
	tid := uint64(1)
	rng := int64(1)
	s, err := Open(dir, Options{SegmentSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 60; round++ {
		rng = rng*6364136223846793005 + 1442695040888963407
		n := int(uint64(rng)>>60) + 1 // 1..16 txs
		b := mkBlock(prev, tid, n)
		if _, err := s.AppendNoSync(b); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		prev = &b.Header
		tid += uint64(n)
		all = append(all, b)
		if round%7 == 3 { // periodic crash/reopen
			s.Close()
			if s, err = Open(dir, Options{SegmentSize: 4096}); err != nil {
				t.Fatalf("reopen at %d: %v", round, err)
			}
			tipNow, ok := s.Tip()
			if !ok || tipNow.Hash() != prev.Hash() {
				t.Fatalf("round %d: tip lost across reopen", round)
			}
		}
	}
	defer s.Close()
	if s.Count() != len(all) {
		t.Fatalf("Count = %d, want %d", s.Count(), len(all))
	}
	for i, want := range all {
		got, err := s.Block(uint64(i))
		if err != nil || got.Header.Hash() != want.Header.Hash() {
			t.Fatalf("block %d: %v", i, err)
		}
		for pos := range want.Txs {
			tx, err := s.ReadTx(uint64(i), uint32(pos))
			if err != nil || tx.Hash() != want.Txs[pos].Hash() {
				t.Fatalf("tx %d/%d: %v", i, pos, err)
			}
		}
	}
}

// TestBodyLen checks the stored body length matches the block's actual
// encoding, both freshly appended and after a recovery scan.
func TestBodyLen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{SegmentSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	blocks := appendChain(t, s, 6, 4)
	check := func(s *Store) {
		t.Helper()
		for i, b := range blocks {
			n, err := s.BodyLen(uint64(i))
			if err != nil {
				t.Fatal(err)
			}
			if want := int64(len(b.EncodeBytes())); n != want {
				t.Fatalf("block %d: BodyLen %d, want %d", i, n, want)
			}
		}
		if _, err := s.BodyLen(uint64(len(blocks))); err == nil {
			t.Fatal("BodyLen past the tip: expected error")
		}
	}
	check(s)
	s.Close()
	if s, err = Open(dir, Options{SegmentSize: 4096}); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	check(s)
}

// TestOffsetWalkAllocatesOnlyOffsets: learning where each transaction
// of a 200-transaction block starts — what the recovery scan and every
// append do — allocates the offsets slice and nothing per transaction.
// The header decode is measured apart and subtracted.
func TestOffsetWalkAllocatesOnlyOffsets(t *testing.T) {
	body := mkBlock(nil, 1, 200).EncodeBytes()
	header := testing.AllocsPerRun(50, func() {
		if _, err := types.DecodeBlockHeader(types.NewDecoder(body)); err != nil {
			t.Fatal(err)
		}
	})
	var offs []uint32
	walk := testing.AllocsPerRun(50, func() {
		var err error
		if _, offs, err = decodeBlockOffsets(body); err != nil {
			t.Fatal(err)
		}
	})
	if got := walk - header; got != 1 {
		t.Fatalf("the offset walk allocated %.0f times beyond the header, want 1 (the offsets slice)", got)
	}
	b, err := types.DecodeBlock(types.NewDecoder(body))
	if err != nil {
		t.Fatal(err)
	}
	if len(offs) != 201 || offs[200] != uint32(len(body)) {
		t.Fatalf("%d offsets ending at %d, want 201 ending at %d", len(offs), offs[len(offs)-1], len(body))
	}
	for i, tx := range b.Txs {
		if got := string(body[offs[i]:offs[i+1]]); got != string(tx.EncodeBytes()) {
			t.Fatalf("transaction %d: offsets cut %d bytes that are not its encoding", i, len(got))
		}
	}
}

// TestBodySlicesTransactions: Body hands out the raw body whose tx
// offsets slice it into the transactions' canonical encodings — on the
// plain tier and the compressed one.
func TestBodySlicesTransactions(t *testing.T) {
	s, err := Open(t.TempDir(), Options{SegmentSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	blocks := appendChain(t, s, 12, 5)
	check := func(tier string) {
		for h, b := range blocks {
			err := s.Body(uint64(h), func(body []byte, txOffs []uint32) error {
				if len(txOffs) != len(b.Txs)+1 {
					t.Fatalf("%s block %d: %d offsets for %d txs", tier, h, len(txOffs), len(b.Txs))
				}
				for i, tx := range b.Txs {
					if !bytes.Equal(body[txOffs[i]:txOffs[i+1]], tx.EncodeBytes()) {
						t.Fatalf("%s block %d tx %d: body slice is not the tx encoding", tier, h, i)
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Body(12, func([]byte, []uint32) error { return nil }); !errors.Is(err, ErrNoBlock) {
			t.Fatalf("%s: Body beyond the tip err = %v", tier, err)
		}
	}
	check("plain")
	for _, seg := range s.CompressTargets(1) {
		if err := s.CompressSegment(seg); err != nil {
			t.Fatal(err)
		}
	}
	check("compressed")
}

// TestParallelScanKeepsSerialErrors: Open scans segments at once but
// must fail as the one-at-a-time scan does. Segment 0 holds a corrupt
// record (its scan stops there without an error, dropping the rest), and
// segment 1 a record in the retired format, first or after valid
// records: the serial scan reports whichever of segment 1's record
// formats and linkage it meets first, and so must every worker count —
// never the retired record alone because its segment finished first.
func TestParallelScanKeepsSerialErrors(t *testing.T) {
	for _, at := range []string{"first", "last"} {
		t.Run("retired record "+at, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir, Options{SegmentSize: 2048})
			if err != nil {
				t.Fatal(err)
			}
			appendChain(t, s, 20, 3)
			s.Close()
			seg := func(n uint32) string { return s.segPath(n) }
			if _, err := os.Stat(seg(2)); err != nil {
				t.Fatalf("want at least three segments: %v", err)
			}
			// Corrupt a byte of segment 0's second record, keeping its frame.
			data, err := os.ReadFile(seg(0))
			if err != nil {
				t.Fatal(err)
			}
			first := headerSize + int(binary.BigEndian.Uint32(data[4:])) + trailerSize
			data[first+headerSize+10] ^= 0xFF
			if err := os.WriteFile(seg(0), data, 0o644); err != nil {
				t.Fatal(err)
			}
			// A retired-format record in segment 1.
			data, err = os.ReadFile(seg(1))
			if err != nil {
				t.Fatal(err)
			}
			retired := encodeRecord(recordMagicZ, []byte("retired"))
			if at == "first" {
				data = append(retired, data...)
			} else {
				data = append(data, retired...)
			}
			if err := os.WriteFile(seg(1), data, 0o644); err != nil {
				t.Fatal(err)
			}
			var errs []string
			for _, workers := range []int{1, 2, 4} {
				s, err := Open(dir, Options{SegmentSize: 2048, Parallelism: workers})
				if err == nil {
					s.Close()
					t.Fatalf("Parallelism %d: Open accepted a corrupt store", workers)
				}
				errs = append(errs, err.Error())
			}
			if errs[1] != errs[0] || errs[2] != errs[0] {
				t.Errorf("errors differ by worker count:\n%s", strings.Join(errs, "\n"))
			}
			wantLinkage := at == "last"
			if got := strings.Contains(errs[0], ErrNotLinked.Error()); got != wantLinkage {
				t.Errorf("serial error %q: linkage failure %v, want %v", errs[0], got, wantLinkage)
			}
		})
	}
}
