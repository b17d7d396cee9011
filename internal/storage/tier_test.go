package storage

import (
	"bytes"
	"crypto/sha256"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"sebdb/internal/faultfs"
)

// chainDigest reads every block through the store's public read path
// and folds the encoded bytes into one hash: two stores serving the
// same chain must produce identical digests regardless of tier.
func chainDigest(t *testing.T, s *Store) [32]byte {
	t.Helper()
	h := sha256.New()
	for i := 0; i < s.Count(); i++ {
		b, err := s.Block(uint64(i))
		if err != nil {
			t.Fatalf("block %d: %v", i, err)
		}
		h.Write(b.EncodeBytes())
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// copyTree clones a segment directory so crash-matrix runs can mutate
// a throwaway copy.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.IsDir() {
			sub := filepath.Join(dst, e.Name())
			if err := os.MkdirAll(sub, 0o755); err != nil {
				t.Fatal(err)
			}
			copyTree(t, filepath.Join(src, e.Name()), sub)
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// compressAll recompresses every sealed segment at least one behind
// the tail.
func compressAll(t *testing.T, s *Store) {
	t.Helper()
	for _, seg := range s.CompressTargets(1) {
		if err := s.CompressSegment(seg); err != nil {
			t.Fatalf("compress segment %d: %v", seg, err)
		}
	}
}

func TestMmapPreadByteEquivalence(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{SegmentSize: 2048})
	if err != nil {
		t.Fatal(err)
	}
	appendChain(t, s, 30, 3)
	want := chainDigest(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	mmapBefore := mTierMmap.Value()
	m, err := Open(dir, Options{SegmentSize: 2048, Mmap: true})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if got := chainDigest(t, m); got != want {
		t.Error("mmap store returned different bytes than pread store")
	}
	for i := 0; i < 30; i += 7 {
		tx, err := m.ReadTx(uint64(i), 1)
		if err != nil {
			t.Fatalf("ReadTx(%d, 1): %v", i, err)
		}
		if tx.SenID != "org1" {
			t.Errorf("ReadTx(%d, 1).SenID = %q", i, tx.SenID)
		}
	}
	if mTierMmap.Value() == mmapBefore {
		t.Error("no reads were served by the mmap tier")
	}
}

func TestMmapFallbackToPread(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{SegmentSize: 2048})
	if err != nil {
		t.Fatal(err)
	}
	appendChain(t, s, 20, 3)
	want := chainDigest(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	fbBefore := mMmapFallbacks.Value()
	inj := faultfs.New(faultfs.Options{OpsBeforeCrash: -1, MmapErrors: true})
	f, err := Open(dir, Options{SegmentSize: 2048, Mmap: true, FS: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if got := chainDigest(t, f); got != want {
		t.Error("fallback store returned different bytes")
	}
	if mMmapFallbacks.Value() == fbBefore {
		t.Error("mmap failure did not register a fallback")
	}
}

func TestCompressRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{SegmentSize: 2048})
	if err != nil {
		t.Fatal(err)
	}
	appendChain(t, s, 30, 3)
	want := chainDigest(t, s)
	before, err := s.DiskBytes()
	if err != nil {
		t.Fatal(err)
	}
	targets := s.CompressTargets(1)
	if len(targets) == 0 {
		t.Fatal("test needs sealed segments; lower SegmentSize")
	}
	compressAll(t, s)
	after, err := s.DiskBytes()
	if err != nil {
		t.Fatal(err)
	}
	if after >= before {
		t.Errorf("recompression grew the chain: %d -> %d bytes", before, after)
	}
	// Reads through the same store see identical bytes, and at least
	// one early block is now stored compressed (shorter than raw).
	if got := chainDigest(t, s); got != want {
		t.Error("reads diverged after recompression")
	}
	comp, err := s.Compressed(0)
	if err != nil {
		t.Fatal(err)
	}
	if !comp {
		t.Error("block 0 not compressed after recompression")
	}
	raw, _ := s.BodyLen(0)
	stored, _ := s.StoredLen(0)
	if stored >= raw {
		t.Errorf("block 0 stored %d bytes >= raw %d", stored, raw)
	}
	// A second sweep must find nothing left to do.
	if again := s.CompressTargets(1); len(again) != 0 {
		t.Errorf("second sweep still wants segments %v", again)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Full-scan recovery over the mixed plain/compressed files, with
	// the mmap tier on top.
	re, err := Open(dir, Options{SegmentSize: 2048, Mmap: true})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := chainDigest(t, re); got != want {
		t.Error("reopened store returned different bytes")
	}
	// Recovery must also remember which segments are done.
	if again := re.CompressTargets(1); len(again) != 0 {
		t.Errorf("reopen forgot recompressed segments: %v", again)
	}
}

func TestCompressedReadTxMatchesBlock(t *testing.T) {
	s, err := Open(t.TempDir(), Options{SegmentSize: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	appendChain(t, s, 20, 4)
	compressAll(t, s)
	for i := 0; i < 20; i++ {
		b, err := s.Block(uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		for pos := range b.Txs {
			tx, err := s.ReadTx(uint64(i), uint32(pos))
			if err != nil {
				t.Fatalf("ReadTx(%d, %d): %v", i, pos, err)
			}
			if !bytes.Equal(tx.EncodeBytes(), b.Txs[pos].EncodeBytes()) {
				t.Fatalf("ReadTx(%d, %d) diverges from Block", i, pos)
			}
		}
	}
}

func TestHandleCacheBounded(t *testing.T) {
	s, err := Open(t.TempDir(), Options{SegmentSize: 1024, MaxOpenSegments: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	appendChain(t, s, 40, 3)
	evBefore := mHandleEvictions.Value()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 400; i++ {
		h := uint64(rng.Intn(s.Count()))
		if _, err := s.Block(h); err != nil {
			t.Fatalf("block %d: %v", h, err)
		}
		// The cache may briefly hold cap entries plus the active
		// segment's exempt handle.
		if n := s.OpenHandles(); n > 3 {
			t.Fatalf("handle cache grew to %d descriptors", n)
		}
	}
	if mHandleEvictions.Value() == evBefore {
		t.Error("random reads over 40 segments never evicted a handle")
	}
}

// TestRecompressionCrashMatrix crashes a recompression pass at every
// mutating operation and checks the reopened chain is byte-identical
// to the original every time: the tmp+sync+rename discipline means a
// crash can lose at most the rewrite, never a block.
func TestRecompressionCrashMatrix(t *testing.T) {
	seed := t.TempDir()
	s, err := Open(seed, Options{SegmentSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	appendChain(t, s, 12, 3)
	want := chainDigest(t, s)
	count := s.Count()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Fault-free rehearsal sizes the matrix.
	rehearsal := t.TempDir()
	copyTree(t, seed, rehearsal)
	inj := faultfs.New(faultfs.Options{OpsBeforeCrash: -1})
	re, err := Open(rehearsal, Options{SegmentSize: 1024, FS: inj})
	if err != nil {
		t.Fatal(err)
	}
	compressAll(t, re)
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	total := inj.Mutations()
	if total == 0 {
		t.Fatal("rehearsal performed no mutating operations")
	}

	for k := 0; k < total; k++ {
		crashDir := t.TempDir()
		copyTree(t, seed, crashDir)
		inj := faultfs.New(faultfs.Options{OpsBeforeCrash: k})
		cs, err := Open(crashDir, Options{SegmentSize: 1024, FS: inj})
		if err == nil {
			for _, seg := range cs.CompressTargets(1) {
				if err := cs.CompressSegment(seg); err != nil {
					break
				}
			}
			cs.Close() // post-crash close; the simulated machine is already down
		}
		// Reboot on a clean filesystem: whatever the crash left behind
		// must recover to the identical chain.
		rb, err := Open(crashDir, Options{SegmentSize: 1024})
		if err != nil {
			t.Fatalf("k=%d: reboot failed: %v", k, err)
		}
		if rb.Count() != count {
			t.Fatalf("k=%d: rebooted with %d blocks, want %d", k, rb.Count(), count)
		}
		if got := chainDigest(t, rb); got != want {
			t.Fatalf("k=%d: rebooted chain diverges", k)
		}
		if err := rb.Close(); err != nil {
			t.Fatalf("k=%d: close: %v", k, err)
		}
	}
}

// TestTierRaceReadsVsCompression races block reads and tuple reads
// against recompression rewrites and appends; run under -race it checks
// that CompressSegment's rename, record rewrite and handle drop are one
// step under the store's write lock, so no reader pairs old offsets
// with new bytes.
func TestTierRaceReadsVsCompression(t *testing.T) {
	s, err := Open(t.TempDir(), Options{SegmentSize: 1024, Mmap: true, MaxOpenSegments: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	blocks := appendChain(t, s, 24, 3)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				h := uint64(rng.Intn(len(blocks)))
				b, err := s.Block(h)
				if err != nil {
					t.Errorf("block %d: %v", h, err)
					return
				}
				if b.Header.Hash() != blocks[h].Header.Hash() {
					t.Errorf("block %d hash mismatch mid-rewrite", h)
					return
				}
				if _, err := s.ReadTx(h, uint32(rng.Intn(3))); err != nil {
					t.Errorf("tx read %d: %v", h, err)
					return
				}
			}
		}(int64(g))
	}
	// Rewrite every sealed segment while the readers hammer, then keep
	// appending so fresh segments seal and a second sweep finds work.
	for round := 0; round < 3; round++ {
		for _, seg := range s.CompressTargets(1) {
			if err := s.CompressSegment(seg); err != nil {
				t.Errorf("compress %d: %v", seg, err)
			}
		}
		tip, _ := s.Tip()
		prev := tip
		b := mkBlock(&prev, uint64(1000+round*10), 3)
		if _, err := s.AppendNoSync(b); err != nil {
			t.Errorf("append: %v", err)
		}
	}
	close(stop)
	wg.Wait()
}
