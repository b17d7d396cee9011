package storage

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"sebdb/internal/types"
)

// reopenBoth reopens dir twice — once via OpenWithMeta, once via full
// replay — and asserts both see the same chain.
func assertSameChain(t *testing.T, a, b *Store) {
	t.Helper()
	if a.Count() != b.Count() {
		t.Fatalf("Count %d != %d", a.Count(), b.Count())
	}
	for i := 0; i < a.Count(); i++ {
		ha, _ := a.Header(uint64(i))
		hb, _ := b.Header(uint64(i))
		if ha.Hash() != hb.Hash() {
			t.Fatalf("header %d hash mismatch", i)
		}
		ba, err := a.Block(uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		bb, err := b.Block(uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		if len(ba.Txs) != len(bb.Txs) {
			t.Fatalf("block %d tx count mismatch", i)
		}
	}
}

func TestOpenWithMetaSuffixScan(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendChain(t, s, 8, 2)
	m, err := s.MetaWindow(0, 5) // checkpoint covers blocks [0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	fast, err := OpenWithMeta(dir, Options{}, m)
	if err != nil {
		t.Fatal(err)
	}
	defer fast.Close()
	if fast.Count() != 8 {
		t.Fatalf("Count = %d, want 8 (5 from meta + 3 scanned)", fast.Count())
	}
	full, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer full.Close()
	assertSameChain(t, fast, full)

	// The fast-opened store must accept appends that extend the tip.
	tip, _ := fast.Tip()
	next := mkBlock(&tip, 17, 2)
	if _, err := fast.AppendNoSync(next); err != nil {
		t.Fatalf("append after fast open: %v", err)
	}
	if tip, _ = fast.Tip(); tip.Hash() != next.Header.Hash() {
		t.Fatal("append after fast open did not advance the tip")
	}
	if tx, err := fast.ReadTx(6, 1); err != nil || tx == nil {
		t.Fatalf("ReadTx through fast-opened store: %v", err)
	}
}

func TestOpenWithMetaAcrossSegments(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{SegmentSize: 1024}) // force rolls
	if err != nil {
		t.Fatal(err)
	}
	appendChain(t, s, 12, 2)
	if s.curSeg == 0 {
		t.Fatal("test needs multiple segments; lower SegmentSize")
	}
	m, err := s.MetaWindow(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	fast, err := OpenWithMeta(dir, Options{SegmentSize: 1024}, m)
	if err != nil {
		t.Fatal(err)
	}
	defer fast.Close()
	if fast.Count() != 12 {
		t.Fatalf("Count = %d, want 12", fast.Count())
	}
	full, err := Open(dir, Options{SegmentSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer full.Close()
	assertSameChain(t, fast, full)
}

func TestOpenWithMetaRejectsTamperedAnchor(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendChain(t, s, 4, 1)
	m, err := s.MetaWindow(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// A metadata tip that disagrees with the bytes on disk must be
	// rejected, not trusted.
	m.Headers[3].Timestamp++
	if _, err := OpenWithMeta(dir, Options{}, m); !errors.Is(err, ErrMetaMismatch) {
		t.Fatalf("err = %v, want ErrMetaMismatch", err)
	}

	// Malformed metadata shapes are rejected too.
	if _, err := OpenWithMeta(dir, Options{}, &Meta{}); !errors.Is(err, ErrMetaMismatch) {
		t.Fatalf("empty meta err = %v", err)
	}
}

func TestOpenWithMetaMissingSegment(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendChain(t, s, 3, 1)
	m, err := s.MetaWindow(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "blocks-000000.seg")); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenWithMeta(dir, Options{}, m); !errors.Is(err, ErrMetaMismatch) {
		t.Fatalf("err = %v, want ErrMetaMismatch", err)
	}
}

func TestOpenWithMetaTruncatesTornSuffix(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendChain(t, s, 6, 2)
	m, err := s.MetaWindow(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the last record: chop some trailing bytes off the segment.
	path := filepath.Join(dir, "blocks-000000.seg")
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-5); err != nil {
		t.Fatal(err)
	}

	fast, err := OpenWithMeta(dir, Options{}, m)
	if err != nil {
		t.Fatal(err)
	}
	defer fast.Close()
	if fast.Count() != 5 {
		t.Fatalf("Count = %d, want 5 (torn block 5 dropped)", fast.Count())
	}
	// The tail was repaired: a follow-up append must link cleanly.
	tip, _ := fast.Tip()
	b := mkBlock(&tip, 11, 2)
	if _, err := fast.AppendNoSync(b); err != nil {
		t.Fatalf("append after repair: %v", err)
	}
}

func TestMetaBounds(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	appendChain(t, s, 2, 1)
	if _, err := s.MetaWindow(0, 3); !errors.Is(err, ErrNoBlock) {
		t.Fatalf("Meta beyond tip err = %v", err)
	}
	m, err := s.MetaWindow(0, 2)
	if err != nil || m.Count() != 2 {
		t.Fatalf("Meta(2) = %v, %v", m, err)
	}
	// Mutating the copy must not alias store state.
	m.TxOffs[0][0] = 999
	if tx, err := s.ReadTx(0, 0); err != nil || tx == nil {
		t.Fatalf("store state aliased by Meta copy: %v", err)
	}
}

// TestMetaWindowAndBody: consecutive windows carry disjoint slices of
// the chain-derived fields and the whole geometry up to their end, and
// Body hands out the raw body whose tx offsets slice it into the
// transactions' canonical encodings — on the plain tier and the
// compressed one.
func TestMetaWindowAndBody(t *testing.T) {
	s, err := Open(t.TempDir(), Options{SegmentSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	blocks := appendChain(t, s, 12, 5)
	whole, err := s.MetaWindow(0, 12)
	if err != nil {
		t.Fatal(err)
	}
	var headers []types.BlockHeader
	var offs [][]uint32
	for _, w := range [][2]uint64{{0, 4}, {4, 5}, {5, 12}} {
		m, err := s.MetaWindow(w[0], w[1])
		if err != nil {
			t.Fatal(err)
		}
		if uint64(len(m.Headers)) != w[1]-w[0] || uint64(len(m.Lens)) != w[1]-w[0] || uint64(len(m.Locs)) != w[1] || uint64(len(m.Comp)) != w[1] {
			t.Fatalf("window %v: %d headers, %d lens, %d locs", w, len(m.Headers), len(m.Lens), len(m.Locs))
		}
		headers = append(headers, m.Headers...)
		offs = append(offs, m.TxOffs...)
	}
	if !reflect.DeepEqual(headers, whole.Headers) || !reflect.DeepEqual(offs, whole.TxOffs) {
		t.Fatal("the windows do not concatenate to the whole metadata")
	}
	if _, err := s.MetaWindow(5, 13); !errors.Is(err, ErrNoBlock) {
		t.Fatalf("MetaWindow beyond tip err = %v", err)
	}

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
