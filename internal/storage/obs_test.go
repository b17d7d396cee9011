package storage

import (
	"testing"

	"sebdb/internal/obs"
)

// TestReadBytesCountSegmentBytes: every read path counts, once, the
// bytes it takes off the segment. A whole-record read (Body, Block,
// Iter.Body) takes the record header and the stored payload; a tuple
// read takes the tuple's bytes alone from a plain record and the whole
// stored record from a compressed one.
func TestReadBytesCountSegmentBytes(t *testing.T) {
	for _, compressed := range []bool{false, true} {
		s, err := Open(t.TempDir(), Options{SegmentSize: 2048})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		appendChain(t, s, 20, 4)
		if compressed {
			compressAll(t, s)
		}
		const h, pos = 1, 2
		if comp, err := s.Compressed(h); err != nil || comp != compressed {
			t.Fatalf("fixture: block %d compressed=%v (%v), want %v", h, comp, err, compressed)
		}
		stored, err := s.StoredLen(h)
		if err != nil {
			t.Fatal(err)
		}
		record := uint64(headerSize + stored)
		offs := s.txOffs[h]
		tuple := uint64(offs[pos+1] - offs[pos])
		if compressed {
			tuple = record
		}

		it, err := s.Blocks(h, h+1)
		if err != nil {
			t.Fatal(err)
		}
		defer it.Close()
		noop := func([]byte, []uint32) error { return nil }
		for _, tc := range []struct {
			name        string
			kind        readKind
			bytes       uint64
			read        func() error
			otherCounts *obs.Counter
		}{
			{"Body", blockRead, record, func() error { return s.Body(h, noop) }, mTxBytes},
			{"Block", blockRead, record, func() error { _, err := s.Block(h); return err }, mTxBytes},
			{"Iter.Body", blockRead, record, func() error { return it.Body(h, noop) }, mTxBytes},
			{"ReadTx", txRead, tuple, func() error { _, err := s.ReadTx(h, pos); return err }, mBlockBytes},
		} {
			reads, bytes, other := tc.kind.reads.Value(), tc.kind.bytes.Value(), tc.otherCounts.Value()
			if err := tc.read(); err != nil {
				t.Fatal(err)
			}
			if got := tc.kind.reads.Value() - reads; got != 1 {
				t.Errorf("compressed=%v %s: counted %d reads, want 1", compressed, tc.name, got)
			}
			if got := tc.kind.bytes.Value() - bytes; got != tc.bytes {
				t.Errorf("compressed=%v %s: counted %d bytes, the segment read %d", compressed, tc.name, got, tc.bytes)
			}
			if got := tc.otherCounts.Value() - other; got != 0 {
				t.Errorf("compressed=%v %s: %d bytes counted under the other kind", compressed, tc.name, got)
			}
		}
	}
}
