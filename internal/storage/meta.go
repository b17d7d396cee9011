package storage

import (
	"fmt"
	"io"
	"slices"

	"sebdb/internal/types"
)

// Meta is a point-in-time image of the store's in-memory segment
// metadata for the first Count blocks of the chain: everything recover
// would rebuild by scanning the segments from byte zero. A checkpoint
// embeds a Meta so a restart can seed this state directly and scan
// only the suffix written after the checkpoint.
type Meta struct {
	// Headers holds the block headers in height order.
	Headers []types.BlockHeader
	// Locs holds each block's on-disk location.
	Locs []Location
	// Lens holds each block's raw encoded body length. This is
	// chain-derived, so recompression never changes it.
	Lens []int64
	// Stored holds each block's on-disk record payload length — equal
	// to Lens for plain records, smaller for compressed ones. Node-
	// local: two replicas of the same chain may disagree here.
	Stored []int64
	// Comp records which blocks are stored compressed.
	Comp []bool
	// TxOffs holds each block's transaction byte offsets (with the
	// final sentinel), as AppendNoSync and the recovery scan record them.
	TxOffs [][]uint32
}

// Count returns the number of blocks the metadata covers.
func (m *Meta) Count() int { return len(m.Headers) }

// MetaWindow snapshots what a checkpoint frame for blocks [lo, hi)
// records: the chain-derived fields (Headers, Lens, TxOffs) for the
// window alone — they never change once a block is sealed, so earlier
// frames already hold the rest — and the node-local geometry (Locs,
// Stored, Comp) for all of [0, hi), because recompression rewrites it
// for old blocks. hi must not exceed the chain length. With lo == 0 the
// result is a whole Meta OpenWithMeta accepts; a later window fails its
// equal-lengths check by design.
func (s *Store) MetaWindow(lo, hi uint64) (*Meta, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if lo > hi || hi > uint64(len(s.headers)) {
		return nil, ErrNoBlock
	}
	m := &Meta{
		Headers: append([]types.BlockHeader(nil), s.headers[lo:hi]...),
		Locs:    make([]Location, hi),
		Lens:    make([]int64, 0, hi-lo),
		Stored:  make([]int64, hi),
		Comp:    make([]bool, hi),
		TxOffs:  make([][]uint32, 0, hi-lo),
	}
	for i, rec := range s.recs[:hi] {
		m.Locs[i], m.Stored[i], m.Comp[i] = rec.loc, rec.stored, rec.comp
		if uint64(i) >= lo {
			m.Lens = append(m.Lens, rec.rawLen)
			m.TxOffs = append(m.TxOffs, append([]uint32(nil), rec.txOffs...))
		}
	}
	return m, nil
}

// OpenWithMeta opens the store seeded with checkpoint metadata,
// scanning only the blocks appended after the metadata was taken. The
// metadata is verified against the segments before it is trusted: in
// every segment it covers, the last covered block is re-read from disk
// and must be the record the metadata describes, with the metadata's
// header hash — a per-segment anchor. One anchor per segment is what
// recompression demands: a rewrite shifts every offset after the first
// resized record, so the tip alone can no longer vouch for older
// segments. Any disagreement returns ErrMetaMismatch, on which callers
// must fall back to a full-replay Open.
func OpenWithMeta(dir string, opts Options, m *Meta) (*Store, error) {
	if m == nil {
		return nil, fmt.Errorf("%w: no metadata", ErrMetaMismatch)
	}
	return open(dir, opts, m)
}

// seed verifies m against the nsegs segments on disk and loads it as
// the store's state, returning the first byte it does not cover: the
// end of its last block's record.
func (s *Store) seed(m *Meta, nsegs int) (Location, error) {
	if len(m.Headers) == 0 ||
		len(m.Headers) != len(m.Locs) || len(m.Headers) != len(m.Lens) ||
		len(m.Headers) != len(m.Stored) || len(m.Headers) != len(m.Comp) ||
		len(m.Headers) != len(m.TxOffs) {
		return Location{}, fmt.Errorf("%w: malformed metadata", ErrMetaMismatch)
	}
	last := len(m.Headers) - 1
	if int(m.Locs[last].Segment) >= nsegs {
		return Location{}, fmt.Errorf("%w: anchor segment %06d missing", ErrMetaMismatch, m.Locs[last].Segment)
	}
	// Verify the last covered block of every covered segment. A stale
	// checkpoint — taken before a segment was recompressed — fails its
	// anchor (the record is no longer at the recorded offset, or its
	// representation changed) and degrades to a full replay.
	for i := last; i >= 0; {
		if err := s.verifyAnchor(m, i); err != nil {
			return Location{}, err
		}
		seg := m.Locs[i].Segment
		for i >= 0 && m.Locs[i].Segment == seg {
			i--
		}
	}

	// The anchors match the bytes on disk: seed the in-memory state.
	s.headers = make([]types.BlockHeader, 0, len(m.Headers))
	s.txBase = make([]uint64, 0, len(m.Headers))
	s.recs = make([]record, len(m.Headers))
	for i := range m.Headers {
		s.pushHeader(&m.Headers[i])
		s.recs[i] = record{loc: m.Locs[i], stored: m.Stored[i], rawLen: m.Lens[i],
			txOffs: append([]uint32(nil), m.TxOffs[i]...), comp: m.Comp[i]}
		if m.Comp[i] {
			s.compacted[m.Locs[i].Segment] = true
		}
	}
	end := m.Locs[last]
	end.Offset += headerSize + m.Stored[last] + trailerSize
	return end, nil
}

// verifyAnchor re-reads block i's record from disk through the framing
// check the recovery scan applies, and holds what it finds to the
// metadata: the same record shape, height and header hash. All failures
// are ErrMetaMismatch.
func (s *Store) verifyAnchor(m *Meta, i int) error {
	loc := m.Locs[i]
	path := s.segPath(loc.Segment)
	fi, err := s.fs.Stat(path)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrMetaMismatch, err)
	}
	f, err := s.fs.Open(path)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrMetaMismatch, err)
	}
	defer f.Close() //sebdb:ignore-err read-only handle
	c := inflaters.Get().(*inflater)
	defer inflaters.Put(c)
	r := io.NewSectionReader(f, loc.Offset, fi.Size()-loc.Offset)
	rec, h, ok, err := s.nextRecord(c, r, loc.Segment, loc.Offset, fi.Size())
	switch {
	case err != nil:
		return fmt.Errorf("%w: %v", ErrMetaMismatch, err)
	case !ok:
		return fmt.Errorf("%w: no valid record at the anchor (height %d)", ErrMetaMismatch, i)
	case rec.comp != m.Comp[i] || rec.stored != m.Stored[i] || rec.rawLen != m.Lens[i] || !slices.Equal(rec.txOffs, m.TxOffs[i]):
		return fmt.Errorf("%w: anchor record at height %d is not the one the metadata describes", ErrMetaMismatch, i)
	case h.Height != uint64(i) || h.Hash() != m.Headers[i].Hash():
		return fmt.Errorf("%w: anchor hash disagrees at height %d", ErrMetaMismatch, i)
	}
	return nil
}
