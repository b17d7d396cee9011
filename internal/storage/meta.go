package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

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
	// chain-derived (divergence checks compare it across nodes), so
	// recompression never changes it.
	Lens []int64
	// Stored holds each block's on-disk record payload length — equal
	// to Lens for plain records, smaller for compressed ones. Node-
	// local: two replicas of the same chain may disagree here.
	Stored []int64
	// Comp records which blocks are stored compressed.
	Comp []bool
	// TxOffs holds each block's transaction byte offsets (with the
	// final sentinel), as maintained by Append and scanSegment.
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
		Locs:    append([]Location(nil), s.locs[:hi]...),
		Lens:    append([]int64(nil), s.lens[lo:hi]...),
		Stored:  append([]int64(nil), s.stored[:hi]...),
		Comp:    append([]bool(nil), s.comp[:hi]...),
		TxOffs:  make([][]uint32, hi-lo),
	}
	for i := range m.TxOffs {
		m.TxOffs[i] = append([]uint32(nil), s.txOffs[lo+uint64(i)]...)
	}
	return m, nil
}

// OpenWithMeta opens the store seeded with checkpoint metadata,
// scanning only the blocks appended after the metadata was taken. The
// metadata is verified against the segments before it is trusted: in
// every segment it covers, the last covered block is re-read from disk
// (magic, CRC, decoded header) and its hash must equal the metadata's —
// a per-segment anchor. One anchor per segment is what recompression
// demands: a rewrite shifts every offset after the first resized
// record, so the tip alone can no longer vouch for older segments.
// Any disagreement returns ErrMetaMismatch, on which callers must fall
// back to a full-replay Open.
func OpenWithMeta(dir string, opts Options, m *Meta) (*Store, error) {
	s, err := newStore(dir, opts)
	if err != nil {
		return nil, err
	}
	if err := s.openWithMeta(m); err != nil {
		s.Close() //sebdb:ignore-err releasing partially opened handles on the error path
		return nil, err
	}
	return s, nil
}

func (s *Store) openWithMeta(m *Meta) error {
	if m == nil || len(m.Headers) == 0 ||
		len(m.Headers) != len(m.Locs) || len(m.Headers) != len(m.Lens) ||
		len(m.Headers) != len(m.Stored) || len(m.Headers) != len(m.Comp) ||
		len(m.Headers) != len(m.TxOffs) {
		return fmt.Errorf("%w: malformed metadata", ErrMetaMismatch)
	}
	last := len(m.Headers) - 1
	loc := m.Locs[last]
	// Verify the last covered block of every covered segment. A stale
	// checkpoint — taken before a segment was recompressed — fails its
	// anchor (the record is no longer at the recorded offset, or its
	// representation changed) and degrades to a full replay.
	for i := last; i >= 0; {
		if err := s.verifyAnchor(m, i); err != nil {
			return err
		}
		seg := m.Locs[i].Segment
		for i >= 0 && m.Locs[i].Segment == seg {
			i--
		}
	}

	// The anchors match the bytes on disk: seed the in-memory state.
	s.headers = make([]types.BlockHeader, 0, len(m.Headers))
	s.txBase = make([]uint64, 0, len(m.Headers))
	for i := range m.Headers {
		s.pushHeader(&m.Headers[i])
	}
	s.locs = append([]Location(nil), m.Locs...)
	s.lens = append([]int64(nil), m.Lens...)
	s.stored = append([]int64(nil), m.Stored...)
	s.comp = append([]bool(nil), m.Comp...)
	s.txOffs = make([][]uint32, len(m.TxOffs))
	for i := range m.TxOffs {
		s.txOffs[i] = append([]uint32(nil), m.TxOffs[i]...)
	}
	for i, c := range m.Comp {
		if c {
			s.compacted[m.Locs[i].Segment] = true
		}
	}

	if err := s.removeLeftoverTmp(); err != nil {
		return err
	}
	// Scan only the suffix: the bytes after the anchor block in its
	// segment, plus any later segments.
	segs, err := s.listSegs()
	if err != nil {
		return fmt.Errorf("%w: %v", ErrMetaMismatch, err)
	}
	if len(segs) == 0 || segs[len(segs)-1] < loc.Segment {
		return fmt.Errorf("%w: anchor segment %06d missing", ErrMetaMismatch, loc.Segment)
	}
	start := loc.Offset + headerSize + m.Stored[last] + trailerSize
	for _, n := range segs {
		if n < loc.Segment {
			continue
		}
		base := int64(0)
		if n == loc.Segment {
			base = start
		}
		fi, err := s.fs.Stat(s.segPath(n))
		if err != nil {
			return fmt.Errorf("storage: %w", err)
		}
		f, err := s.fs.Open(s.segPath(n))
		if err != nil {
			return fmt.Errorf("storage: %w", err)
		}
		sr := io.NewSectionReader(f, base, math.MaxInt64-base)
		valid, err := s.scanSegment(sr, n, base, fi.Size())
		if cerr := f.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("storage: %w", cerr)
		}
		if err != nil {
			return fmt.Errorf("%w: %v", ErrMetaMismatch, err)
		}
		if n == segs[len(segs)-1] {
			if err := s.repairTail(n, valid); err != nil {
				return err
			}
			s.curSeg, s.curSize = n, valid
		}
	}
	s.activeSeg.Store(s.curSeg)
	f, err := s.fs.OpenFile(s.segPath(s.curSeg), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	s.cur = f
	return nil
}

// verifyAnchor re-reads block i from disk and checks magic, CRC,
// stored and raw lengths and header hash against the metadata. All
// failures are ErrMetaMismatch.
func (s *Store) verifyAnchor(m *Meta, i int) error {
	loc := m.Locs[i]
	f, err := s.fs.Open(s.segPath(loc.Segment))
	if err != nil {
		return fmt.Errorf("%w: %v", ErrMetaMismatch, err)
	}
	defer f.Close() //sebdb:ignore-err read-only handle
	hdr := make([]byte, headerSize)
	if _, err := f.ReadAt(hdr, loc.Offset); err != nil {
		return fmt.Errorf("%w: reading anchor record: %v", ErrMetaMismatch, err)
	}
	if binary.BigEndian.Uint32(hdr) != magicFor(m.Comp[i]) {
		return fmt.Errorf("%w: bad magic at anchor (height %d)", ErrMetaMismatch, i)
	}
	n := binary.BigEndian.Uint32(hdr[4:])
	if int64(n) != m.Stored[i] {
		return fmt.Errorf("%w: anchor stored length %d != %d", ErrMetaMismatch, n, m.Stored[i])
	}
	payload := make([]byte, int(n)+trailerSize)
	if _, err := f.ReadAt(payload, loc.Offset+headerSize); err != nil {
		return fmt.Errorf("%w: reading anchor body: %v", ErrMetaMismatch, err)
	}
	body := payload[:n]
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(payload[n:]) {
		return fmt.Errorf("%w: anchor CRC mismatch", ErrMetaMismatch)
	}
	if m.Comp[i] {
		c := inflaters.Get().(*inflater)
		defer inflaters.Put(c)
		z, err := openChunked(body, m.Lens[i], m.TxOffs[i])
		if err == nil {
			body, err = c.inflate(&z, 0, z.rawLen)
		}
		if err != nil {
			return fmt.Errorf("%w: %v", ErrMetaMismatch, err)
		}
	}
	if int64(len(body)) != m.Lens[i] {
		return fmt.Errorf("%w: anchor raw length %d != %d", ErrMetaMismatch, len(body), m.Lens[i])
	}
	h, err := types.DecodeBlockHeader(types.NewDecoder(body))
	if err != nil {
		return fmt.Errorf("%w: %v", ErrMetaMismatch, err)
	}
	if h.Height != uint64(i) || h.Hash() != m.Headers[i].Hash() {
		return fmt.Errorf("%w: anchor hash disagrees at height %d", ErrMetaMismatch, i)
	}
	return nil
}
