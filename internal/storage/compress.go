package storage

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"sync"
)

// The two constants of the cold tier, chosen from the chunk-size × level
// table in DESIGN.md "Storage tiers" (measured on the benchmark's base
// chain); they are not options.
const (
	// chunkTarget is the raw size compressed records are cut into. Each
	// chunk is an independent DEFLATE stream, so a tuple read inflates
	// one chunk instead of the whole body; smaller chunks read faster
	// but compress worse.
	chunkTarget = 8 << 10
	// compressLevel is the DEFLATE level of every chunk: at 5, 8 KiB
	// chunks store ~13 % fewer bytes than the whole-body BestSpeed
	// stream they replace. Inflate cost falls as the level rises; only
	// the background rewrite pays for it.
	compressLevel = 5
)

const (
	// maxRawBodyLen caps the raw length a compressed record may claim
	// when the store has no length of its own to hold it to (the
	// recovery scan).
	maxRawBodyLen = 1 << 30
	// maxInflateRatio is DEFLATE's hard expansion limit (a 258-byte
	// match costs at least two bits): a record claiming more raw bytes
	// per stored byte is lying, whatever its checksum says.
	maxInflateRatio = 1032

	chunkedFixed = 6 // rawLen u32 + nChunks u16
	chunkEntry   = 8 // rawEnd u32 + storedEnd u32
)

// magicFor returns the magic of a plain or a compressed record.
func magicFor(compressed bool) uint32 {
	if compressed {
		return recordMagicC
	}
	return recordMagic
}

// chunked is a compressed record's payload with its framing parsed: the
// declared raw length and a table of n chunks, each an independent
// DEFLATE stream. Entry i holds the exclusive end of chunk i in the raw
// body and in the payload; chunk 0 starts at raw offset 0 and payload
// offset first (the end of the table).
type chunked struct {
	payload   []byte
	n         int
	rawLen    uint32
	storedLen uint32 // len(payload)
	first     uint32
}

// entry returns the raw and stored end offsets of chunk i.
func (z *chunked) entry(i int) (rawEnd, storedEnd uint32) {
	e := z.payload[chunkedFixed+i*chunkEntry:]
	return binary.BigEndian.Uint32(e), binary.BigEndian.Uint32(e[4:])
}

// parseChunked validates a compressed payload's framing against itself:
// the table fits, both columns rise strictly, the last chunk ends where
// the body and the payload end, and the claimed raw length is one the
// stored bytes could inflate to. Nothing is allocated.
func parseChunked(payload []byte) (chunked, error) {
	if int64(len(payload)) > math.MaxUint32 {
		return chunked{}, fmt.Errorf("compressed payload of %d bytes exceeds the record length prefix", len(payload))
	}
	if len(payload) < chunkedFixed {
		return chunked{}, fmt.Errorf("compressed payload of %d bytes has no length prefix", len(payload))
	}
	z := chunked{payload: payload, storedLen: uint32(len(payload))}
	z.rawLen = binary.BigEndian.Uint32(payload)
	if int64(z.rawLen) > maxRawBodyLen || int64(z.rawLen) > maxInflateRatio*int64(len(payload)) {
		return chunked{}, fmt.Errorf("compressed record of %d bytes claims %d raw bytes", len(payload), z.rawLen)
	}
	z.n = int(binary.BigEndian.Uint16(payload[4:]))
	end := chunkedFixed + z.n*chunkEntry
	if z.n == 0 || end > len(payload) {
		return chunked{}, fmt.Errorf("compressed record of %d bytes claims %d chunks", len(payload), z.n)
	}
	z.first = uint32(end)
	prevRaw, prevStored := uint32(0), z.first
	for i := 0; i < z.n; i++ {
		rawEnd, storedEnd := z.entry(i)
		if rawEnd <= prevRaw || storedEnd <= prevStored {
			return chunked{}, fmt.Errorf("chunk %d of %d ends at raw %d, stored %d: table does not rise", i, z.n, rawEnd, storedEnd)
		}
		prevRaw, prevStored = rawEnd, storedEnd
	}
	if prevRaw != z.rawLen || prevStored != z.storedLen {
		return chunked{}, fmt.Errorf("last chunk ends at raw %d of %d, stored %d of %d", prevRaw, z.rawLen, prevStored, len(payload))
	}
	return z, nil
}

// check holds the record to what the store knows about the block from
// the chain itself: its raw body length and transaction offsets (with
// the final sentinel). Every chunk must end on a transaction boundary —
// the writer cuts nowhere else, and ReadTx relies on a tuple never
// straddling two chunks.
func (z *chunked) check(rawLen int64, txOffs []uint32) error {
	if int64(z.rawLen) != rawLen {
		return fmt.Errorf("compressed record claims %d raw bytes, block has %d", z.rawLen, rawLen)
	}
	if z.n > len(txOffs) {
		return fmt.Errorf("compressed record claims %d chunks, block has %d transactions", z.n, len(txOffs)-1)
	}
	for i := 0; i < z.n; i++ {
		rawEnd, _ := z.entry(i)
		j := sort.Search(len(txOffs), func(j int) bool { return txOffs[j] >= rawEnd })
		if j == len(txOffs) || txOffs[j] != rawEnd {
			return fmt.Errorf("chunk %d ends at raw offset %d, inside a transaction", i, rawEnd)
		}
	}
	return nil
}

// openChunked parses a compressed payload and holds it to the block's
// known shape, in that order; nothing is inflated or sized before both
// pass.
func openChunked(payload []byte, rawLen int64, txOffs []uint32) (chunked, error) {
	z, err := parseChunked(payload)
	if err == nil {
		err = z.check(rawLen, txOffs)
	}
	return z, err
}

// inflater is the read side's reusable state: the stored-record input
// buffer, the inflate scratch and the DEFLATE decoder's tables, reset
// per call rather than allocated. Bodies it returns alias its buffers
// and are valid until it goes back to the pool; that is safe because
// DecodeBlock and DecodeTransaction copy every string and blob out of
// the buffer they decode.
type inflater struct {
	in  []byte
	raw []byte
	dec decoder
}

var inflaters = sync.Pool{New: func() any { return new(inflater) }}

// sized returns buf resized to n bytes, reallocating only to grow.
func sized(buf []byte, n int) []byte {
	if cap(buf) < n {
		return make([]byte, n)
	}
	return buf[:n]
}

// inflate is the store's one inflate routine: it returns raw bytes
// [from, to) of the body, inflating only the chunks that cover them
// into the scratch buffer. Each chunk's stream must produce exactly its
// declared raw length and consume exactly its stored bytes.
func (c *inflater) inflate(z *chunked, from, to uint32) ([]byte, error) {
	if from >= to || to > z.rawLen {
		return nil, fmt.Errorf("raw range [%d, %d) outside the record's %d bytes", from, to, z.rawLen)
	}
	// Chunks [lo, hi) cover the range: chunk lo starts at raw offset
	// base and payload offset storedStart, chunk hi-1 ends at limit.
	lo, hi := 0, 0
	base, storedStart, limit := uint32(0), z.first, uint32(0)
	for i := 0; i < z.n; i++ {
		rawEnd, storedEnd := z.entry(i)
		if rawEnd <= from {
			lo, base, storedStart = i+1, rawEnd, storedEnd
		} else if rawEnd >= to {
			hi, limit = i+1, rawEnd
			break
		}
	}
	c.raw = sized(c.raw, int(limit-base))
	rawStart := base
	for i := lo; i < hi; i++ {
		rawEnd, storedEnd := z.entry(i)
		if err := c.dec.inflate(c.raw[rawStart-base:rawEnd-base], z.payload[storedStart:storedEnd]); err != nil {
			return nil, fmt.Errorf("inflating chunk %d (%d raw, %d stored bytes): %w",
				i, rawEnd-rawStart, storedEnd-storedStart, err)
		}
		rawStart, storedStart = rawEnd, storedEnd
	}
	return c.raw[from-base : to-base], nil
}

// deflater is the rewrite side's reusable state.
type deflater struct {
	fw  *flate.Writer
	buf bytes.Buffer
}

var deflaters = sync.Pool{New: func() any {
	fw, err := flate.NewWriter(io.Discard, compressLevel)
	if err != nil {
		panic(err) // compressLevel is a valid constant
	}
	return &deflater{fw: fw}
}}

// deflateBody compresses a raw block body into a chunk-framed payload
// (recordMagicC):
//
//	u32 rawLen | u16 nChunks | nChunks × (u32 rawEnd, u32 storedEnd) | streams
//
// The body is cut into ceil(len/chunkTarget) chunks of near-equal size,
// each cut moved up to the next transaction boundary in txOffs, and
// every chunk is its own DEFLATE stream. ok is false when the payload
// is not smaller than the body (or the body is too large to frame);
// such blocks stay plain in the rewritten segment. The payload aliases
// the deflater's buffer.
func (d *deflater) deflateBody(body []byte, txOffs []uint32) (payload []byte, ok bool) {
	if len(body) == 0 || int64(len(body)) > maxRawBodyLen {
		return nil, false
	}
	n := (len(body) + chunkTarget - 1) / chunkTarget
	per := uint32((len(body) + n - 1) / n)
	var cuts []uint32
	for start, i := uint32(0), 0; i < len(txOffs)-1; i++ {
		if txOffs[i] >= start+per {
			cuts = append(cuts, txOffs[i])
			start = txOffs[i]
		}
	}
	cuts = append(cuts, uint32(len(body)))
	if len(cuts) > math.MaxUint16 {
		return nil, false
	}

	hdr := make([]byte, chunkedFixed+len(cuts)*chunkEntry)
	binary.BigEndian.PutUint32(hdr, uint32(len(body)))
	binary.BigEndian.PutUint16(hdr[4:], uint16(len(cuts)))
	for i, end := range cuts {
		binary.BigEndian.PutUint32(hdr[chunkedFixed+i*chunkEntry:], end)
	}
	d.buf.Reset()
	d.buf.Write(hdr)
	start := uint32(0)
	for i, end := range cuts {
		d.fw.Reset(&d.buf)
		if _, err := d.fw.Write(body[start:end]); err != nil {
			return nil, false
		}
		if err := d.fw.Close(); err != nil {
			return nil, false
		}
		if d.buf.Len() >= len(body) {
			return nil, false
		}
		binary.BigEndian.PutUint32(d.buf.Bytes()[chunkedFixed+i*chunkEntry+4:], uint32(d.buf.Len()))
		start = end
	}
	return d.buf.Bytes(), true
}

// segRangeLocked returns the half-open index range [lo, hi) of blocks
// stored in segment seg. Blocks are appended in segment order, so the
// range is found by binary search. Caller holds s.mu.
func (s *Store) segRangeLocked(seg uint32) (lo, hi int) {
	lo = sort.Search(len(s.locs), func(i int) bool { return s.locs[i].Segment >= seg })
	hi = sort.Search(len(s.locs), func(i int) bool { return s.locs[i].Segment > seg })
	return lo, hi
}

// CompressTargets returns the sealed segments a recompression sweep
// should rewrite: at least keep segments behind the active tail (so
// recently sealed, still-hot segments are left alone) and not already
// processed by an earlier sweep.
func (s *Store) CompressTargets(keep int) []uint32 {
	if keep < 1 {
		keep = 1
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []uint32
	for n := uint32(0); uint64(n)+uint64(keep) <= uint64(s.curSeg); n++ {
		if !s.compacted[n] {
			out = append(out, n)
		}
	}
	return out
}

// DiskBytes returns the total on-disk size of all segment files — the
// quantity compression exists to shrink.
func (s *Store) DiskBytes() (int64, error) {
	s.mu.RLock()
	cur := s.curSeg
	s.mu.RUnlock()
	var total int64
	for n := uint32(0); n <= cur; n++ {
		fi, err := s.fs.Stat(s.segPath(n))
		if err != nil {
			return 0, fmt.Errorf("storage: %w", err)
		}
		total += fi.Size()
	}
	return total, nil
}

// rewriteResult carries the new on-disk coordinates of a rewritten
// segment's records, in block order.
type rewriteResult struct {
	offs   []int64
	stored []int64
	comp   []bool
}

// CompressSegment rewrites one sealed segment with per-record
// compression: every block body that deflates smaller is stored as a
// compressed record, the rest stay plain, so mixed segments read
// correctly record by record. The rewrite streams into a temporary
// file (tmp + sync + rename), and the rename is swapped in atomically
// with the in-memory offsets and the segment's generation bump —
// concurrent readers either resolve against the old file (their handles
// pin its inode) or retry and see the new one. Raw body lengths, chain
// linkage and checkpoint divergence semantics are unchanged: only the
// representation on disk moves.
func (s *Store) CompressSegment(seg uint32) error {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()

	s.mu.RLock()
	if seg >= s.curSeg {
		s.mu.RUnlock()
		return fmt.Errorf("storage: segment %06d is not sealed", seg)
	}
	if s.compacted[seg] {
		s.mu.RUnlock()
		return nil
	}
	lo, hi := s.segRangeLocked(seg)
	gen := s.gens[seg]
	oldStored := append([]int64(nil), s.stored[lo:hi]...)
	oldComp := append([]bool(nil), s.comp[lo:hi]...)
	s.mu.RUnlock()

	// Stream the rewrite. compactMu pins the segment's generation:
	// recompression is the only mutator of sealed segments and it is
	// serialised here, so the bodies read below are the bodies swapped
	// out below.
	tmp := s.segPath(seg) + ".tmp"
	//sebdb:ignore-lockio reason: compactMu exists to serialise whole-segment rewrites and is held across the tmp write by design; no read or commit path ever takes it
	res, err := s.writeRewrite(tmp, uint64(lo), uint64(hi))
	if err != nil {
		//sebdb:ignore-lockio reason: best-effort cleanup of the rewrite temporary under the rewrite serialiser; no latency-critical path takes compactMu
		s.fs.Remove(tmp) //sebdb:ignore-err recovery deletes leftover temporaries if this fails
		return err
	}

	// The swap: rename and metadata update are one atomic step under
	// the store lock, so no reader can pair the new bytes with the old
	// offsets or the old bytes with the new ones.
	s.mu.Lock()
	//sebdb:ignore-lockio reason: the rename IS the swap — it must be atomic with the offset and generation update, and it is a single same-directory rename, not open-ended I/O
	if err := s.fs.Rename(tmp, s.segPath(seg)); err != nil {
		s.mu.Unlock()
		//sebdb:ignore-lockio reason: best-effort cleanup of the rewrite temporary under the rewrite serialiser; no latency-critical path takes compactMu
		s.fs.Remove(tmp) //sebdb:ignore-err recovery deletes leftover temporaries if this fails
		return fmt.Errorf("storage: swapping rewritten segment: %w", err)
	}
	for i := lo; i < hi; i++ {
		s.locs[i].Offset = res.offs[i-lo]
		s.stored[i] = res.stored[i-lo]
		s.comp[i] = res.comp[i-lo]
	}
	s.gens[seg] = gen + 1
	s.compacted[seg] = true
	s.mu.Unlock()
	s.handles.drop(seg)

	var oldBytes, newBytes, oldZ, newZ int64
	for i := range oldStored {
		oldBytes += headerSize + oldStored[i] + trailerSize
		newBytes += headerSize + res.stored[i] + trailerSize
		if oldComp[i] {
			oldZ += oldStored[i]
		}
		if res.comp[i] {
			newZ += res.stored[i]
		}
	}
	mRecompressed.Inc()
	mCompressedBytes.Add(newZ - oldZ)
	if saved := oldBytes - newBytes; saved > 0 {
		mCompressSaved.Add(uint64(saved))
	}
	s.opts.Log.Info("segment recompressed", "segment", s.segPath(seg),
		"blocks", hi-lo, "bytes_before", oldBytes, "bytes_after", newBytes)
	return nil
}

// writeRewrite streams blocks [lo, hi) into a new segment file at tmp,
// compressing each body that deflates smaller, then syncs and closes
// it. The caller renames the file into place.
func (s *Store) writeRewrite(tmp string, lo, hi uint64) (rewriteResult, error) {
	f, err := s.fs.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return rewriteResult{}, fmt.Errorf("storage: rewrite: %w", err)
	}
	n := int(hi - lo)
	res := rewriteResult{
		offs:   make([]int64, 0, n),
		stored: make([]int64, 0, n),
		comp:   make([]bool, 0, n),
	}
	c := inflaters.Get().(*inflater)
	defer inflaters.Put(c)
	d := deflaters.Get().(*deflater)
	defer deflaters.Put(d)
	var off int64
	for h := lo; h < hi; h++ {
		body, ref, err := s.readBody(c, h)
		if err != nil {
			f.Close() //sebdb:ignore-err the read error is what matters; the temporary is deleted by the caller
			return rewriteResult{}, err
		}
		payload, compressed := d.deflateBody(body, ref.txOffs)
		if !compressed {
			payload = body
		}
		rec := encodeRecord(magicFor(compressed), payload)
		if _, err := f.Write(rec); err != nil {
			f.Close() //sebdb:ignore-err the write error is what matters; the temporary is deleted by the caller
			return rewriteResult{}, fmt.Errorf("storage: rewrite: %w", err)
		}
		res.offs = append(res.offs, off)
		res.stored = append(res.stored, int64(len(payload)))
		res.comp = append(res.comp, compressed)
		off += int64(len(rec))
	}
	if err := f.Sync(); err != nil {
		f.Close() //sebdb:ignore-err the sync error is what matters; the temporary is deleted by the caller
		return rewriteResult{}, fmt.Errorf("storage: rewrite sync: %w", err)
	}
	if err := f.Close(); err != nil {
		return rewriteResult{}, fmt.Errorf("storage: rewrite close: %w", err)
	}
	return res, nil
}
