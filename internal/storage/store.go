// Package storage implements SEBDB's on-chain physical storage (paper
// §IV-A): blocks are appended to segment files on disk (default segment
// size 256 MB, configurable) and are immutable once written. The store
// maintains the chain invariant — each appended block must link to the
// current tip — and can rebuild its in-memory state by scanning the
// segments on open (crash recovery).
//
// Reads go through a tiered backend per segment: the active tail is
// always read with positional reads over a descriptor (pread), while
// sealed segments may be served from a read-only memory map when
// Options.Mmap is set, falling back to pread transparently. Sealed
// segments can also be recompressed in place (CompressSegment): each
// record's body is deflated in ~8 KiB chunks cut on transaction
// boundaries into a rewritten segment file swapped in with
// tmp+sync+rename, so a chain that has gone cold costs less disk and a
// tuple read still inflates only the chunk that holds the tuple.
//
// The store keeps one record per block (where it sits on disk, in what
// form, and the shape of its body) and reads one way: a read finds its
// block's record and takes a reference on that segment's read handle
// under one read lock, then reads without it. A recompression swap
// renames the rewritten file into place, rewrites the records and drops
// the cached handle under the write lock, so a reader always pairs a
// record with the bytes it describes.
package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"sebdb/internal/faultfs"
	"sebdb/internal/obs"
	"sebdb/internal/types"
)

const (
	recordMagic = 0x5EBD_B10C
	// recordMagicZ marked the retired one-stream compressed record (raw
	// length + one DEFLATE stream of the whole body). This version
	// neither writes nor reads it: a segment holding one is refused.
	recordMagicZ = 0x5EBD_B10D
	// recordMagicC marks a chunk-framed compressed record: a chunk table
	// followed by one independent DEFLATE stream per chunk (layout at
	// deflateBody). The CRC trailer covers the stored payload, so torn
	// and corrupt tails are detected without inflating anything.
	recordMagicC = 0x5EBD_B10E
	// DefaultSegmentSize is the paper's default block-file size.
	DefaultSegmentSize = 256 << 20
	// DefaultMaxOpenSegments bounds the per-segment read-handle cache:
	// the active tail plus the hottest sealed segments keep a live
	// descriptor or mapping, everything colder is reopened on demand.
	// A pread handle costs one descriptor, so 64 stays far below the
	// usual 1,024 soft limit while a chain of a few dozen segments read
	// at random no longer closes and reopens one on most reads.
	DefaultMaxOpenSegments = 64
	headerSize             = 8 // magic + length
	trailerSize            = 4 // crc32 of payload
)

// ErrNoBlock is returned when a requested block height does not exist.
var ErrNoBlock = errors.New("storage: no such block")

// ErrNotLinked is returned when an appended block does not extend the
// current tip.
var ErrNotLinked = errors.New("storage: block does not link to tip")

// ErrMetaMismatch is returned by OpenWithMeta when the supplied
// checkpoint metadata does not match the segment files on disk
// (wrong anchor, missing segments, malformed metadata, or a segment
// recompressed after the checkpoint was taken). Callers fall back to a
// full-replay Open: never wrong answers, only slower ones.
var ErrMetaMismatch = errors.New("storage: checkpoint metadata does not match segments")

// Location identifies where a block lives on disk.
type Location struct {
	// Segment is the segment file number.
	Segment uint32
	// Offset is the byte offset of the record header within the segment.
	Offset int64
}

// Options configures a Store.
type Options struct {
	// SegmentSize is the maximum segment file size in bytes before the
	// store rolls to a new file. Zero means DefaultSegmentSize.
	SegmentSize int64
	// Sync makes SyncBatch fsync the appends made since the last one.
	// Consensus already replicates blocks, so the default is false.
	Sync bool
	// Mmap serves sealed segments from read-only memory maps when the
	// filesystem supports it (faultfs.Mapper). The active tail segment
	// is always read with pread; a failed map falls back to pread.
	Mmap bool
	// MaxOpenSegments bounds the number of segments with a live read
	// handle (descriptor or mapping). Zero means
	// DefaultMaxOpenSegments; the active segment is always retained.
	MaxOpenSegments int
	// FS is the filesystem the store operates on. Nil means the real
	// OS filesystem; tests inject faultfs fault models here.
	FS faultfs.FS
	// Log receives structured storage events (segment rolls, torn-tail
	// truncation, recompression). Nil disables them.
	Log *obs.Logger
}

// Store is an append-only block store over a directory of segment files.
type Store struct {
	mu      sync.RWMutex
	dir     string
	opts    Options
	fs      faultfs.FS
	cur     faultfs.File
	curSeg  uint32
	curSize int64
	// dirty records that AppendNoSync wrote records the configured
	// per-append fsync has not yet covered; SyncBatch (or a segment
	// roll) clears it. Only meaningful when opts.Sync is set.
	dirty bool
	// recs[i] is block i's record. Only recompression rewrites an entry
	// (its node-local fields), under the write lock.
	recs []record
	// headers[i] is block i's header and txBase[i] its tid cursor: the
	// first tid block i holds, or would hold were it not empty (an empty
	// block's header says FirstTid 0, so FirstTid alone is not
	// monotone). Both slices are append-only — no element below len is
	// ever rewritten — which is what lets Prefix hand them out without a
	// copy. pushHeader is their one writer.
	headers []types.BlockHeader
	txBase  []uint64
	// compacted marks segments a recompression pass has already
	// processed, so mixed segments (some records incompressible) are
	// not rewritten again every sweep.
	compacted map[uint32]bool
	// compactMu serialises recompression rewrites. It is ordered before
	// s.mu: a rewrite reads its source records like any reader (nothing
	// else rewrites a sealed segment while compactMu is held) and takes
	// the write lock only for the final swap.
	compactMu sync.Mutex

	// handles is the bounded per-segment read-handle cache. Its mutex is
	// ordered after s.mu: reads acquire handles under the read lock, the
	// recompression swap drops one under the write lock.
	handles *handleCache
}

// record is one block's entry in the store's table: where its record
// sits on disk and in what form, plus the chain-derived shape of its
// body a compressed record is held to.
type record struct {
	loc Location
	// stored is the record's payload length on disk right now: rawLen
	// for a plain record, smaller for a compressed one. Node-local, like
	// loc and comp, and changed by recompression.
	stored int64
	// rawLen is the raw (uncompressed) encoded body length, exactly as
	// the append wrote it. It is chain-derived, so recompression never
	// changes it.
	rawLen int64
	// txOffs holds the byte offset of each transaction within the body
	// plus a final sentinel (the body length). They make ReadTx a single
	// tuple-sized random read — the p*(t_S+t_T) cost the paper's
	// Equation 3 models for the layered index.
	txOffs []uint32
	// comp records whether the record is compressed on disk.
	comp bool
}

// Open opens (creating if necessary) a block store in dir and recovers
// its state by scanning existing segments.
func Open(dir string, opts Options) (*Store, error) { return open(dir, opts, nil) }

// open opens the store in dir and recovers it, seeded from checkpoint
// metadata when m is non-nil (see recover).
func open(dir string, opts Options, m *Meta) (*Store, error) {
	if opts.SegmentSize <= 0 {
		opts.SegmentSize = DefaultSegmentSize
	}
	if opts.MaxOpenSegments <= 0 {
		opts.MaxOpenSegments = DefaultMaxOpenSegments
	}
	if opts.FS == nil {
		opts.FS = faultfs.OS()
	}
	if err := opts.FS.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	s := &Store{
		dir:       dir,
		opts:      opts,
		fs:        opts.FS,
		compacted: make(map[uint32]bool),
	}
	s.handles = newHandleCache(opts.MaxOpenSegments, s.openSegment)
	if err := s.recover(m); err != nil {
		s.Close() //sebdb:ignore-err releasing partially opened handles on the error path
		return nil, err
	}
	return s, nil
}

func (s *Store) segPath(n uint32) string {
	return filepath.Join(s.dir, fmt.Sprintf("blocks-%06d.seg", n))
}

// openSegment opens a read backend for one segment: a memory map for
// sealed segments when Options.Mmap is set and the filesystem can,
// positional reads otherwise. Mapping failures (platform without mmap,
// injected faults, exotic filesystems) fall back to pread — the slower
// tier is always correct.
func (s *Store) openSegment(seg uint32, sealed bool) (SegmentReader, error) {
	path := s.segPath(seg)
	if sealed && s.opts.Mmap {
		if mp, ok := s.fs.(faultfs.Mapper); ok {
			m, err := mp.Mmap(path)
			if err == nil {
				return &mmapReader{m: m, data: m.Bytes()}, nil
			}
			if errors.Is(err, faultfs.ErrCrashed) {
				return nil, fmt.Errorf("storage: %w", err)
			}
			mMmapFallbacks.Inc()
			s.opts.Log.Warn("mmap failed; falling back to pread", "segment", path, "error", err.Error())
		} else {
			mMmapFallbacks.Inc()
		}
	}
	f, err := s.fs.Open(path)
	if err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	return preadReader{f: f}, nil
}

// listSegs enumerates the store's segment file numbers in order and
// verifies they are contiguous from zero. Names must match the segment
// pattern exactly: a leftover rewrite temporary ("blocks-000003.seg.tmp")
// must not be mistaken for a segment.
func (s *Store) listSegs() ([]uint32, error) {
	entries, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	var segs []uint32
	for _, e := range entries {
		var n uint32
		if _, err := fmt.Sscanf(e.Name(), "blocks-%06d.seg", &n); err == nil &&
			e.Name() == fmt.Sprintf("blocks-%06d.seg", n) {
			segs = append(segs, n)
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	for i, n := range segs {
		if uint32(i) != n {
			return nil, fmt.Errorf("storage: segment files not contiguous: missing %06d", i)
		}
	}
	return segs, nil
}

// removeLeftoverTmp deletes rewrite temporaries from a crashed
// recompression. The original segment is still intact (the rename never
// happened), so the temporary is garbage.
func (s *Store) removeLeftoverTmp() error {
	entries, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".seg.tmp") {
			path := filepath.Join(s.dir, e.Name())
			if err := s.fs.Remove(path); err != nil {
				return fmt.Errorf("storage: removing leftover rewrite temporary: %w", err)
			}
			s.opts.Log.Warn("removed leftover rewrite temporary", "path", path)
		}
	}
	return nil
}

// repairTail truncates segment n to valid when bytes beyond it exist —
// a torn final record. A clean tail is left untouched so opening an
// intact store on a read-only filesystem succeeds; a failed truncation
// is an error (the tail would stay corrupt), reported with the segment
// path.
func (s *Store) repairTail(n uint32, valid int64) error {
	path := s.segPath(n)
	fi, err := s.fs.Stat(path)
	if err != nil {
		return fmt.Errorf("storage: stat %s: %w", path, err)
	}
	if fi.Size() <= valid {
		return nil
	}
	if err := s.fs.Truncate(path, valid); err != nil {
		return fmt.Errorf("storage: truncating torn tail of %s: %w", path, err)
	}
	s.opts.Log.Warn("torn tail truncated",
		"segment", path, "dropped_bytes", fi.Size()-valid, "valid_bytes", valid)
	return nil
}

// recover rebuilds the in-memory state. Checkpoint metadata m, when
// given, is verified against the segments and seeds the blocks it
// covers (seed); one scan then validates every record after them — the
// whole chain when m is nil — and truncates a torn final record. With
// metadata, a failure to list or scan the segments is ErrMetaMismatch:
// the caller falls back to a full scan, which reports it for real.
func (s *Store) recover(m *Meta) error {
	fail := func(err error) error {
		if m != nil {
			return fmt.Errorf("%w: %v", ErrMetaMismatch, err)
		}
		return err
	}
	if err := s.removeLeftoverTmp(); err != nil {
		return err
	}
	segs, err := s.listSegs()
	if err != nil {
		return fail(err)
	}
	var from Location // the first byte m does not cover
	if m != nil {
		if from, err = s.seed(m, len(segs)); err != nil {
			return err
		}
	}
	for _, n := range segs[from.Segment:] {
		base := int64(0)
		if n == from.Segment {
			base = from.Offset
		}
		valid, err := s.scanSegment(n, base)
		if err != nil {
			return fail(err)
		}
		// A torn write can only be at the tail of the last segment.
		if int(n) == len(segs)-1 {
			if err := s.repairTail(n, valid); err != nil {
				return err
			}
			s.curSeg, s.curSize = n, valid
		}
	}
	f, err := s.fs.OpenFile(s.segPath(s.curSeg), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	s.cur = f
	return nil
}

// scanSegment reads segment seg's records from byte offset base to the
// end of the file, appending each valid one to the in-memory state, and
// returns the offset of the first invalid byte (the valid length).
// Plain and compressed records may be mixed within one segment.
func (s *Store) scanSegment(seg uint32, base int64) (int64, error) {
	path := s.segPath(seg)
	fi, err := s.fs.Stat(path)
	if err != nil {
		return 0, fmt.Errorf("storage: %w", err)
	}
	f, err := s.fs.Open(path)
	if err != nil {
		return 0, fmt.Errorf("storage: %w", err)
	}
	defer f.Close() //sebdb:ignore-err read-only handle
	r := io.NewSectionReader(f, base, fi.Size()-base)
	c := inflaters.Get().(*inflater)
	defer inflaters.Put(c)
	off := base
	for {
		rec, h, ok, err := s.nextRecord(c, r, seg, off, fi.Size())
		if err != nil || !ok {
			return off, err
		}
		if err := s.checkLinkage(&h); err != nil {
			return 0, err // mid-chain corruption is not recoverable silently
		}
		s.recs = append(s.recs, rec)
		s.pushHeader(&h)
		if rec.comp {
			s.compacted[seg] = true
		}
		off += headerSize + rec.stored + trailerSize
	}
}

// nextRecord reads the record at byte off of segment seg, a file of
// size bytes, from r and checks its framing: magic, a length the file
// can hold (found before anything is sized from that field), CRC, and
// for a compressed record its chunk table, its streams and its chunk
// cuts against the transaction offsets of the body they inflate to.
// ok is false for bytes that are not a whole valid record — a torn or
// corrupt tail. A record in the retired recordMagicZ format is an
// error instead: on the last segment, taking it for a torn tail would
// truncate committed blocks.
func (s *Store) nextRecord(c *inflater, r io.Reader, seg uint32, off, size int64) (rec record, h types.BlockHeader, ok bool, err error) {
	c.in = sized(c.in, headerSize)
	if _, err := io.ReadFull(r, c.in); err != nil {
		return rec, h, false, nil // clean EOF or torn header
	}
	magic := binary.BigEndian.Uint32(c.in)
	if magic == recordMagicZ {
		return rec, h, false, fmt.Errorf("storage: %s: record at offset %d has the retired one-stream compressed format (magic %#x), which this version does not read",
			s.segPath(seg), off, magic)
	}
	rec.comp = magic == recordMagicC
	if magic != recordMagic && !rec.comp {
		return rec, h, false, nil
	}
	n := binary.BigEndian.Uint32(c.in[4:])
	if int64(n)+trailerSize > size-off-headerSize {
		return rec, h, false, nil // torn payload
	}
	c.in = sized(c.in, int(n)+trailerSize)
	if _, err := io.ReadFull(r, c.in); err != nil {
		return rec, h, false, nil // torn payload
	}
	body := c.in[:n]
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(c.in[n:]) {
		return rec, h, false, nil // corrupt tail
	}
	// A compressed record whose CRC passed but whose framing or streams
	// are malformed is an invalid tail too.
	var z chunked
	if rec.comp {
		var perr error
		if z, perr = parseChunked(body); perr != nil {
			return rec, h, false, nil
		}
		if body, perr = c.inflate(&z, 0, z.rawLen); perr != nil {
			return rec, h, false, nil
		}
	}
	h, offs, derr := decodeBlockOffsets(body)
	if derr != nil || (rec.comp && z.check(int64(len(body)), offs) != nil) {
		return rec, h, false, nil
	}
	rec.loc = Location{Segment: seg, Offset: off}
	rec.stored, rec.rawLen, rec.txOffs = int64(n), int64(len(body)), offs
	return rec, h, true, nil
}

// encodeRecord frames one payload as a segment record: magic and
// length header, payload, CRC trailer.
func encodeRecord(magic uint32, payload []byte) []byte {
	if int64(len(payload)) > math.MaxUint32 {
		// Unreachable through the public surface: appendLocked rejects
		// oversize bodies before framing, and rewrite payloads derive
		// from records that already fit the prefix.
		panic(fmt.Sprintf("storage: record payload of %d bytes exceeds the length prefix", len(payload)))
	}
	rec := make([]byte, headerSize+len(payload)+trailerSize)
	binary.BigEndian.PutUint32(rec, magic)
	binary.BigEndian.PutUint32(rec[4:], uint32(len(payload)))
	copy(rec[headerSize:], payload)
	binary.BigEndian.PutUint32(rec[headerSize+len(payload):], crc32.ChecksumIEEE(payload))
	return rec
}

func (s *Store) checkLinkage(h *types.BlockHeader) error {
	if len(s.headers) == 0 {
		if h.Height != 0 {
			return fmt.Errorf("%w: first block has height %d", ErrNotLinked, h.Height)
		}
		return nil
	}
	tip := &s.headers[len(s.headers)-1]
	if h.Height != tip.Height+1 {
		return fmt.Errorf("%w: height %d after %d", ErrNotLinked, h.Height, tip.Height)
	}
	if h.PrevHash != tip.Hash() {
		return fmt.Errorf("%w: prev hash mismatch at height %d", ErrNotLinked, h.Height)
	}
	// Timestamps strictly increase, so the newest block at or before a
	// time is a bisection over the headers (blockindex).
	if h.Timestamp <= tip.Timestamp {
		return fmt.Errorf("%w: timestamp %d at height %d does not follow the tip's %d",
			ErrNotLinked, h.Timestamp, h.Height, tip.Timestamp)
	}
	return nil
}

// pushHeader records an appended block's header and its tid cursor: a
// non-empty block's FirstTid; for an empty block, its predecessor's
// cursor plus that block's transaction count, or 1 at genesis.
func (s *Store) pushHeader(h *types.BlockHeader) {
	cursor := h.FirstTid
	if h.TxCount == 0 {
		cursor = 1
		if n := len(s.headers); n > 0 {
			cursor = s.txBase[n-1] + uint64(s.headers[n-1].TxCount)
		}
	}
	s.headers = append(s.headers, *h)
	s.txBase = append(s.txBase, cursor)
}

// AppendNoSync appends a block the caller has already validated,
// deferring the segment fsync to a later SyncBatch, and returns its
// location. It is the store's one append: block validation
// (types.Block.ValidateWorkers) runs in the engine's lock-free prepare
// stage, and a batch of blocks committed together is made durable by
// one SyncBatch instead of one fsync per block. This is safe because
// recovery truncates a torn or unsynced suffix back to the last valid
// record — a crash between appends and the batch sync can only shorten
// the chain, never leave a gap. Chain linkage is still checked here,
// under the store lock.
func (s *Store) AppendNoSync(b *types.Block) (Location, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	//sebdb:ignore-lockio reason: buffered append; appendLocked reaches Sync only on a segment roll, which must be atomic with respect to the segment-file lock
	return s.appendLocked(b)
}

// SyncBatch fsyncs the current segment when unsynced appends are
// pending and Options.Sync is set; otherwise it is a no-op. Appends
// that cross a segment roll are covered too: rollSegment syncs the old
// segment before closing it.
func (s *Store) SyncBatch() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.dirty {
		return nil
	}
	//sebdb:ignore-lockio reason: the group fsync must run under the segment-file lock so no append can roll the segment out from under it
	if err := s.cur.Sync(); err != nil {
		return fmt.Errorf("storage: sync: %w", err)
	}
	s.dirty = false
	return nil
}

func (s *Store) appendLocked(b *types.Block) (Location, error) {
	if err := s.checkLinkage(&b.Header); err != nil {
		return Location{}, err
	}

	body := b.EncodeBytes()
	if int64(len(body)) > math.MaxUint32 {
		return Location{}, fmt.Errorf("storage: block of %d bytes exceeds the record length prefix", len(body))
	}
	// The offsets come from walking the bytes just encoded, before any of
	// them reach the segment, so a body the store could not index later
	// is refused with the store untouched.
	_, offs, err := decodeBlockOffsets(body)
	if err != nil {
		return Location{}, fmt.Errorf("storage: offsets: %w", err)
	}
	rec := encodeRecord(recordMagic, body)

	if s.curSize > 0 && s.curSize+int64(len(rec)) > s.opts.SegmentSize {
		if err := s.rollSegment(); err != nil {
			return Location{}, err
		}
	}
	loc := Location{Segment: s.curSeg, Offset: s.curSize}
	if _, err := s.cur.Write(rec); err != nil {
		return Location{}, fmt.Errorf("storage: append: %w", err)
	}
	if s.opts.Sync {
		s.dirty = true
	}
	s.curSize += int64(len(rec))
	mAppends.Inc()
	mAppendWr.Add(uint64(len(rec)))
	s.recs = append(s.recs, record{loc: loc, stored: int64(len(body)), rawLen: int64(len(body)), txOffs: offs})
	s.pushHeader(&b.Header)
	return loc, nil
}

func (s *Store) rollSegment() error {
	// A batch of unsynced appends may span the roll: the old segment must
	// be durable before it is closed, or SyncBatch on the new one would
	// leave a hole in the middle of the batch.
	if s.dirty {
		if err := s.cur.Sync(); err != nil {
			return fmt.Errorf("storage: sync: %w", err)
		}
		s.dirty = false
	}
	if err := s.cur.Close(); err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	s.curSeg++
	s.curSize = 0
	f, err := s.fs.OpenFile(s.segPath(s.curSeg), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("storage: %w", err)
	}
	s.cur = f
	s.opts.Log.Info("segment rolled", "segment", s.segPath(s.curSeg), "blocks", len(s.recs))
	return nil
}

// Count returns the number of blocks in the chain.
func (s *Store) Count() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.recs)
}

// Tip returns the header of the newest block; ok is false for an empty
// chain.
func (s *Store) Tip() (types.BlockHeader, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(s.headers) == 0 {
		return types.BlockHeader{}, false
	}
	return s.headers[len(s.headers)-1], true
}

// Header returns the header of the block at the given height.
func (s *Store) Header(height uint64) (types.BlockHeader, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if height >= uint64(len(s.headers)) {
		return types.BlockHeader{}, ErrNoBlock
	}
	return s.headers[height], nil
}

// Headers returns a copy of all block headers in height order.
func (s *Store) Headers() []types.BlockHeader {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]types.BlockHeader, len(s.headers))
	copy(out, s.headers)
	return out
}

// Prefix returns the headers and tid cursors of every block appended so
// far, without copying them: both slices are append-only (see Store),
// so the prefix stays valid and unchanged while the chain grows. Their
// capacity is cut to their length, so appending to them cannot write
// into the store's arrays.
func (s *Store) Prefix() ([]types.BlockHeader, []uint64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := len(s.headers)
	return s.headers[:n:n], s.txBase[:n:n]
}

// acquire looks up block height's record and takes a reference on its
// segment's read handle under one read lock. CompressSegment swaps a
// segment's file, records and cached handle under the write lock, so
// the pair is consistent: the old record with a handle on the old inode
// (the rename does not disturb an open descriptor or mapping), or the
// new record with the new file. The caller releases the handle.
func (s *Store) acquire(height uint64) (record, *segHandle, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if height >= uint64(len(s.recs)) {
		return record{}, nil, ErrNoBlock
	}
	rec := s.recs[height]
	// The trade: a handle-cache miss opens the segment here, under the
	// read lock, so an append arriving meanwhile waits for the open.
	// Misses are rare — the first touch of a segment, an eviction past
	// MaxOpenSegments, the first read after a recompression swap — and
	// opening under the lock is what keeps the record and the bytes it
	// points at one snapshot.
	h, err := s.handles.acquire(rec.loc.Segment, s.curSeg)
	return rec, h, err
}

// read returns raw bytes [from, to) of the record's body; it is the
// store's one segment read, and counts the bytes it reads under kind.
// Part of a plain record is read alone, with one positional read of
// exactly those bytes. Otherwise it reads the stored record with ONE
// contiguous positional read — header and payload together, sized from
// the in-memory stored length — validates the header against
// expectations, and for a compressed record holds the chunk table to
// the block's known shape before inflating the chunks that cover the
// range. The result aliases c's buffers.
func (c *inflater) read(r SegmentReader, rec *record, from, to uint32, kind readKind) ([]byte, error) {
	if !rec.comp && (from != 0 || int64(to) != rec.rawLen) {
		c.in = sized(c.in, int(to-from))
		if _, err := r.ReadAt(c.in, rec.loc.Offset+headerSize+int64(from)); err != nil {
			return nil, err
		}
		kind.count(len(c.in), r.Tier())
		return c.in, nil
	}
	c.in = sized(c.in, int(headerSize+rec.stored))
	if _, err := r.ReadAt(c.in, rec.loc.Offset); err != nil {
		return nil, err
	}
	kind.count(len(c.in), r.Tier())
	if magic := binary.BigEndian.Uint32(c.in); magic != magicFor(rec.comp) {
		return nil, fmt.Errorf("bad magic %#x", magic)
	}
	if n := binary.BigEndian.Uint32(c.in[4:]); int64(n) != rec.stored {
		return nil, fmt.Errorf("record length %d != expected %d", n, rec.stored)
	}
	payload := c.in[headerSize:]
	if !rec.comp {
		return payload[from:to], nil
	}
	z, err := openChunked(payload, rec.rawLen, rec.txOffs)
	if err != nil {
		return nil, err
	}
	return c.inflate(&z, from, to)
}

// readAt reads block height's whole body (pos < 0) or the encoding of
// its transaction at pos, aliasing c's buffers, and returns it with the
// block's record.
func (s *Store) readAt(c *inflater, height uint64, pos int) ([]byte, record, error) {
	rec, h, err := s.acquire(height)
	if err != nil {
		return nil, rec, err
	}
	defer h.release()
	from, to, kind := uint32(0), uint32(rec.rawLen), blockRead
	if pos >= 0 {
		if pos+1 >= len(rec.txOffs) {
			return nil, rec, fmt.Errorf("storage: block %d has no tx at %d", height, pos)
		}
		from, to, kind = rec.txOffs[pos], rec.txOffs[pos+1], txRead
	}
	buf, err := c.read(h.r, &rec, from, to, kind)
	if err != nil {
		return nil, rec, fmt.Errorf("storage: %s: record at offset %d: %w", s.segPath(rec.loc.Segment), rec.loc.Offset, err)
	}
	return buf, rec, nil
}

// Body hands use the raw (inflated) encoded body of the block at height
// together with its transaction offsets — transaction i is
// body[txOffs[i]:txOffs[i+1]] — so a caller that wants encoded
// transactions slices them instead of decoding and re-encoding the
// block. body aliases a pooled buffer and is valid only until use
// returns.
func (s *Store) Body(height uint64, use func(body []byte, txOffs []uint32) error) error {
	c := inflaters.Get().(*inflater)
	defer inflaters.Put(c)
	body, rec, err := s.readAt(c, height, -1)
	if err != nil {
		return err
	}
	return use(body, rec.txOffs)
}

// Block reads the full block at the given height from disk.
func (s *Store) Block(height uint64) (b *types.Block, err error) {
	err = s.Body(height, func(body []byte, _ []uint32) error {
		b, err = types.DecodeBlock(types.NewDecoder(body))
		return err
	})
	return b, err
}

// Close releases the store's read handles and the append descriptor,
// reporting the first failure. Handles still referenced by in-flight
// reads close when their last reference is released.
func (s *Store) Close() error {
	s.handles.closeAll()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cur == nil {
		return nil
	}
	err := s.cur.Close()
	s.cur = nil
	return err
}

// decodeBlockOffsets decodes a block's header and records each
// transaction's byte offset within body, with a final sentinel at the
// end of the last one. It accepts exactly the bodies types.DecodeBlock
// accepts, but walks the transactions instead of building them: past
// the header, the offsets slice is its only allocation.
func decodeBlockOffsets(body []byte) (types.BlockHeader, []uint32, error) {
	d := types.NewDecoder(body)
	h, err := types.DecodeBlockHeader(d)
	if err != nil {
		return h, nil, err
	}
	n, err := d.Uint32()
	if err != nil {
		return h, nil, err
	}
	if int(n) > d.Remaining() {
		return h, nil, types.ErrCorrupt
	}
	offs := make([]uint32, n+1)
	for i := range offs[:n] {
		offs[i] = uint32(d.Offset())
		if err := types.SkipTransaction(d); err != nil {
			return h, nil, err
		}
	}
	offs[n] = uint32(d.Offset())
	return h, offs, nil
}

// recordAt returns a copy of block height's record.
func (s *Store) recordAt(height uint64) (record, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if height >= uint64(len(s.recs)) {
		return record{}, ErrNoBlock
	}
	return s.recs[height], nil
}

// BodyLen returns the raw encoded length in bytes of the block stored
// at the given height — the exact size the append wrote — so callers can
// account for a block's storage footprint without re-encoding it.
// Recompression does not change it; see StoredLen for the on-disk size.
func (s *Store) BodyLen(height uint64) (int64, error) {
	rec, err := s.recordAt(height)
	return rec.rawLen, err
}

// StoredLen returns the on-disk payload length of the block's record:
// equal to BodyLen for plain records, smaller for compressed ones.
func (s *Store) StoredLen(height uint64) (int64, error) {
	rec, err := s.recordAt(height)
	return rec.stored, err
}

// Compressed reports whether the block's record is compressed on disk.
func (s *Store) Compressed(height uint64) (bool, error) {
	rec, err := s.recordAt(height)
	return rec.comp, err
}

// OpenHandles returns the number of segments with a live read handle.
func (s *Store) OpenHandles() int { return s.handles.Len() }

// ReadTx reads a single transaction with one tuple-sized random read —
// the access pattern of the layered index's second level (Equation 3),
// as opposed to Block's whole-block transfer (Equations 1 and 2). For a
// compressed record the stored payload is read in one contiguous read
// and only the chunk holding the tuple is inflated: chunks are cut on
// transaction boundaries, so a tuple never straddles two.
func (s *Store) ReadTx(height uint64, pos uint32) (*types.Transaction, error) {
	c := inflaters.Get().(*inflater)
	defer inflaters.Put(c)
	buf, _, err := s.readAt(c, height, int(pos))
	if err != nil {
		return nil, err
	}
	return types.DecodeTransaction(types.NewDecoder(buf))
}
