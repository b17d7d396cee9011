package storage

import (
	"container/list"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"sebdb/internal/faultfs"
)

// Read tiers. Every segment read is attributed to the tier that served
// it (sebdb_storage_tier_reads_total{tier=...}).
const (
	// TierPread is the positional-read path over an open descriptor —
	// the active tail segment's only tier, and every segment's fallback.
	TierPread = "pread"
	// TierMmap serves sealed (read-only) segments straight from a
	// read-only memory map: no syscall per block read, and the OS page
	// cache is the only copy of hot data.
	TierMmap = "mmap"
)

// SegmentReader is the narrow backend interface one segment is read
// through. Implementations must support concurrent positional reads;
// Close releases the descriptor or mapping once the last reference is
// gone.
type SegmentReader interface {
	io.ReaderAt
	// Tier names the backend ("pread" or "mmap") for metrics and tests.
	Tier() string
	Close() error
}

// preadReader reads a segment through an open file descriptor — the
// classic page-cache-mediated path, and the only one legal for the
// active tail segment (its size still grows).
type preadReader struct {
	f faultfs.File
}

func (r preadReader) ReadAt(p []byte, off int64) (int, error) { return r.f.ReadAt(p, off) }
func (r preadReader) Tier() string                            { return TierPread }
func (r preadReader) Close() error                            { return r.f.Close() }

// mmapReader serves positional reads from a read-only memory map of a
// sealed segment. The mapping pins the inode, so a recompression
// rewrite renaming a new file over the segment never disturbs reads in
// flight through an old mapping.
type mmapReader struct {
	m    faultfs.Mapping
	data []byte
}

func (r *mmapReader) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 || off > int64(len(r.data)) {
		return 0, fmt.Errorf("storage: mmap read at %d beyond %d mapped bytes", off, len(r.data))
	}
	n := copy(p, r.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (r *mmapReader) Tier() string { return TierMmap }
func (r *mmapReader) Close() error { return r.m.Close() }

// segHandle is one segment's cached reader plus a reference count: the
// handle cache holds one reference while the handle is resident, and
// every in-flight read holds its own. The underlying descriptor or
// mapping closes when the last reference is released, so close-on-evict
// and the recompression swap never yank a file out from under a
// concurrent positional read.
type segHandle struct {
	seg  uint32
	r    SegmentReader
	refs atomic.Int32
}

// release drops one reference, closing the reader when it was the last.
func (h *segHandle) release() {
	if h.refs.Add(-1) == 0 {
		h.r.Close() //sebdb:ignore-err read-only descriptor or mapping; the data's fate was decided at open
	}
}

// handleCache bounds the store's per-segment read handles with a
// close-on-evict LRU: the active tail segment is never evicted, and the
// N hottest sealed segments keep their descriptor (or mapping) warm.
// Before it existed the map grew one descriptor per rolled segment,
// forever.
type handleCache struct {
	mu  sync.Mutex
	cap int
	// open opens a reader for a segment; sealed selects the tier.
	open  func(seg uint32, sealed bool) (SegmentReader, error)
	ll    *list.List // of *segHandle; front = hottest
	elems map[uint32]*list.Element
}

func newHandleCache(cap int, open func(uint32, bool) (SegmentReader, error)) *handleCache {
	if cap < 2 {
		cap = 2 // the active segment plus at least one sealed one
	}
	return &handleCache{
		cap:   cap,
		open:  open,
		ll:    list.New(),
		elems: make(map[uint32]*list.Element),
	}
}

// lock takes the cache mutex, counting the times it had to wait.
func (c *handleCache) lock() {
	if c.mu.TryLock() {
		return
	}
	mHandleContention.Inc()
	c.mu.Lock()
}

// acquire returns a referenced handle for seg, opening (and caching)
// one if necessary; active is the tail segment, read through pread and
// exempt from eviction. The store calls it under its read lock, which
// is what ties the handle to the record the caller looked up (see
// Store.acquire). Callers must release() the handle.
func (c *handleCache) acquire(seg, active uint32) (*segHandle, error) {
	c.lock()
	defer c.mu.Unlock()
	if el, ok := c.elems[seg]; ok {
		h := el.Value.(*segHandle)
		h.refs.Add(1)
		c.ll.MoveToFront(el)
		return h, nil
	}
	r, err := c.open(seg, seg != active)
	if err != nil {
		return nil, err
	}
	h := &segHandle{seg: seg, r: r}
	h.refs.Store(2) // one for the cache, one for the caller
	c.elems[seg] = c.ll.PushFront(h)
	c.evictLocked(active)
	return h, nil
}

// evictLocked drops cold handles until the cache fits, skipping the
// active tail segment and the hottest entry (just inserted).
func (c *handleCache) evictLocked(act uint32) {
	for c.ll.Len() > c.cap {
		el := c.ll.Back()
		for el != nil && (el == c.ll.Front() || el.Value.(*segHandle).seg == act) {
			el = el.Prev()
		}
		if el == nil {
			return
		}
		c.removeLocked(el)
		mHandleEvictions.Inc()
	}
}

// drop invalidates seg's cached handle (the recompression swap path);
// in-flight readers still hold their references.
func (c *handleCache) drop(seg uint32) {
	c.lock()
	defer c.mu.Unlock()
	if el, ok := c.elems[seg]; ok {
		c.removeLocked(el)
	}
}

// removeLocked unlinks one entry and releases the cache's reference.
func (c *handleCache) removeLocked(el *list.Element) {
	h := el.Value.(*segHandle)
	delete(c.elems, h.seg)
	c.ll.Remove(el)
	h.release()
}

// closeAll releases every cached handle (store shutdown). Handles still
// referenced by in-flight reads close when their last reference is
// released.
func (c *handleCache) closeAll() {
	c.lock()
	defer c.mu.Unlock()
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		c.removeLocked(el)
		el = next
	}
}

// Len returns the number of resident handles.
func (c *handleCache) Len() int {
	c.lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
