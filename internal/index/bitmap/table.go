package bitmap

import (
	"math/bits"
	"sort"
	"sync"
)

// TableIndex is the paper's table-level bitmap index (§IV-B): one bitmap
// per key, where bit i indicates that block i contains transactions for
// that key. SEBDB maintains one TableIndex keyed by Tname and can
// maintain another keyed by SenID for tracking queries.
type TableIndex struct {
	mu   sync.RWMutex
	bits map[string]*Bitmap
}

// NewTableIndex returns an empty table-level index.
func NewTableIndex() *TableIndex {
	return &TableIndex{bits: make(map[string]*Bitmap)}
}

// Mark records that block blockID contains rows for key. New keys
// (tables) get a fresh bitmap automatically.
func (t *TableIndex) Mark(key string, blockID int) {
	t.MarkAll([]string{key}, blockID)
}

// MarkAll records that block blockID contains rows for every key in
// keys, under one acquisition of the lock.
func (t *TableIndex) MarkAll(keys []string, blockID int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, key := range keys {
		b, ok := t.bits[key]
		if !ok {
			b = New()
			t.bits[key] = b
		}
		b.Set(blockID)
	}
}

// Blocks returns a copy of the bitmap for key cut to blocks [0, n): a
// read view pinned at height n clones only the words below it. The
// result is empty if the key is unknown.
func (t *TableIndex) Blocks(key string, n int) *Bitmap {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := &Bitmap{}
	if b, ok := t.bits[key]; ok {
		nw := (n + 63) >> 6
		out.words = append([]uint64(nil), b.words[:min(len(b.words), nw)]...)
		if r := uint(n) & 63; r != 0 && len(out.words) == nw {
			out.words[nw-1] &= 1<<r - 1
		}
	}
	return out
}

// Contains reports whether block blockID holds rows for key.
func (t *TableIndex) Contains(key string, blockID int) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	b, ok := t.bits[key]
	return ok && b.Get(blockID)
}

// Keys returns all indexed keys in sorted order.
func (t *TableIndex) Keys() []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]string, 0, len(t.bits))
	for k := range t.bits {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Range returns, for every key with a marked block in [lo, hi), those
// block ids in ascending order — the marks one checkpoint window adds.
// Each bitmap is read from the word holding lo, so the cost follows the
// window, not the chain.
func (t *TableIndex) Range(lo, hi int) map[string][]uint32 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make(map[string][]uint32)
	for k, b := range t.bits {
		for wi := lo >> 6; wi < len(b.words) && wi<<6 < hi; wi++ {
			for w := b.words[wi]; w != 0; w &= w - 1 {
				if i := wi<<6 + bits.TrailingZeros64(w); i >= lo && i < hi {
					out[k] = append(out[k], uint32(i))
				}
			}
		}
	}
	return out
}
