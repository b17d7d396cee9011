// Package bitmap provides the dense bitmaps of the layered index's first
// level (paper §IV-B) — among them the table-level index, which is the
// first level of the built-in Tname and SenID layered indexes: one bit
// per block, set when the block contains rows relevant to the bitmap's
// key (a table name, a SenID, or a histogram bucket).
package bitmap

import (
	"math/bits"
)

// Bitmap is a growable dense bitset indexed from zero.
type Bitmap struct {
	words []uint64
}

// New returns an empty bitmap.
func New() *Bitmap { return &Bitmap{} }

// Upto returns a bitmap with bits [0, n) set.
func Upto(n int) *Bitmap { return Span(0, n) }

// Span returns a bitmap with bits [lo, hi) set, empty when lo >= hi;
// lo must not be negative. It fills whole words instead of looping per
// bit.
func Span(lo, hi int) *Bitmap {
	b := &Bitmap{}
	if lo >= hi {
		return b
	}
	b.words = make([]uint64, (hi+63)>>6)
	for i := lo >> 6; i < len(b.words); i++ {
		b.words[i] = ^uint64(0)
	}
	b.words[lo>>6] &^= 1<<(uint(lo)&63) - 1
	if r := uint(hi) & 63; r != 0 {
		b.words[len(b.words)-1] &= 1<<r - 1
	}
	return b
}

// Set sets bit i, growing the bitmap as needed.
func (b *Bitmap) Set(i int) {
	w := i >> 6
	for w >= len(b.words) {
		b.words = append(b.words, 0)
	}
	b.words[w] |= 1 << (uint(i) & 63)
}

// Get reports whether bit i is set.
func (b *Bitmap) Get(i int) bool {
	w := i >> 6
	if i < 0 || w >= len(b.words) {
		return false
	}
	return b.words[w]&(1<<(uint(i)&63)) != 0
}

// Count returns the number of set bits.
func (b *Bitmap) Count() int {
	n := 0
	for _, w := range b.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Clone returns an independent copy.
func (b *Bitmap) Clone() *Bitmap {
	out := &Bitmap{words: make([]uint64, len(b.words))}
	copy(out.words, b.words)
	return out
}

// And intersects b with o in place and returns b.
func (b *Bitmap) And(o *Bitmap) *Bitmap {
	n := len(b.words)
	if len(o.words) < n {
		n = len(o.words)
	}
	for i := 0; i < n; i++ {
		b.words[i] &= o.words[i]
	}
	for i := n; i < len(b.words); i++ {
		b.words[i] = 0
	}
	return b
}

// Or unions o into b in place and returns b.
func (b *Bitmap) Or(o *Bitmap) *Bitmap {
	for len(b.words) < len(o.words) {
		b.words = append(b.words, 0)
	}
	for i, w := range o.words {
		b.words[i] |= w
	}
	return b
}

// SetRange sets bits [lo, hi] inclusive.
func (b *Bitmap) SetRange(lo, hi int) {
	for i := lo; i <= hi; i++ {
		b.Set(i)
	}
}

// ForEach calls fn for every set bit in ascending order; returning
// false stops the iteration.
func (b *Bitmap) ForEach(fn func(i int) bool) {
	for wi, w := range b.words {
		for w != 0 {
			bit := bits.TrailingZeros64(w)
			if !fn(wi<<6 + bit) {
				return
			}
			w &= w - 1
		}
	}
}

// Min returns the lowest set bit; ok is false when no bit is set.
func (b *Bitmap) Min() (i int, ok bool) {
	for wi, w := range b.words {
		if w != 0 {
			return wi<<6 + bits.TrailingZeros64(w), true
		}
	}
	return 0, false
}

// Max returns the highest set bit; ok is false when no bit is set.
func (b *Bitmap) Max() (i int, ok bool) {
	for wi := len(b.words) - 1; wi >= 0; wi-- {
		if w := b.words[wi]; w != 0 {
			return wi<<6 + 63 - bits.LeadingZeros64(w), true
		}
	}
	return 0, false
}

// Slice returns the positions of all set bits in ascending order.
func (b *Bitmap) Slice() []int {
	out := make([]int, 0, b.Count())
	b.ForEach(func(i int) bool {
		out = append(out, i)
		return true
	})
	return out
}

// FromSlice builds a bitmap from bit positions.
func FromSlice(is []int) *Bitmap {
	b := New()
	for _, i := range is {
		b.Set(i)
	}
	return b
}

// Intersects reports whether b and o share any set bit, without
// materialising the intersection.
func (b *Bitmap) Intersects(o *Bitmap) bool {
	n := len(b.words)
	if len(o.words) < n {
		n = len(o.words)
	}
	for i := 0; i < n; i++ {
		if b.words[i]&o.words[i] != 0 {
			return true
		}
	}
	return false
}
