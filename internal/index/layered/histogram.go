// Package layered implements SEBDB's layered index (paper §IV-B,
// Fig. 4): the first level describes, per block, which attribute-value
// ranges (histogram buckets for continuous attributes, distinct values
// for discrete ones) occur in that block; the second level is a per-
// block sorted run on the attribute, built when the block is chained.
// The structure appends without rebalancing, filters empty queries at
// the first level, and composes with the block-level index for
// time-window queries.
package layered

import (
	"math"
	"sort"
)

// Histogram is the equal-depth histogram that defines bucket boundaries
// for a continuous attribute. Bucket i covers (bound[i-1], bound[i]],
// with the first and last buckets open-ended.
type Histogram struct {
	// bounds are the p-1 inner boundaries of p buckets, ascending.
	bounds []float64
}

// NewEqualDepth builds a histogram with the given depth (bucket count)
// from a sample of historical attribute values (§IV-B: "created by
// sampling historical transactions during index creation"). A depth
// below 1 or an empty sample yields a single catch-all bucket.
func NewEqualDepth(sample []float64, depth int) *Histogram {
	if depth < 1 {
		depth = 1
	}
	if len(sample) == 0 || depth == 1 {
		return &Histogram{}
	}
	s := make([]float64, len(sample))
	copy(s, sample)
	sort.Float64s(s)
	bounds := make([]float64, 0, depth-1)
	for i := 1; i < depth; i++ {
		q := s[i*len(s)/depth]
		// Skip duplicate boundaries caused by heavy hitters; buckets must
		// be strictly increasing.
		if len(bounds) == 0 || q > bounds[len(bounds)-1] {
			bounds = append(bounds, q)
		}
	}
	return &Histogram{bounds: bounds}
}

// FromBounds reconstructs a histogram from bounds previously returned
// by Bounds — the checkpoint subsystem's serialised form.
func FromBounds(bounds []float64) *Histogram {
	return &Histogram{bounds: append([]float64(nil), bounds...)}
}

// Bounds returns a copy of the inner bucket boundaries, ascending.
func (h *Histogram) Bounds() []float64 {
	return append([]float64(nil), h.bounds...)
}

// Buckets returns the number of buckets.
func (h *Histogram) Buckets() int { return len(h.bounds) + 1 }

// Bucket maps a value to its bucket number in [0, Buckets()).
func (h *Histogram) Bucket(v float64) int {
	// First bound >= v: v belongs to that bucket because bucket i covers
	// (bound[i-1], bound[i]].
	return sort.SearchFloat64s(h.bounds, v)
}

// BucketBounds returns the (lo, hi] range of bucket i, using ±Inf for
// the open ends.
func (h *Histogram) BucketBounds(i int) (lo, hi float64) {
	lo, hi = math.Inf(-1), math.Inf(1)
	if i > 0 {
		lo = h.bounds[i-1]
	}
	if i < len(h.bounds) {
		hi = h.bounds[i]
	}
	return lo, hi
}

// BucketRange returns the inclusive bucket span covering values in
// [lo, hi].
func (h *Histogram) BucketRange(lo, hi float64) (first, last int) {
	return h.Bucket(lo), h.Bucket(hi)
}
