package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile for it to
// be worth reporting: with fewer, the value is one or two outliers.
const minBeyond = 10

// Percentile returns the q-quantile (0 < q < 1) of sorted samples by
// the nearest-rank rule. ok is false when fewer than minBeyond samples
// lie above the chosen rank, so callers can mark the tail as
// unsupported by the sample.
func Percentile(sorted []float64, q float64) (v float64, ok bool) {
	n := len(sorted)
	if n == 0 {
		return math.NaN(), false
	}
	rank := int(math.Ceil(q*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	return sorted[rank], n-1-rank >= minBeyond
}

// Median returns the middle value of sorted samples (mean of the middle
// two for an even count).
func Median(sorted []float64) float64 {
	n := len(sorted)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// Quartiles returns the first and third quartile of sorted samples the
// way Python's statistics.quantiles(values, n=4) does (exclusive
// method), which is what the benchmark contract's spread is defined by.
func Quartiles(sorted []float64) (q1, q3 float64) {
	n := len(sorted)
	if n < 2 {
		// No spread to speak of: both quartiles are the median.
		m := Median(sorted)
		return m, m
	}
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1)) - float64(j*4)
		return (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
	}
	return at(1), at(3)
}

// Spread is the interquartile range as a share of the median.
func Spread(sorted []float64) float64 {
	q1, q3 := Quartiles(sorted)
	return (q3 - q1) / Median(sorted)
}

func sortedCopy(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}
