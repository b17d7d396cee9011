package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := Quartiles(seq(10))
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles of 1..10 = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q3 = Quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q3 != 12 {
		t.Fatalf("quartiles = %v, %v; want 1.5, 12", q1, q3)
	}
	if got := Spread(seq(10)); math.Abs(got-1) > 1e-12 {
		t.Fatalf("spread of 1..10 = %v, want 1 (IQR 5.5 over median 5.5)", got)
	}
	if q1, q3 := Quartiles([]float64{7}); q1 != 7 || q3 != 7 {
		t.Fatalf("single sample quartiles = %v, %v", q1, q3)
	}
}

func TestMedian(t *testing.T) {
	if Median(seq(9)) != 5 || Median(seq(10)) != 5.5 {
		t.Fatal("median of odd/even sample wrong")
	}
	if !math.IsNaN(Median(nil)) {
		t.Fatal("median of nothing must be NaN")
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	// 1000 samples: p99 is the 990th, 10 lie beyond it.
	v, ok := Percentile(seq(1000), 0.99)
	if v != 990 || !ok {
		t.Fatalf("p99 of 1..1000 = %v ok=%v; want 990 supported", v, ok)
	}
	// 999 samples: p99 is the 990th, only 9 lie beyond it.
	if v, ok = Percentile(seq(999), 0.99); v != 990 || ok {
		t.Fatalf("p99 of 1..999 = %v ok=%v; want 990 unsupported", v, ok)
	}
	// The same 999 samples support p95.
	if v, ok = Percentile(seq(999), 0.95); v != 950 || !ok {
		t.Fatalf("p95 of 1..999 = %v ok=%v; want 950 supported", v, ok)
	}
}
