package bitmap

import (
	"testing"
	"testing/quick"
)

func TestSetGetGrow(t *testing.T) {
	b := New()
	if b.Get(0) || b.Get(1000) {
		t.Error("fresh bitmap has set bits")
	}
	b.Set(0)
	b.Set(63)
	b.Set(64)
	b.Set(1000)
	for _, i := range []int{0, 63, 64, 1000} {
		if !b.Get(i) {
			t.Errorf("bit %d not set", i)
		}
	}
	if b.Get(1) || b.Get(999) || b.Get(-1) {
		t.Error("unexpected bits set")
	}
	if b.Count() != 4 {
		t.Errorf("Count = %d", b.Count())
	}
	if b.Count() == 0 {
		t.Error("non-empty reported empty")
	}
	if New().Count() != 0 {
		t.Error("fresh bitmap not empty")
	}
}

func TestAndOrAndNot(t *testing.T) {
	a := FromSlice([]int{1, 5, 70, 200})
	b := FromSlice([]int{5, 70, 300})
	and := a.Clone().And(b)
	if got := and.Slice(); len(got) != 2 || got[0] != 5 || got[1] != 70 {
		t.Errorf("And = %v", got)
	}
	or := a.Clone().Or(b)
	if got := or.Slice(); len(got) != 5 || got[4] != 300 {
		t.Errorf("Or = %v", got)
	}
	// And with a shorter bitmap clears high words.
	c := FromSlice([]int{500}).And(FromSlice([]int{1}))
	if c.Count() != 0 {
		t.Error("And with short bitmap left high bits")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := FromSlice([]int{3})
	c := a.Clone()
	c.Set(4)
	if a.Get(4) {
		t.Error("Clone aliases the original")
	}
}

func TestSetRangeAndForEach(t *testing.T) {
	b := New()
	b.SetRange(60, 70)
	if b.Count() != 11 {
		t.Errorf("Count = %d", b.Count())
	}
	var got []int
	b.ForEach(func(i int) bool {
		got = append(got, i)
		return len(got) < 3
	})
	if len(got) != 3 || got[0] != 60 || got[2] != 62 {
		t.Errorf("ForEach early-stop = %v", got)
	}
}

func TestIntersects(t *testing.T) {
	a := FromSlice([]int{100})
	b := FromSlice([]int{100, 5})
	c := FromSlice([]int{5})
	if !a.Intersects(b) || !b.Intersects(a) {
		t.Error("overlapping bitmaps reported disjoint")
	}
	if a.Intersects(c) {
		t.Error("disjoint bitmaps reported overlapping")
	}
	if a.Intersects(New()) {
		t.Error("empty intersects")
	}
}

func TestRoundTripQuick(t *testing.T) {
	f := func(xs []uint16) bool {
		seen := map[int]bool{}
		var unique []int
		for _, x := range xs {
			i := int(x)
			if !seen[i] {
				seen[i] = true
				unique = append(unique, i)
			}
		}
		b := FromSlice(unique)
		if b.Count() != len(unique) {
			return false
		}
		for _, i := range unique {
			if !b.Get(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDeMorganQuick(t *testing.T) {
	// |A ∩ B| + |A \ B| == |A|
	f := func(as, bs []uint16) bool {
		toInts := func(xs []uint16) []int {
			out := make([]int, len(xs))
			for i, x := range xs {
				out[i] = int(x)
			}
			return out
		}
		a := FromSlice(toInts(as))
		b := FromSlice(toInts(bs))
		inter := a.Clone().And(b).Count()
		diff := 0
		a.ForEach(func(i int) bool {
			if !b.Get(i) {
				diff++
			}
			return true
		})
		return inter+diff == a.Count()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestSpan: Span(lo, hi) sets exactly [lo, hi).
func TestSpan(t *testing.T) {
	for lo := 0; lo <= 130; lo++ {
		for hi := lo - 1; hi <= 131; hi++ {
			b := Span(lo, hi)
			for i := 0; i < 200; i++ {
				if want := i >= lo && i < hi; b.Get(i) != want {
					t.Fatalf("Span(%d, %d).Get(%d) = %v", lo, hi, i, !want)
				}
			}
		}
	}
}

// TestMinMax covers an empty bitmap (no words, and words all cleared),
// a single word and several, against the ends of Slice.
func TestMinMax(t *testing.T) {
	cleared := FromSlice([]int{3, 130}).And(FromSlice([]int{1, 129}))
	for _, b := range []*Bitmap{New(), cleared} {
		if _, ok := b.Min(); ok {
			t.Errorf("Min of an empty bitmap reports a bit")
		}
		if _, ok := b.Max(); ok {
			t.Errorf("Max of an empty bitmap reports a bit")
		}
	}
	for _, set := range [][]int{{0}, {63}, {5, 9, 40}, {64}, {1, 64, 127}, {70, 200, 1000}, {0, 63, 64, 128, 191}} {
		b := FromSlice(set)
		if lo, ok := b.Min(); !ok || lo != set[0] {
			t.Errorf("%v: Min = %d, %v", set, lo, ok)
		}
		if hi, ok := b.Max(); !ok || hi != set[len(set)-1] {
			t.Errorf("%v: Max = %d, %v", set, hi, ok)
		}
	}
}
