package bptree

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"sebdb/internal/types"
)

func collectRange(t *Tree, lo, hi types.Value) []uint64 {
	var out []uint64
	t.Range(lo, hi, func(_ types.Value, ref uint64) bool {
		out = append(out, ref)
		return true
	})
	return out
}

func TestInsertAndRangeSmallOrder(t *testing.T) {
	tr := New(4)
	// Insert shuffled keys so splits happen on both sides.
	perm := rand.New(rand.NewSource(1)).Perm(200)
	for _, k := range perm {
		tr.Insert(types.Int(int64(k)), uint64(k))
	}
	if tr.Len() != 200 {
		t.Fatalf("Len = %d", tr.Len())
	}
	got := collectRange(tr, types.Int(50), types.Int(59))
	if len(got) != 10 {
		t.Fatalf("range [50,59] returned %d", len(got))
	}
	for i, r := range got {
		if r != uint64(50+i) {
			t.Errorf("range[%d] = %d", i, r)
		}
	}
	// Full scan is sorted.
	var prev types.Value = types.Null
	n := 0
	tr.Scan(func(k types.Value, _ uint64) bool {
		if types.Compare(k, prev) < 0 {
			t.Fatalf("scan out of order at %v", k)
		}
		prev = k
		n++
		return true
	})
	if n != 200 {
		t.Errorf("scan visited %d", n)
	}
}

func TestDuplicateKeys(t *testing.T) {
	tr := New(4)
	for i := 0; i < 50; i++ {
		tr.Insert(types.Str("dup"), uint64(i))
	}
	tr.Insert(types.Str("aaa"), 100)
	tr.Insert(types.Str("zzz"), 200)
	got := tr.Lookup(types.Str("dup"))
	if len(got) != 50 {
		t.Fatalf("Lookup(dup) returned %d", len(got))
	}
	seen := map[uint64]bool{}
	for _, r := range got {
		seen[r] = true
	}
	if len(seen) != 50 {
		t.Error("duplicate refs lost")
	}
	if got := tr.Lookup(types.Str("ghost")); len(got) != 0 {
		t.Errorf("Lookup(ghost) = %v", got)
	}
}

func TestBulkMatchesInsert(t *testing.T) {
	var entries []Entry
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		entries = append(entries, Entry{Key: types.Int(int64(rng.Intn(100))), Ref: uint64(i)})
	}
	bulk := Bulk(entries, 8)
	ins := New(8)
	for _, e := range entries {
		ins.Insert(e.Key, e.Ref)
	}
	if bulk.Len() != ins.Len() {
		t.Fatalf("Len %d vs %d", bulk.Len(), ins.Len())
	}
	for k := 0; k < 100; k++ {
		a := bulk.Lookup(types.Int(int64(k)))
		b := ins.Lookup(types.Int(int64(k)))
		if len(a) != len(b) {
			t.Errorf("key %d: bulk %d refs, insert %d refs", k, len(a), len(b))
		}
		sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
		sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("key %d ref %d: %d vs %d", k, i, a[i], b[i])
			}
		}
	}
}

func TestBulkEmpty(t *testing.T) {
	tr := Bulk(nil, 0)
	if tr.Len() != 0 {
		t.Error("empty bulk has entries")
	}
	if _, ok := tr.Min(); ok {
		t.Error("empty tree has Min")
	}
	if _, ok := tr.Max(); ok {
		t.Error("empty tree has Max")
	}
	if got := collectRange(tr, types.Int(0), types.Int(10)); len(got) != 0 {
		t.Errorf("range over empty = %v", got)
	}
}

func TestMinMaxHeight(t *testing.T) {
	tr := New(4)
	for i := 100; i > 0; i-- {
		tr.Insert(types.Int(int64(i)), uint64(i))
	}
	if mn, _ := tr.Min(); mn != types.Int(1) {
		t.Errorf("Min = %v", mn)
	}
	if mx, _ := tr.Max(); mx != types.Int(100) {
		t.Errorf("Max = %v", mx)
	}
	if tr.Height() < 2 {
		t.Errorf("Height = %d for 100 keys order 4", tr.Height())
	}
}

func TestAppendPatternKeepsLeavesFull(t *testing.T) {
	// With strictly increasing keys the append-optimised split keeps all
	// but the last leaf full, so the tree stays shallow.
	seq := New(8)
	for i := 0; i < 1000; i++ {
		seq.Insert(types.Int(int64(i)), uint64(i))
	}
	bulk := Bulk(func() []Entry {
		es := make([]Entry, 1000)
		for i := range es {
			es[i] = Entry{Key: types.Int(int64(i)), Ref: uint64(i)}
		}
		return es
	}(), 8)
	if seq.Height() > bulk.Height()+1 {
		t.Errorf("append-pattern height %d far exceeds bulk height %d", seq.Height(), bulk.Height())
	}
	// And everything is still findable.
	for _, k := range []int64{0, 1, 499, 998, 999} {
		if got := seq.Lookup(types.Int(k)); len(got) != 1 || got[0] != uint64(k) {
			t.Errorf("Lookup(%d) = %v", k, got)
		}
	}
}

func TestRangeBoundaryInclusive(t *testing.T) {
	tr := New(4)
	for i := 0; i < 20; i++ {
		tr.Insert(types.Int(int64(i)), uint64(i))
	}
	got := collectRange(tr, types.Int(5), types.Int(5))
	if len(got) != 1 || got[0] != 5 {
		t.Errorf("point range = %v", got)
	}
	if got := collectRange(tr, types.Int(-10), types.Int(-1)); len(got) != 0 {
		t.Errorf("range below min = %v", got)
	}
	if got := collectRange(tr, types.Int(100), types.Int(200)); len(got) != 0 {
		t.Errorf("range above max = %v", got)
	}
	if got := collectRange(tr, types.Int(-5), types.Int(100)); len(got) != 20 {
		t.Errorf("covering range = %d entries", len(got))
	}
}

func TestRangeEarlyStop(t *testing.T) {
	tr := New(4)
	for i := 0; i < 100; i++ {
		tr.Insert(types.Int(int64(i)), uint64(i))
	}
	n := 0
	tr.Range(types.Int(0), types.Int(99), func(_ types.Value, _ uint64) bool {
		n++
		return n < 7
	})
	if n != 7 {
		t.Errorf("early stop visited %d", n)
	}
	n = 0
	tr.Scan(func(_ types.Value, _ uint64) bool {
		n++
		return false
	})
	if n != 1 {
		t.Errorf("scan early stop visited %d", n)
	}
}

func TestQuickRangeMatchesSortedSlice(t *testing.T) {
	f := func(keys []int16, loRaw, hiRaw int16) bool {
		lo, hi := int64(loRaw), int64(hiRaw)
		if lo > hi {
			lo, hi = hi, lo
		}
		tr := New(6)
		want := 0
		for i, k := range keys {
			tr.Insert(types.Int(int64(k)), uint64(i))
			if int64(k) >= lo && int64(k) <= hi {
				want++
			}
		}
		return len(collectRange(tr, types.Int(lo), types.Int(hi))) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
