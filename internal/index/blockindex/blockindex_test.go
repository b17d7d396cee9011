package blockindex

import (
	"slices"
	"testing"

	"sebdb/internal/types"
)

// chain builds the index over blocks holding counts[i] transactions,
// block i packaged at ts[i]. Tids are dense from 1 and the cursors
// follow storage.Store's rule: a non-empty block's cursor is its
// FirstTid, an empty block's is the next tid the chain would assign.
func chain(counts []uint32, ts []int64) Index {
	headers := make([]types.BlockHeader, len(counts))
	cursors := make([]uint64, len(counts))
	next := uint64(1)
	for i, n := range counts {
		headers[i] = types.BlockHeader{Height: uint64(i), Timestamp: ts[i], TxCount: n}
		if n > 0 {
			headers[i].FirstTid = next
		}
		cursors[i] = next
		next += uint64(n)
	}
	return New(headers, cursors)
}

// buildIndex indexes n blocks: block i holds tids [i*10+1, i*10+10] and
// was packaged at timestamp (i+1)*100.
func buildIndex(n int) Index {
	counts := make([]uint32, n)
	ts := make([]int64, n)
	for i := range counts {
		counts[i], ts[i] = 10, int64(i+1)*100
	}
	return chain(counts, ts)
}

func TestByBlockID(t *testing.T) {
	x := buildIndex(5)
	if x.Count() != 5 {
		t.Fatalf("Count = %d", x.Count())
	}
	if !x.ByBlockID(0) || !x.ByBlockID(4) {
		t.Error("existing blocks not found")
	}
	if x.ByBlockID(5) {
		t.Error("missing block found")
	}
	if h, ok := x.Header(4); !ok || h.Timestamp != 500 {
		t.Errorf("Header(4) = %+v, %v", h, ok)
	}
	if _, ok := x.Header(5); ok {
		t.Error("header beyond the prefix found")
	}
}

type lookup struct {
	q    int64
	want uint64
	ok   bool
}

func checkByTid(t *testing.T, x Index, cases []lookup) {
	t.Helper()
	for _, c := range cases {
		got, ok := x.ByTid(uint64(c.q))
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("ByTid(%d) = %d,%v; want %d,%v", c.q, got, ok, c.want, c.ok)
		}
	}
}

func checkByTime(t *testing.T, x Index, cases []lookup) {
	t.Helper()
	for _, c := range cases {
		got, ok := x.ByTime(c.q)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("ByTime(%d) = %d,%v; want %d,%v", c.q, got, ok, c.want, c.ok)
		}
	}
}

func TestByTid(t *testing.T) {
	checkByTid(t, buildIndex(5), []lookup{
		{1, 0, true}, {10, 0, true}, {11, 1, true},
		{25, 2, true}, {50, 4, true}, {41, 4, true},
		{51, 0, false}, // beyond tip
		{0, 0, false},  // no transaction has tid 0
	})
	if _, ok := (Index{}).ByTid(1); ok {
		t.Error("empty index resolved a tid")
	}
}

// TestByTidEmptyBlocks: an empty block owns no tid, between non-empty
// blocks, at genesis and at the tip alike.
func TestByTidEmptyBlocks(t *testing.T) {
	// Blocks: 0 empty, 1 tids 1-3, 2 empty, 3 empty, 4 tids 4-5, 5 empty.
	x := chain([]uint32{0, 3, 0, 0, 2, 0}, []int64{10, 20, 30, 40, 50, 60})
	checkByTid(t, x, []lookup{
		{1, 1, true}, {3, 1, true}, {4, 4, true}, {5, 4, true},
		{6, 0, false}, // the empty tip holds no tid 6
		{0, 0, false},
	})
	// A chain of empty blocks holds no tid at all.
	checkByTid(t, chain([]uint32{0, 0}, []int64{1, 2}), []lookup{{0, 0, false}, {1, 0, false}})
}

func TestByTime(t *testing.T) {
	x := buildIndex(5)
	checkByTime(t, x, []lookup{
		{100, 0, true}, {150, 0, true}, {200, 1, true},
		{500, 4, true}, {9999, 4, true}, {50, 0, false},
		{99, 0, false}, // before genesis
		{199, 0, true}, // between blocks 0 and 1
		{201, 1, true}, // just past block 1
		{-5, 0, false}, // negative timestamps sort first
		{499, 3, true}, // just before the tip
		{1 << 62, 4, true},
	})
	if _, ok := (Index{}).ByTime(1 << 62); ok {
		t.Error("empty index resolved a time")
	}
}

func TestTimeWindow(t *testing.T) {
	x := buildIndex(10)
	got := x.TimeWindow(250, 650).Slice()
	// Blocks at ts 300..600 → ids 2..5.
	if len(got) != 4 || got[0] != 2 || got[3] != 5 {
		t.Errorf("TimeWindow = %v", got)
	}
	// Open-ended window.
	if n := x.TimeWindow(0, 0).Count(); n != 10 {
		t.Errorf("open window covers %d blocks", n)
	}
	if x.TimeWindow(9000, 9999).Count() != 0 {
		t.Error("future window not empty")
	}
	cases := []struct {
		start, end int64
		want       []int
	}{
		{300, 600, []int{2, 3, 4, 5}}, // both ends included
		{300, 300, []int{2}},
		{301, 399, nil}, // between two blocks
		{0, 99, nil},    // before genesis
		{600, 300, nil}, // inverted
		{950, 0, []int{9}},
		{1001, 0, nil},
		{-100, 100, []int{0}},
	}
	for _, c := range cases {
		if got := x.TimeWindow(c.start, c.end).Slice(); !slices.Equal(got, c.want) {
			t.Errorf("TimeWindow(%d, %d) = %v, want %v", c.start, c.end, got, c.want)
		}
	}
}

func TestAllBlocks(t *testing.T) {
	if (Index{}).AllBlocks().Count() != 0 {
		t.Error("empty index AllBlocks not empty")
	}
	x := buildIndex(3)
	if got := x.AllBlocks().Slice(); len(got) != 3 || got[2] != 2 {
		t.Errorf("AllBlocks = %v", got)
	}
}

// FuzzBlockIndex decodes a chain from the input — per block a
// transaction count (zero included) and a timestamp gap of at least 1 —
// and, at every pin height, holds each lookup to a linear scan of the
// headers.
func FuzzBlockIndex(f *testing.F) {
	f.Add([]byte{3, 1, 0, 1, 2, 5, 0, 9}, int64(0))
	f.Add([]byte{0, 1, 0, 1, 0, 1}, int64(-3))
	f.Add([]byte{255, 255, 1, 0, 7, 3, 0, 200, 4, 4}, int64(1<<40))
	f.Fuzz(func(t *testing.T, data []byte, q int64) {
		if len(data) > 48 {
			data = data[:48]
		}
		var counts []uint32
		var ts []int64
		at := q % 1000
		for i := 0; i+1 < len(data); i += 2 {
			counts = append(counts, uint32(data[i]%8))
			at += int64(data[i+1]%16) + 1
			ts = append(ts, at)
		}
		full := chain(counts, ts)
		for h := 0; h <= len(counts); h++ {
			x := New(full.headers[:h:h], full.cursors[:h:h])
			hs := x.headers
			var probes []int64
			probes = append(probes, q, 0, -1)
			for _, hd := range hs {
				probes = append(probes, hd.Timestamp-1, hd.Timestamp)
			}
			var lastTid uint64
			for _, hd := range hs {
				if hd.TxCount > 0 {
					lastTid = hd.FirstTid + uint64(hd.TxCount) - 1
				}
			}
			for tid := uint64(0); tid <= lastTid+2; tid++ {
				want, wantOK := uint64(0), false
				for j, hd := range hs {
					if hd.TxCount > 0 && hd.FirstTid <= tid && tid < hd.FirstTid+uint64(hd.TxCount) {
						want, wantOK = uint64(j), true
					}
				}
				if got, ok := x.ByTid(tid); ok != wantOK || got != want {
					t.Fatalf("h=%d ByTid(%d) = %d,%v; scan says %d,%v", h, tid, got, ok, want, wantOK)
				}
			}
			for _, p := range probes {
				want, wantOK := uint64(0), false
				for j, hd := range hs {
					if hd.Timestamp <= p {
						want, wantOK = uint64(j), true
					}
				}
				if got, ok := x.ByTime(p); ok != wantOK || got != want {
					t.Fatalf("h=%d ByTime(%d) = %d,%v; scan says %d,%v", h, p, got, ok, want, wantOK)
				}
				for _, e := range probes {
					var want []int
					for j, hd := range hs {
						if hd.Timestamp >= p && (e == 0 || hd.Timestamp <= e) {
							want = append(want, j)
						}
					}
					if got := x.TimeWindow(p, e).Slice(); !slices.Equal(got, want) {
						t.Fatalf("h=%d TimeWindow(%d, %d) = %v; scan says %v", h, p, e, got, want)
					}
				}
			}
			if got := x.AllBlocks().Count(); got != h {
				t.Fatalf("h=%d AllBlocks covers %d blocks", h, got)
			}
		}
	})
}
