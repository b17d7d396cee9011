package layered

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"sebdb/internal/index/bitmap"
	"sebdb/internal/types"
)

// negInf and posInf are exec's bounds of an open range: below and above
// every value in types.Compare's order.
var (
	negInf = types.Null
	posInf = types.Value{Kind: types.KindTimestamp + 100}
)

// fuzzKey decodes one key of a numeric or a string column from two
// bytes. Keys sit on a small grid, so duplicates are common, and a
// numeric column mixes Int and Dec, so are cross-kind ties.
func fuzzKey(numeric bool, tag, v byte) types.Value {
	switch {
	case tag%8 == 0:
		return types.Null
	case !numeric:
		return types.Str(strings.Repeat("ab", int(v%3)) + string(rune('a'+v%5)))
	case tag%2 == 0:
		return types.Int(int64(v%16) - 8)
	default:
		return types.Dec(float64(int(v%32)-16) / 2)
	}
}

// fuzzBound decodes a query bound: one of exec's sentinels or a key.
func fuzzBound(numeric bool, tag, v byte) types.Value {
	switch tag % 16 {
	case 14:
		return negInf
	case 15:
		return posInf
	}
	return fuzzKey(numeric, tag, v)
}

// decodeFuzzBlocks reads a fuzz input: a flags byte (bit 0: numeric
// column), two bounds of two bytes each, then (tag, value) pairs, one
// entry each; a tag with bit 6 set closes the block before its entry.
// Positions count up within each block, as the engine assigns them.
func decodeFuzzBlocks(data []byte) (numeric bool, lo, hi types.Value, blocks [][]Entry) {
	if len(data) < 5 {
		return false, negInf, posInf, nil
	}
	numeric = data[0]&1 != 0
	lo, hi = fuzzBound(numeric, data[1], data[2]), fuzzBound(numeric, data[3], data[4])
	blocks = [][]Entry{nil}
	for i := 5; i+1 < len(data) && i < 5+2*512; i += 2 {
		tag := data[i]
		if tag&0x40 != 0 && len(blocks) < 16 {
			blocks = append(blocks, nil)
		}
		b := &blocks[len(blocks)-1]
		*b = append(*b, Entry{Key: fuzzKey(numeric, tag, data[i+1]), Pos: uint32(len(*b))})
	}
	return numeric, lo, hi, blocks
}

// inRange filters key-sorted entries to those with lo <= key <= hi.
func inRange(sorted []Entry, lo, hi types.Value) []Entry {
	var out []Entry
	for _, e := range sorted {
		if types.Compare(e.Key, lo) >= 0 && types.Compare(e.Key, hi) <= 0 {
			out = append(out, e)
		}
	}
	return out
}

func sameEntries(a, b []Entry) bool {
	return slices.EqualFunc(a, b, func(x, y Entry) bool { return x.Pos == y.Pos && identical(x.Key, y.Key) })
}

// FuzzLayeredBlock indexes fuzzed blocks — duplicates, mixed Int and
// Dec, Null — on one column kind and holds every second-level read to a
// brute-force stable sort of the block's entries: BlockEntries is that
// sort and round-trips through AppendBlock, BlockRange is its filter
// for bounds that include exec's open-range sentinels, BlockValueRange
// its ends. Both first levels must keep every block the second level
// matches.
func FuzzLayeredBlock(f *testing.F) {
	f.Add([]byte{1, 14, 0, 3, 9, 3, 1, 2, 1, 3, 1, 0x43, 5, 1, 7, 2, 1, 8, 0, 0x41, 30})
	f.Add([]byte{0, 3, 1, 15, 0, 3, 2, 3, 2, 3, 0, 0x43, 4, 8, 0, 3, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		numeric, qlo, qhi, blocks := decodeFuzzBlocks(data)
		if blocks == nil {
			return
		}
		var sample []float64
		for _, es := range blocks {
			for _, e := range es {
				if e.Key.Numeric() {
					sample = append(sample, e.Key.Float())
				}
			}
		}
		fresh := []func() *Index{func() *Index { return NewDiscrete("v") }}
		if numeric {
			hist := NewEqualDepth(sample, 4)
			fresh = append(fresh, func() *Index { return NewContinuous("v", hist) })
		}
		bounds := [][2]types.Value{{qlo, qhi}, {negInf, posInf}, {negInf, qhi}, {qlo, posInf}, {qlo, qlo}}
		for _, mk := range fresh {
			x := mk()
			for bid, es := range blocks {
				in := slices.Clone(es)
				x.AppendBlock(uint64(bid), es)
				if !sameEntries(in, es) {
					t.Fatalf("block %d: AppendBlock reordered its input", bid)
				}
			}
			matched := make([]*bitmap.Bitmap, len(bounds))
			for i := range matched {
				matched[i] = bitmap.New()
			}
			for bid, es := range blocks {
				want := slices.Clone(es)
				sort.SliceStable(want, func(i, j int) bool { return types.Compare(want[i].Key, want[j].Key) < 0 })
				got := x.BlockEntries(uint64(bid))
				if !sameEntries(got, want) {
					t.Fatalf("continuous=%v block %d: BlockEntries %v, want %v", x.Continuous(), bid, got, want)
				}
				y := mk()
				y.AppendBlock(uint64(bid), got)
				if again := y.BlockEntries(uint64(bid)); !sameEntries(again, want) {
					t.Fatalf("block %d: BlockEntries does not round-trip: %v, want %v", bid, again, want)
				}
				lo, hi, ok := x.BlockValueRange(uint64(bid))
				if ok != (len(want) > 0) || ok && (!identical(lo, want[0].Key) || !identical(hi, want[len(want)-1].Key)) {
					t.Fatalf("block %d: BlockValueRange = %v..%v, %v", bid, lo, hi, ok)
				}
				for i, q := range bounds {
					var ranged []Entry
					x.BlockRange(uint64(bid), q[0], q[1], func(k types.Value, pos uint32) bool {
						ranged = append(ranged, Entry{Key: k, Pos: pos})
						return true
					})
					if want := inRange(want, q[0], q[1]); !sameEntries(ranged, want) {
						t.Fatalf("block %d: BlockRange(%v, %v) = %v, want %v", bid, q[0], q[1], ranged, want)
					}
					if len(ranged) > 0 {
						matched[i].Set(bid)
					}
				}
			}
			for i, q := range bounds {
				cand := x.CandidateBlocks(q[0], q[1])
				if missed := matched[i].Clone().AndNot(cand); !missed.Empty() {
					t.Fatalf("continuous=%v: CandidateBlocks(%v, %v) = %v drops matching blocks %v",
						x.Continuous(), q[0], q[1], cand.Slice(), missed.Slice())
				}
			}
		}
	})
}

// TestLayeredBytesPerEntry bounds what a built index keeps per indexed
// transaction: 1,000 blocks of 200 entries from 50 Zipf-distributed
// senders, every key a fresh string as a decoded transaction carries
// it. A run keeps one copy of each distinct key per block, so the
// strings of the repeats must not stay reachable.
func TestLayeredBytesPerEntry(t *testing.T) {
	const blocks, perBlock = 1000, 200
	zipf := rand.NewZipf(rand.New(rand.NewPCG(1, 2)), 1.1, 1, 49)
	senders := make([]string, 50)
	for i := range senders {
		senders[i] = fmt.Sprintf("org-sender-%03d", i)
	}
	es := make([]Entry, perBlock)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	x := NewDiscrete("senid")
	for b := 0; b < blocks; b++ {
		for i := range es {
			es[i] = Entry{Key: types.Str(strings.Clone(senders[zipf.Uint64()])), Pos: uint32(i)}
		}
		x.AppendBlock(uint64(b), es)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(x)
	per := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / (blocks * perBlock)
	t.Logf("%.1f B of live heap per indexed entry", per)
	if per > 24 {
		t.Errorf("the index keeps %.1f B per entry, want at most 24", per)
	}
}
