package mbtree

import (
	"runtime"
	"slices"
	"testing"

	"sebdb/internal/types"
)

// allocated returns the bytes fn allocates.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzDecodeVerifyVO feeds arbitrary bytes to the verifier as the VO of
// a fixed tree. It must never panic, never allocate beyond a multiple
// of the input (an exposed record is at least two bytes of VO and costs
// a Record and a digest), and whatever it accepts against the tree's
// root must be exactly the tree's records in the queried range.
func FuzzDecodeVerifyVO(f *testing.F) {
	rs := recs(200) // keys 0, 2, ..., 398
	for i := 0; i < 40; i++ {
		rs = append(rs, Record{Key: types.Int(100), Payload: []byte{byte(i)}}) // a run of equal keys
	}
	tree := Build(rs, 0)
	rs = tree.Records()
	root := tree.Root()

	for _, q := range [][2]int64{{100, 120}, {-10, 4}, {390, 500}, {-1, 1000}, {101, 101}, {100, 100}, {700, 800}} {
		lo, hi := types.Int(q[0]), types.Int(q[1])
		vo := tree.RangeVO(lo, hi)
		f.Add([]byte(vo), q[0], q[1])
		f.Add([]byte(vo), q[0]-7, q[1]+7) // an honest VO offered for a wider range
		f.Add([]byte(vo[:len(vo)/2]), q[0], q[1])
		flipped := slices.Clone(vo)
		flipped[len(flipped)/3] ^= 1
		f.Add([]byte(flipped), q[0], q[1])
		e := types.NewEncoder(256)
		s, end := tree.exposed(lo, hi)
		tree.encodeRun(e, min(s+1, end), end) // left boundary withheld
		f.Add(slices.Clone(e.Bytes()), q[0], q[1])
	}
	f.Add([]byte{2, 0, 0, 0, 1, 1, 3, 0, 0, 0, 0, 0, 0, 0, 4, 0, 0, 0, 1, 'x'}, int64(0), int64(9)) // v1: an exposed leaf
	f.Add([]byte{voVersion, 4, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F}, int64(0), int64(9))

	f.Fuzz(func(t *testing.T, vo []byte, a, b int64) {
		lo, hi := types.Int(a), types.Int(b)
		var got []Record
		var sum Hash
		var err error
		n := allocated(func() { sum, got, err = Reconstruct(nil, vo, lo, hi) })
		if limit := uint64(256*len(vo) + 1<<16); n > limit {
			t.Fatalf("%d-byte VO made the verifier allocate %d bytes", len(vo), n)
		}
		if err != nil || sum != root {
			return
		}
		if want := rangeWant(rs, lo, hi); !equalRecords(got, want) {
			t.Fatalf("accepted %d records for [%d, %d], the tree holds %d", len(got), a, b, len(want))
		}
	})
}
