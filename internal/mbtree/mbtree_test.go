package mbtree

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"sebdb/internal/types"
)

func recs(n int) []Record {
	out := make([]Record, n)
	for i := range out {
		out[i] = Record{Key: types.Int(int64(i * 2)), Payload: []byte(fmt.Sprintf("tx-%d", i))}
	}
	return out
}

func equalRecords(a, b []Record) bool {
	return slices.EqualFunc(a, b, func(x, y Record) bool {
		return types.Equal(x.Key, y.Key) && bytes.Equal(x.Payload, y.Payload)
	})
}

func rangeWant(rs []Record, lo, hi types.Value) []Record {
	var out []Record
	for _, r := range rs {
		if types.Compare(r.Key, lo) >= 0 && types.Compare(r.Key, hi) <= 0 {
			out = append(out, r)
		}
	}
	return out
}

func TestBuildAndRoot(t *testing.T) {
	rs := recs(500)
	a := Build(rs, 10)
	b := Build(rs, 10)
	if a.Root() != b.Root() {
		t.Error("same records must give same root")
	}
	if a.Len() != 500 {
		t.Errorf("Len = %d", a.Len())
	}
	// A different record changes the root.
	mod := recs(500)
	mod[250].Payload = []byte("evil")
	if Build(mod, 10).Root() == a.Root() {
		t.Error("tampered record did not change root")
	}
	// Fanout changes the shape and hence the root (acceptable: fanout is
	// a consensus-fixed parameter).
	if Build(rs, 5).Root() == a.Root() {
		t.Error("fan-out did not change root")
	}
	if mn, _ := a.Min(); mn != types.Int(0) {
		t.Errorf("Min = %v", mn)
	}
	if mx, _ := a.Max(); mx != types.Int(998) {
		t.Errorf("Max = %v", mx)
	}
	// Rebuilding from Records reproduces the tree: the checkpoint path.
	if Build(a.Records(), 10).Root() != a.Root() {
		t.Error("Build(Records()) changed root")
	}
}

// TestRootIgnoresInputOrder: the root is a function of the record set,
// duplicate keys included, at every tree size around a level boundary.
func TestRootIgnoresInputOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 2, 3, 4, 5, 16, 17, 63, 64, 65, 500} {
		rs := make([]Record, n)
		for i := range rs {
			// A third of the keys collide.
			rs[i] = Record{Key: types.Int(int64(i / 3)), Payload: []byte(fmt.Sprintf("tx-%d", i))}
		}
		want := Build(rs, 0).Root()
		for round := 0; round < 5; round++ {
			rng.Shuffle(len(rs), func(i, j int) { rs[i], rs[j] = rs[j], rs[i] })
			if Build(rs, 0).Root() != want {
				t.Fatalf("n=%d: shuffle changed root", n)
			}
		}
	}
}

func TestEmptyTree(t *testing.T) {
	e := Build(nil, 0)
	if e.Len() != 0 {
		t.Error("empty tree has records")
	}
	if _, ok := e.Min(); ok {
		t.Error("empty tree has Min")
	}
	vo := e.RangeVO(types.Int(0), types.Int(10))
	got, err := Verify(vo, e.Root(), types.Int(0), types.Int(10))
	if err != nil || len(got) != 0 {
		t.Errorf("empty tree VO: %v, %v", got, err)
	}
}

func TestRangeVOVerify(t *testing.T) {
	cases := []struct{ lo, hi int64 }{
		{100, 120},   // interior
		{-10, 4},     // touches left edge
		{590, 700},   // touches right edge
		{-10, 10000}, // covers everything
		{101, 101},   // empty (odd key)
		{100, 100},   // single
		{700, 800},   // beyond max
		{-20, -10},   // below min
	}
	for _, fanout := range []int{2, 3, 8, 100} {
		for _, n := range []int{1, 2, 7, 8, 9, 300} {
			rs := recs(n) // keys 0,2,...
			tree := Build(rs, fanout)
			root := tree.Root()
			for _, c := range cases {
				lo, hi := types.Int(c.lo), types.Int(c.hi)
				got, err := Verify(tree.RangeVO(lo, hi), root, lo, hi)
				if err != nil {
					t.Errorf("f=%d n=%d [%d,%d]: %v", fanout, n, c.lo, c.hi, err)
					continue
				}
				if want := rangeWant(rs, lo, hi); !equalRecords(got, want) {
					t.Errorf("f=%d n=%d [%d,%d]: got %d records, want %d", fanout, n, c.lo, c.hi, len(got), len(want))
				}
			}
		}
	}
}

func TestVerifyRejectsWrongRoot(t *testing.T) {
	tree := Build(recs(100), 8)
	vo := tree.RangeVO(types.Int(10), types.Int(20))
	bad := tree.Root()
	bad[0] ^= 0xFF
	if _, err := Verify(vo, bad, types.Int(10), types.Int(20)); !errors.Is(err, ErrVerify) {
		t.Errorf("wrong root: %v", err)
	}
}

// TestVerifyDetectsEveryBitFlip flips each byte of an honest VO in turn:
// the result is refused, or at least commits to another root.
func TestVerifyDetectsEveryBitFlip(t *testing.T) {
	tree := Build(recs(100), 4)
	lo, hi := types.Int(10), types.Int(20)
	vo := tree.RangeVO(lo, hi)
	for i := range vo {
		bad := slices.Clone(vo)
		bad[i] ^= 0x40
		if _, err := Verify(bad, tree.Root(), lo, hi); err == nil {
			t.Errorf("flipping byte %d of %d went unnoticed", i, len(vo))
		}
	}
	for cut := 0; cut < len(vo); cut++ {
		if _, _, err := Reconstruct(nil, vo[:cut], lo, hi); !errors.Is(err, types.ErrCorrupt) {
			t.Errorf("truncated at %d of %d: %v", cut, len(vo), err)
		}
	}
	if _, _, err := Reconstruct(nil, append(slices.Clone(vo), 0), lo, hi); !errors.Is(err, types.ErrCorrupt) {
		t.Errorf("trailing byte: %v", err)
	}
}

// TestVerifyDetectsWithheldResults plays a server that answers with a
// narrower run than the query needs. Every digest in such a VO is
// correct and the root reconstructs; completeness must fail.
func TestVerifyDetectsWithheldResults(t *testing.T) {
	tree := Build(recs(128), 4)
	lo, hi := types.Int(100), types.Int(140)
	s, end := tree.exposed(lo, hi)
	for _, run := range [][2]int{
		{s + 1, end},       // left boundary record dropped
		{s, end - 1},       // right boundary record dropped
		{s + 2, end},       // first in-range record hidden behind a digest
		{s, end - 2},       // last in-range record hidden
		{s + 3, s + 4},     // a single in-range record
		{0, 1},             // a run nowhere near the range
		{end, end},         // nothing at all
		{end + 2, end + 4}, // beyond it
	} {
		e := types.NewEncoder(512)
		tree.encodeRun(e, run[0], run[1])
		root, _, err := Reconstruct(nil, e.Bytes(), lo, hi)
		if !errors.Is(err, ErrVerify) {
			t.Errorf("run %v: err = %v, root ok = %v", run, err, root == tree.Root())
		}
	}
	// The honest run, and any wider one, pass.
	for _, run := range [][2]int{{s, end}, {s - 3, end + 5}, {0, 128}} {
		e := types.NewEncoder(512)
		tree.encodeRun(e, run[0], run[1])
		got, err := Verify(e.Bytes(), tree.Root(), lo, hi)
		if err != nil || !equalRecords(got, rangeWant(recs(128), lo, hi)) {
			t.Errorf("run %v: %d records, %v", run, len(got), err)
		}
	}
}

// TestVerifyRejectsReordered swaps two exposed records in the encoding.
func TestVerifyRejectsReordered(t *testing.T) {
	rs := recs(64)
	tree := Build(rs, 8)
	lo, hi := types.Int(0), types.Int(126)
	vo := tree.RangeVO(lo, hi) // whole tree exposed
	e := types.NewEncoder(16)
	encodeRecord(e, rs[10])
	a := slices.Clone(e.Bytes())
	e.Reset()
	encodeRecord(e, rs[11])
	b := e.Bytes()
	at := bytes.Index(vo, append(slices.Clone(a), b...))
	if at < 0 {
		t.Fatal("records 10 and 11 not adjacent in the VO")
	}
	bad := slices.Clone(vo)
	copy(bad[at:], b)
	copy(bad[at+len(b):], a)
	if _, err := Verify(bad, tree.Root(), lo, hi); !errors.Is(err, ErrVerify) {
		t.Errorf("reordered VO: %v", err)
	}
}

// TestOldVORefused: a v1 VO (it began with a node tag) and any other
// leading byte are refused as corrupt before anything is hashed.
func TestOldVORefused(t *testing.T) {
	tree := Build(recs(20), 0)
	lo, hi := types.Int(4), types.Int(8)
	vo := tree.RangeVO(lo, hi)
	for ver := 0; ver < 256; ver++ {
		if ver == voVersion {
			continue
		}
		bad := slices.Clone(vo)
		bad[0] = byte(ver)
		if _, _, err := Reconstruct(nil, bad, lo, hi); !errors.Is(err, types.ErrCorrupt) {
			t.Errorf("version byte %#x: %v", ver, err)
		}
	}
	// A v1 exposed-leaf VO: tag 2, uint32 entry count, tag 1, a record.
	v1 := types.NewEncoder(32)
	v1.Uint8(2)
	v1.Count(1)
	v1.Uint8(1)
	v1.Value(types.Int(4))
	v1.Blob([]byte("tx-2"))
	if _, _, err := Reconstruct(nil, v1.Bytes(), lo, hi); !errors.Is(err, types.ErrCorrupt) {
		t.Errorf("v1 VO: %v", err)
	}
}

func TestVOSizeFollowsResult(t *testing.T) {
	// A selective VO must be far smaller than shipping the whole tree,
	// and its flank stays logarithmic: at most 2(f−1) digests a level.
	tree := Build(recs(10000), 4)
	narrow := tree.RangeVO(types.Int(5000), types.Int(5020)).Size()
	full := tree.RangeVO(types.Int(-1), types.Int(1<<30)).Size()
	if narrow*10 > full {
		t.Errorf("narrow VO (%d) not much smaller than full (%d)", narrow, full)
	}
	if levels := 7; narrow > 13*20+levels*2*3*32+16 {
		t.Errorf("narrow VO is %d bytes", narrow)
	}
}

func TestDuplicateKeysVO(t *testing.T) {
	var rs []Record
	for i := 0; i < 60; i++ {
		rs = append(rs, Record{Key: types.Str("org1"), Payload: []byte(fmt.Sprintf("p%d", i))})
	}
	rs = append(rs, Record{Key: types.Str("aaa"), Payload: []byte("low")})
	rs = append(rs, Record{Key: types.Str("zzz"), Payload: []byte("high")})
	tree := Build(rs, 8)
	vo := tree.RangeVO(types.Str("org1"), types.Str("org1"))
	got, err := Verify(vo, tree.Root(), types.Str("org1"), types.Str("org1"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 60 {
		t.Errorf("duplicate-key VO returned %d of 60", len(got))
	}
}

func TestQuickRandomRanges(t *testing.T) {
	rs := recs(256)
	tree := Build(rs, 0)
	root := tree.Root()
	f := func(a, b int16) bool {
		lo, hi := int64(a), int64(b)
		if lo > hi {
			lo, hi = hi, lo
		}
		vo := tree.RangeVO(types.Int(lo), types.Int(hi))
		got, err := Verify(vo, root, types.Int(lo), types.Int(hi))
		if err != nil {
			return false
		}
		return equalRecords(got, rangeWant(rs, types.Int(lo), types.Int(hi)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestServeAndVerifyAllocate pins the point of the layout: producing a
// VO hashes nothing and allocates nothing beyond its buffer; verifying
// one allocates nothing per record or per digest. (Verification is
// allowed a refill of the pooled hashing state, four objects: under the
// race detector sync.Pool drops a quarter of what is put back. The run
// below exposes 22 records, so a per-record allocation cannot hide.)
func TestServeAndVerifyAllocate(t *testing.T) {
	tree := Build(recs(200), 0)
	lo, hi := types.Int(100), types.Int(140)
	e := types.NewEncoder(4096)
	if n := testing.AllocsPerRun(50, func() {
		e.Reset()
		tree.EncodeVO(e, lo, hi)
	}); n != 0 {
		t.Errorf("EncodeVO allocates %v times", n)
	}
	vo := tree.RangeVO(lo, hi)
	dst := make([]Record, 0, 64)
	if n := testing.AllocsPerRun(50, func() {
		if _, _, err := Reconstruct(dst, vo, lo, hi); err != nil {
			t.Fatal(err)
		}
	}); n > 4 {
		t.Errorf("Reconstruct allocates %v times", n)
	}
}
