package auth

import (
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"sebdb/internal/index/layered"
	"sebdb/internal/mbtree"
	"sebdb/internal/types"
)

// rowsPerBlock gives every fixture block a four-level tree at fan-out 4.
const rowsPerBlock = 70

// fixture is a continuous ALI whose blocks overlap in key space (block b
// holds amounts b*20 .. b*20+69), so a range visits several blocks, and
// the rows behind it for the brute-force filter.
type fixture struct {
	ali  *ALI
	rows [][]mbtree.Record // per block, in block order
}

func newFixture(blocks int) *fixture {
	fx := &fixture{}
	var sample []float64
	for i := 0; i < blocks*20+rowsPerBlock; i++ {
		sample = append(sample, float64(i))
	}
	fx.ali = NewContinuous("amount", layered.NewEqualDepth(sample, 16), 0)
	tid := uint64(1)
	for b := 0; b < blocks; b++ {
		var recs []mbtree.Record
		for i := 0; i < rowsPerBlock; i++ {
			amount := types.Dec(float64(b*20 + i))
			tx := &types.Transaction{Tid: tid, Ts: int64(tid), SenID: "org1", Tname: "donate",
				Args: []types.Value{amount}}
			tid++
			recs = append(recs, mbtree.Record{Key: amount, Payload: tx.EncodeBytes()})
		}
		fx.rows = append(fx.rows, recs)
		fx.ali.AppendBlock(uint64(b), recs)
	}
	return fx
}

// want is the brute-force answer: the Tids of every row of the first
// height blocks with lo <= amount <= hi.
func (fx *fixture) want(height uint64, lo, hi types.Value) []uint64 {
	var tids []uint64
	for _, recs := range fx.rows[:height] {
		for _, r := range recs {
			if types.Compare(r.Key, lo) >= 0 && types.Compare(r.Key, hi) <= 0 {
				tx, _ := types.DecodeTransaction(types.NewDecoder(r.Payload))
				tids = append(tids, tx.Tid)
			}
		}
	}
	slices.Sort(tids)
	return tids
}

// accepted plays the thin client: the answer verifies locally and its
// digest is the one an honest auxiliary computes for the same query at
// the height the answer claims. It returns the verified Tids.
func (fx *fixture) accepted(ans *Answer, lo, hi types.Value) ([]uint64, bool) {
	digest, txs, err := VerifyAnswer(ans, lo, hi)
	if err != nil || ans.Height > uint64(len(fx.rows)) ||
		digest != Digest(fx.ali, ans.Height, nil, lo, hi) {
		return nil, false
	}
	tids := make([]uint64, len(txs))
	for i, tx := range txs {
		tids[i] = tx.Tid
	}
	slices.Sort(tids)
	return tids, true
}

// clone copies an answer deeply enough to tamper with.
func clone(ans *Answer) *Answer {
	out := *ans
	out.Blocks = slices.Clone(ans.Blocks)
	return &out
}

// TestAdversarialAnswers starts from honest answers and applies what a
// lying full node can do without breaking SHA-256: mutate, truncate,
// extend, reorder, omit and duplicate block VOs, splice in honest VOs
// made for another range (a narrower one hides in-range records behind
// correct digests and drops boundary records), another block or another
// height, lie about the height, or fall back to the old encoding. Every
// forgery must be refused outright or fail the digest comparison — or
// be no forgery at all and still verify to the true rows.
func TestAdversarialAnswers(t *testing.T) {
	const blocks = 12
	fx := newFixture(blocks)
	rng := rand.New(rand.NewSource(18))
	serve := func(h uint64, lo, hi float64) *Answer {
		return Serve(fx.ali, h, nil, types.Dec(lo), types.Dec(hi))
	}
	refused := map[string]int{}
	for round := 0; round < 300; round++ {
		a := float64(rng.Intn(blocks*20 + rowsPerBlock))
		b := a + float64(rng.Intn(60))
		lo, hi := types.Dec(a), types.Dec(b)
		honest := serve(blocks, a, b)
		want := fx.want(blocks, lo, hi)
		if got, ok := fx.accepted(honest, lo, hi); !ok || !slices.Equal(got, want) {
			t.Fatalf("[%g, %g]: honest answer refused or wrong (%d rows, want %d)", a, b, len(got), len(want))
		}
		if len(honest.Blocks) < 2 {
			continue
		}
		pick := func() int { return rng.Intn(len(honest.Blocks)) }
		// Honest material for the same blocks, made for another query.
		narrower := serve(blocks, a+1+float64(rng.Intn(5)), b-float64(rng.Intn(5)))
		lower := serve(blocks-1-uint64(rng.Intn(3)), a, b)
		forged := []struct {
			name  string
			forge func(ans *Answer)
		}{
			{"flip a byte", func(ans *Answer) {
				i := pick()
				vo := slices.Clone(ans.Blocks[i].Bytes)
				vo[rng.Intn(len(vo))] ^= byte(1 << rng.Intn(8))
				ans.Blocks[i].Bytes = vo
			}},
			{"truncate a VO", func(ans *Answer) {
				i := pick()
				ans.Blocks[i].Bytes = ans.Blocks[i].Bytes[:rng.Intn(len(ans.Blocks[i].Bytes))]
			}},
			{"extend a VO", func(ans *Answer) {
				i := pick()
				ans.Blocks[i].Bytes = append(slices.Clone(ans.Blocks[i].Bytes), byte(rng.Intn(256)))
			}},
			{"swap two block VOs", func(ans *Answer) {
				i := rng.Intn(len(ans.Blocks) - 1)
				ans.Blocks[i], ans.Blocks[i+1] = ans.Blocks[i+1], ans.Blocks[i]
			}},
			{"swap two VOs under their block ids", func(ans *Answer) {
				i := rng.Intn(len(ans.Blocks) - 1)
				ans.Blocks[i].Bytes, ans.Blocks[i+1].Bytes = ans.Blocks[i+1].Bytes, ans.Blocks[i].Bytes
			}},
			{"omit a candidate block", func(ans *Answer) {
				i := pick()
				ans.Blocks = slices.Delete(ans.Blocks, i, i+1)
			}},
			{"send a block twice", func(ans *Answer) {
				i := pick()
				ans.Blocks = slices.Insert(ans.Blocks, i, ans.Blocks[i])
			}},
			{"splice a VO made for a narrower range", func(ans *Answer) {
				for i := range ans.Blocks {
					for _, n := range narrower.Blocks {
						if n.Bid == ans.Blocks[i].Bid && rng.Intn(2) == 0 {
							ans.Blocks[i].Bytes = n.Bytes
						}
					}
				}
			}},
			{"answer a narrower range", func(ans *Answer) { *ans = *clone(narrower) }},
			{"replay the answer of a lower height", func(ans *Answer) {
				ans.Blocks = slices.Clone(lower.Blocks)
			}},
			{"claim a lower height", func(ans *Answer) { ans.Height = lower.Height }},
			{"claim a height beyond the chain", func(ans *Answer) { ans.Height += 1 + uint64(rng.Intn(3)) }},
			{"renumber a block", func(ans *Answer) {
				i := pick()
				ans.Blocks[i].Bid += 1 + uint64(rng.Intn(3))
			}},
			{"send a v1 VO", func(ans *Answer) {
				v1 := types.NewEncoder(64)
				v1.Uint8(2) // exposed leaf
				v1.Count(1)
				v1.Uint8(1) // full record
				v1.Value(lo)
				v1.Blob(fx.rows[0][0].Payload)
				ans.Blocks[pick()].Bytes = v1.Bytes()
			}},
		}
		for _, f := range forged {
			ans := clone(honest)
			f.forge(ans)
			got, ok := fx.accepted(ans, lo, hi)
			if !ok {
				refused[f.name]++
				continue
			}
			// Accepted: then it must be the truth at the height it claims
			// (claiming a lower height is a stale answer, not a false one;
			// a narrower VO that exposes the same run is no forgery).
			if want := fx.want(ans.Height, lo, hi); !slices.Equal(got, want) {
				t.Errorf("[%g, %g] %s: accepted %d rows, the chain holds %d", a, b, f.name, len(got), len(want))
			}
		}
	}
	// Every kind of forgery must have bitten: one that is always accepted
	// as the truth tests nothing.
	for _, name := range []string{"flip a byte", "truncate a VO", "extend a VO", "swap two block VOs",
		"swap two VOs under their block ids", "omit a candidate block", "send a block twice",
		"splice a VO made for a narrower range", "answer a narrower range",
		"replay the answer of a lower height", "claim a lower height",
		"claim a height beyond the chain", "renumber a block", "send a v1 VO"} {
		if refused[name] < 20 {
			t.Errorf("%q was refused %d times in 300 rounds", name, refused[name])
		}
	}
}

// TestOldAnswerRefused: the v1 reply frame (big-endian height, block
// count, fixed-width block ids, v1 VOs) is refused as corrupt.
func TestOldAnswerRefused(t *testing.T) {
	v1 := types.NewEncoder(64)
	v1.Uint64(7)
	v1.Count(1)
	v1.Uint64(3)
	v1.Blob([]byte{0, 1, 2, 3})
	if _, err := DecodeAnswer(v1.Bytes()); !errors.Is(err, types.ErrCorrupt) {
		t.Errorf("v1 answer: %v", err)
	}
	fx := newFixture(3)
	wire := Serve(fx.ali, 3, nil, types.Dec(10), types.Dec(30)).Wire()
	for cut := 0; cut < len(wire); cut++ {
		ans, err := DecodeAnswer(wire[:cut])
		if err == nil {
			// A cut on a block boundary is a shorter answer, caught by the digest.
			if _, ok := fx.accepted(ans, types.Dec(10), types.Dec(30)); ok {
				t.Fatalf("answer truncated at %d of %d accepted", cut, len(wire))
			}
		} else if !errors.Is(err, types.ErrCorrupt) {
			t.Fatalf("answer truncated at %d: %v", cut, err)
		}
	}
}

// FuzzVerifyAnswer decodes arbitrary bytes as a reply and verifies it
// against a fixed chain. No input may panic or make the client allocate
// beyond a multiple of its length, and an input the client would accept
// (it verifies and an honest auxiliary confirms its digest) must carry
// exactly the rows the chain holds in range at the claimed height.
func FuzzVerifyAnswer(f *testing.F) {
	fx := newFixture(8)
	for _, q := range [][2]float64{{30, 45}, {0, 5}, {150, 400}, {-5, 1000}, {33.5, 33.6}, {500, 600}} {
		ans := Serve(fx.ali, 8, nil, types.Dec(q[0]), types.Dec(q[1]))
		wire := ans.Wire()
		f.Add(wire, q[0], q[1])
		f.Add(wire, q[0]-3, q[1]+3) // offered for a wider range than it was made for
		f.Add(wire[:len(wire)*2/3], q[0], q[1])
		flipped := slices.Clone(wire)
		flipped[len(flipped)/2] ^= 4
		f.Add(flipped, q[0], q[1])
		f.Add(Serve(fx.ali, 5, nil, types.Dec(q[0]), types.Dec(q[1])).Wire(), q[0], q[1])
	}
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 8, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 1, 0}, 0.0, 9.0) // v1 frame

	f.Fuzz(func(t *testing.T, wire []byte, a, b float64) {
		lo, hi := types.Dec(a), types.Dec(b)
		var got []uint64
		var ans *Answer
		var ok bool
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ans, err := DecodeAnswer(wire)
		if err == nil {
			got, ok = fx.accepted(ans, lo, hi)
		}
		runtime.ReadMemStats(&after)
		if n, limit := after.TotalAlloc-before.TotalAlloc, uint64(512*len(wire)+1<<16); n > limit {
			t.Fatalf("%d-byte answer made the client allocate %d bytes", len(wire), n)
		}
		if !ok {
			return
		}
		if want := fx.want(ans.Height, lo, hi); !slices.Equal(got, want) {
			t.Fatalf("accepted %d rows for [%g, %g] at height %d, the chain holds %d", len(got), a, b, ans.Height, len(want))
		}
	})
}
