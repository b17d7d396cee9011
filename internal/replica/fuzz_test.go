package replica

import (
	"bytes"
	"crypto/ed25519"
	"math"
	"runtime"
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

// pushFrame renders a KindBlockPush payload as Leader.push does.
func pushFrame(leaderH uint64, blockBytes []byte) []byte {
	e := types.NewEncoder(12 + len(blockBytes))
	e.Uint64(leaderH)
	e.Blob(blockBytes)
	return e.Bytes()
}

// FuzzDecodePush feeds arbitrary bytes to the one catch-up decoder: the
// push frame split (decodePush) and the block decoder every pushed body
// goes through before it is verified. Neither may panic or allocate
// beyond a multiple of its input — every count is held to the bytes
// that remain — and whatever either accepts must survive decode∘encode
// unchanged. The block decoder sees both the raw input and the body a
// push frame carried, so a mutator reaches it with and without framing.
//
//	go test -run '^$' -fuzz FuzzDecodePush -fuzztime 30s -fuzzminimizetime 0 ./internal/replica
func FuzzDecodePush(f *testing.F) {
	_, priv, err := ed25519.GenerateKey(nil)
	if err != nil {
		f.Fatal(err)
	}
	tx := &types.Transaction{Tid: 1, Ts: 1000, SenID: "org0", Tname: "donate", Args: []types.Value{
		types.Null, types.Str("donor01"), types.Int(-3), types.Dec(math.NaN()), types.Bool(true), types.Time(42),
	}}
	tx.Sign(priv)
	genesis := types.NewBlock(nil, []*types.Transaction{tx}, 1000, "node0")
	next := types.NewBlock(&genesis.Header, nil, 2000, "node0")
	for _, raw := range [][]byte{genesis.EncodeBytes(), next.EncodeBytes()} {
		f.Add(pushFrame(7, raw))
		f.Add(raw)
		f.Add(pushFrame(7, raw[:len(raw)/2])) // a torn body
	}
	f.Add(pushFrame(7, nil))                                                  // a heartbeat
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 7})                                     // no blob length
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 7, 0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3, 4}) // a blob claiming 4 GiB

	f.Fuzz(func(t *testing.T, data []byte) {
		limit := uint64(256*len(data) + 1<<16)
		var leaderH uint64
		var body []byte
		var err error
		if n := allocated(func() { leaderH, body, err = decodePush(data) }); n > limit {
			t.Fatalf("a %d-byte push made decodePush allocate %d bytes", len(data), n)
		}
		if err == nil {
			h, b, err := decodePush(pushFrame(leaderH, body))
			if err != nil || h != leaderH || !bytes.Equal(b, body) || (b == nil) != (body == nil) {
				t.Fatalf("decode∘encode changed an accepted push: (%d, %x) -> (%d, %x), %v", leaderH, body, h, b, err)
			}
		}
		for _, raw := range [][]byte{data, body} {
			if raw == nil {
				continue
			}
			var blk *types.Block
			if n := allocated(func() { blk, err = types.DecodeBlock(types.NewDecoder(raw)) }); n > limit {
				t.Fatalf("a %d-byte body made DecodeBlock allocate %d bytes", len(raw), n)
			}
			if err != nil {
				continue
			}
			enc := blk.EncodeBytes()
			again, err := types.DecodeBlock(types.NewDecoder(enc))
			if err != nil {
				t.Fatalf("the re-encoding of an accepted block is refused: %v", err)
			}
			if !bytes.Equal(again.EncodeBytes(), enc) || again.Header.Hash() != blk.Header.Hash() {
				t.Fatal("decode∘encode changed an accepted block")
			}
		}
	})
}
