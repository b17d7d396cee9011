package types

import (
	"math"
	"testing"
)

// FuzzSkipTransaction holds SkipTransaction to DecodeTransaction on
// arbitrary bytes: both accept or both refuse, and on acceptance both
// consume the same prefix. The block store takes its transaction
// offsets from the walk, so a disagreement would make a torn or
// corrupt body look valid to recovery — or a valid one torn.
//
//	go test -run '^$' -fuzz FuzzSkipTransaction -fuzztime 30s -fuzzminimizetime 0 ./internal/types
func FuzzSkipTransaction(f *testing.F) {
	signed := sampleTx(7)
	signed.Sign(testKey(f))
	every := &Transaction{Tid: 1 << 40, Ts: -1, SenID: "", Tname: "t", Args: []Value{
		Null, Str(""), Str("x"), Int(-3), Dec(math.Copysign(0, -1)), Dec(math.NaN()), Bool(true), Time(42),
	}}
	for _, tx := range []*Transaction{sampleTx(1), signed, every} {
		enc := tx.EncodeBytes()
		f.Add(enc)
		f.Add(enc[:len(enc)-1])                      // torn inside the last value
		f.Add(append(enc[:len(enc):len(enc)], 0xFF)) // trailing garbage after a whole transaction
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		dec := NewDecoder(in)
		_, derr := DecodeTransaction(dec)
		skip := NewDecoder(in)
		serr := SkipTransaction(skip)
		if (derr == nil) != (serr == nil) {
			t.Fatalf("DecodeTransaction err %v, SkipTransaction err %v", derr, serr)
		}
		if derr == nil && dec.Offset() != skip.Offset() {
			t.Fatalf("DecodeTransaction consumed %d bytes, SkipTransaction %d", dec.Offset(), skip.Offset())
		}
	})
}

// TestSkipTransactionAllocatesNothing: walking a valid transaction
// builds nothing — no strings, no blobs, no value slice.
func TestSkipTransactionAllocatesNothing(t *testing.T) {
	tx := sampleTx(1)
	tx.Sign(testKey(t))
	enc := tx.EncodeBytes()
	allocs := testing.AllocsPerRun(100, func() {
		if err := SkipTransaction(NewDecoder(enc)); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("SkipTransaction allocated %.0f times per walk, want 0", allocs)
	}
}
