package types

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// blockOffsets walks a body the way the block store does when it
// records transaction offsets: header, count, one SkipTransaction per
// transaction, and a final sentinel.
func blockOffsets(body []byte) ([]uint32, error) {
	d := NewDecoder(body)
	if _, err := DecodeBlockHeader(d); err != nil {
		return nil, err
	}
	n, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	if int(n) > d.Remaining() {
		return nil, ErrCorrupt
	}
	offs := make([]uint32, n+1)
	for i := range offs[:n] {
		offs[i] = uint32(d.Offset())
		if err := SkipTransaction(d); err != nil {
			return nil, err
		}
	}
	offs[n] = uint32(d.Offset())
	return offs, nil
}

// u32s packs offsets big-endian, the form FuzzFilterBlock takes foreign
// offsets in.
func u32s(offs []uint32) []byte {
	var out []byte
	for _, o := range offs {
		out = binary.BigEndian.AppendUint32(out, o)
	}
	return out
}

// FuzzFilterBlock holds FilterBlock to DecodeBlock on arbitrary bytes.
// With the offsets the store would record, the filter accepts exactly
// when DecodeBlock does, shows keep each of DecodeBlock's transactions
// in order, and returns exactly those keep accepted. With any other
// offsets (alt, read as big-endian uint32s) it never accepts a body
// DecodeBlock refuses, and what it returns is still DecodeBlock's.
//
//	go test -run '^$' -fuzz FuzzFilterBlock -fuzztime 30s -fuzzminimizetime 0 ./internal/types
func FuzzFilterBlock(f *testing.F) {
	signed := sampleTx(9)
	signed.Sign(testKey(f))
	every := &Transaction{Tid: 1 << 40, Ts: -1, Tname: "t", Args: []Value{
		Null, Str(""), Str("x"), Int(-3), Dec(math.Copysign(0, -1)), Dec(math.NaN()), Bool(true), Time(42),
	}}
	full := sampleBlock(f, nil, 1, 6)
	full.Txs = append(full.Txs, signed, every)
	for _, b := range []*Block{full, sampleBlock(f, nil, 1, 0), sampleBlock(f, nil, 3, 1)} {
		body := b.EncodeBytes()
		offs, err := blockOffsets(body)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body, uint64(0b10110101), u32s(offs))
		f.Add(body, ^uint64(0), u32s(offs[:len(offs)-1]))
		f.Add(body[:len(body)-1], uint64(1), u32s(offs))
		f.Add(append(body[:len(body):len(body)], 0xFF), uint64(2), []byte(nil))
	}
	f.Fuzz(func(t *testing.T, body []byte, mask uint64, alt []byte) {
		want, derr := DecodeBlock(NewDecoder(body))
		run := func(offs []uint32) ([]*Transaction, error) {
			i := 0
			return FilterBlock(body, offs, func(tx *Transaction) (bool, error) {
				if derr == nil && (i >= len(want.Txs) || !bytes.Equal(tx.EncodeBytes(), want.Txs[i].EncodeBytes())) {
					t.Fatalf("keep saw transaction %d unlike DecodeBlock's", i)
				}
				i++
				return mask>>(uint(i-1)%64)&1 == 1, nil
			})
		}
		check := func(got []*Transaction) {
			var kept [][]byte
			for i, tx := range want.Txs {
				if mask>>(uint(i)%64)&1 == 1 {
					kept = append(kept, tx.EncodeBytes())
				}
			}
			if len(got) != len(kept) {
				t.Fatalf("FilterBlock kept %d transactions, DecodeBlock's filtered %d", len(got), len(kept))
			}
			for i, tx := range got {
				if !bytes.Equal(tx.EncodeBytes(), kept[i]) {
					t.Fatalf("kept transaction %d differs from DecodeBlock's", i)
				}
			}
		}

		if offs, oerr := blockOffsets(body); oerr == nil {
			got, ferr := run(offs)
			if (ferr == nil) != (derr == nil) {
				t.Fatalf("DecodeBlock err %v, FilterBlock with the store's offsets err %v", derr, ferr)
			}
			if ferr == nil {
				check(got)
			}
		} else if derr == nil {
			t.Fatalf("DecodeBlock accepts a body the offset walk refuses: %v", oerr)
		}

		foreign := make([]uint32, len(alt)/4)
		for i := range foreign {
			foreign[i] = binary.BigEndian.Uint32(alt[4*i:])
		}
		got, ferr := run(foreign)
		if ferr == nil {
			if derr != nil {
				t.Fatalf("FilterBlock accepted a body DecodeBlock refuses (%v)", derr)
			}
			check(got)
		}
	})
}

// TestFilterBlockAllocatesPerBlock: a filter that keeps nothing costs a
// handful of allocations per block, however many transactions the
// block holds — the scratch transaction and its value slice, no string,
// blob or transaction per row.
func TestFilterBlockAllocatesPerBlock(t *testing.T) {
	for _, n := range []int{4, 64} {
		body := sampleBlock(t, nil, 1, n).EncodeBytes()
		offs, err := blockOffsets(body)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			got, err := FilterBlock(body, offs, func(*Transaction) (bool, error) { return false, nil })
			if err != nil || len(got) != 0 {
				t.Fatalf("FilterBlock: %d rows, %v", len(got), err)
			}
		})
		if allocs > 3 {
			t.Errorf("%d transactions, none kept: %.0f allocations, want at most 3", n, allocs)
		}
	}
}

// TestFilterBlockRowsOwnTheirBytes: the scratch keep sees aliases the
// body, the rows FilterBlock returns do not — overwriting the body
// afterwards leaves every returned row as it was.
func TestFilterBlockRowsOwnTheirBytes(t *testing.T) {
	b := sampleBlock(t, nil, 1, 5)
	b.Txs[2].Sign(testKey(t))
	body := b.EncodeBytes()
	offs, err := blockOffsets(body)
	if err != nil {
		t.Fatal(err)
	}
	got, err := FilterBlock(body, offs, func(tx *Transaction) (bool, error) { return tx.Tid%2 == 1, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i := range body {
		body[i] = 0xA5
	}
	if len(got) != 3 {
		t.Fatalf("kept %d rows, want 3", len(got))
	}
	for i, tx := range got {
		if want := b.Txs[2*i].EncodeBytes(); !bytes.Equal(tx.EncodeBytes(), want) {
			t.Errorf("row %d changed when the body was overwritten", i)
		}
	}
}
