package storage

import (
	"bytes"
	"testing"
)

// fuzzBody is the block every fuzzed payload claims to hold: the store
// knows its raw length and transaction offsets from the chain, whatever
// the record bytes say.
func fuzzBody(tb testing.TB) (body []byte, txOffs []uint32) {
	body = mkBlock(nil, 1, 300).EncodeBytes()
	_, txOffs, err := decodeBlockOffsets(body)
	if err != nil {
		tb.Fatal(err)
	}
	return body, txOffs
}

// FuzzInflateRecord feeds arbitrary bytes to the compressed-record read
// path as the payload of a record for a block of known shape. It must
// never panic, never size its scratch past what the framing checks
// allow — the block's raw length once the record has been held to the
// block's shape, DEFLATE's expansion limit otherwise — and whatever it
// does return must have the length asked for, with partial reads
// agreeing with the whole body. Fuzz it with
// -fuzzminimizetime 0: the engine's minimizer stalls for its full
// budget on every multi-kilobyte payload it finds interesting.
func FuzzInflateRecord(f *testing.F) {
	body, txOffs := fuzzBody(f)
	d := deflaters.Get().(*deflater)
	chunkedPayload, ok := d.deflateBody(body, txOffs)
	if !ok {
		f.Fatal("seed body did not compress")
	}
	chunkedPayload = append([]byte(nil), chunkedPayload...)
	oneChunk, ok := d.deflateBody(body, txOffs[len(txOffs)-1:]) // no cut points
	if !ok {
		f.Fatal("seed body did not compress")
	}
	oneChunk = append([]byte(nil), oneChunk...)
	f.Add(chunkedPayload, uint32(0), uint32(len(body)))
	f.Add(oneChunk, uint32(0), uint32(len(body)))
	f.Add(chunkedPayload, txOffs[150], txOffs[151])
	f.Add(chunkedPayload[:len(chunkedPayload)/2], uint32(0), uint32(1))
	f.Add([]byte{0x3f, 0xff, 0xff, 0xff, 0x00, 0x01}, uint32(0), uint32(1))

	f.Fuzz(func(t *testing.T, payload []byte, from, to uint32) {
		z, err := parseChunked(payload)
		if err != nil {
			return
		}
		known := z.check(int64(len(body)), txOffs) == nil
		if !known && z.rawLen > 1<<20 {
			// The recovery scan has only DEFLATE's expansion limit to
			// hold such a record to; legal, but too slow to fuzz through.
			return
		}
		c := new(inflater)
		whole, wholeErr := c.inflate(&z, 0, z.rawLen)
		if known && cap(c.raw) > len(body) {
			t.Fatalf("scratch of %d bytes for a block of %d", cap(c.raw), len(body))
		}
		if cap(c.raw) > maxInflateRatio*len(payload) {
			t.Fatalf("scratch of %d bytes from a payload of %d", cap(c.raw), len(payload))
		}
		if wholeErr != nil {
			return
		}
		if len(whole) != int(z.rawLen) {
			t.Fatalf("inflated %d bytes, record declares %d", len(whole), z.rawLen)
		}
		whole = append([]byte(nil), whole...)
		part, err := c.inflate(&z, from, to)
		if err != nil {
			if from < to && to <= z.rawLen {
				t.Fatalf("range [%d, %d) of an intact record: %v", from, to, err)
			}
			return
		}
		if !bytes.Equal(part, whole[from:to]) {
			t.Fatalf("range [%d, %d) differs from the whole body", from, to)
		}
	})
}
