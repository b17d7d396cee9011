package storage

import (
	"bytes"
	"compress/flate"
	"io"
	"math/bits"
	"testing"

	"sebdb/internal/types"
)

// flateChunk is the reference decoder: compress/flate's reader held to
// the rule every chunk obeys — fill rawLen bytes exactly, then report
// EOF with every stored byte consumed.
func flateChunk(stored []byte, rawLen int) ([]byte, bool) {
	src := bytes.NewReader(stored)
	fr := flate.NewReader(src)
	out := make([]byte, rawLen)
	if _, err := io.ReadFull(fr, out); err != nil {
		return nil, false
	}
	var one [1]byte
	if n, err := fr.Read(one[:]); n != 0 || err != io.EOF || src.Len() != 0 {
		return nil, false
	}
	return out, true
}

// checkChunk inflates stored with d into rawLen bytes followed by a
// guard tail and fails t unless d agrees with flateChunk — on the
// verdict and on every byte — and left the tail alone. It returns the
// verdict.
func checkChunk(t *testing.T, d *decoder, stored []byte, rawLen int) bool {
	t.Helper()
	const guard = 64
	want, ok := flateChunk(stored, rawLen)
	buf := bytes.Repeat([]byte{0xa5}, rawLen+guard)
	err := d.inflate(buf[:rawLen], stored)
	if (err == nil) != ok {
		t.Fatalf("%d stored bytes into %d raw: decoder says %v, compress/flate accepts: %v", len(stored), rawLen, err, ok)
	}
	if !bytes.Equal(buf[rawLen:], bytes.Repeat([]byte{0xa5}, guard)) {
		t.Fatalf("%d stored bytes into %d raw: decoder wrote past its output", len(stored), rawLen)
	}
	if ok && !bytes.Equal(buf[:rawLen], want) {
		t.Fatalf("%d stored bytes into %d raw: output differs from compress/flate's", len(stored), rawLen)
	}
	return ok
}

// deflateAt compresses raw as one stream at level.
func deflateAt(tb testing.TB, raw []byte, level int) []byte {
	var buf bytes.Buffer
	w, err := flate.NewWriter(&buf, level)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := w.Write(raw); err != nil {
		tb.Fatal(err)
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// storeChunks returns the deflater's own chunks of a compressed record
// of body, with their raw lengths.
func storeChunks(tb testing.TB, body []byte, txOffs []uint32) (stored [][]byte, raw []int) {
	d := deflaters.Get().(*deflater)
	defer deflaters.Put(d)
	payload, ok := d.deflateBody(body, txOffs)
	if !ok {
		tb.Fatal("body did not compress")
	}
	z, err := openChunked(append([]byte(nil), payload...), int64(len(body)), txOffs)
	if err != nil {
		tb.Fatal(err)
	}
	rawStart, storedStart := uint32(0), z.first
	for i := 0; i < z.n; i++ {
		rawEnd, storedEnd := z.entry(i)
		stored = append(stored, z.payload[storedStart:storedEnd])
		raw = append(raw, int(rawEnd-rawStart))
		rawStart, storedStart = rawEnd, storedEnd
	}
	return stored, raw
}

// skewedBytes returns bytes whose frequencies fall off like the
// Fibonacci numbers, so Huffman-only streams of them carry codes of the
// full 15 bits: longer than the decoder's fast tables.
func skewedBytes() []byte {
	var out []byte
	a, b := 1, 1
	for sym := 0; sym < 17; sym++ {
		out = append(out, bytes.Repeat([]byte{byte(sym)}, a)...)
		a, b = b, a+b
	}
	// Interleave, so nothing but the Huffman code can shrink it.
	for i := range out {
		j := (i * 7919) % len(out)
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// TestInflateChunkMatchesFlate holds the decoder to compress/flate on
// the store's own chunks and on streams of every level, each also
// truncated, extended by a byte, with a bit flipped and with its raw
// length off by one.
func TestInflateChunkMatchesFlate(t *testing.T) {
	body, txOffs := fuzzBody(t)
	stored, raw := storeChunks(t, body, txOffs)
	skewed := skewedBytes()
	for level := flate.HuffmanOnly; level <= flate.BestCompression; level++ {
		for _, in := range [][]byte{body[:chunkTarget], skewed} {
			stored = append(stored, deflateAt(t, in, level))
			raw = append(raw, len(in))
		}
	}
	d := new(decoder)
	checkChunk(t, d, deflateAt(t, skewed, flate.HuffmanOnly), len(skewed))
	long := false
	for n := litBits + 1; n <= maxCodeLen; n++ {
		long = long || d.lit.count[n] != 0
	}
	if !long {
		t.Fatal("no literal/length code is longer than the fast table: the walk went untested")
	}
	for i, s := range stored {
		if !checkChunk(t, d, s, raw[i]) {
			t.Fatalf("stream %d: compress/flate refuses it", i)
		}
		checkChunk(t, d, s[:len(s)-1], raw[i])
		checkChunk(t, d, append(s[:len(s):len(s)], 0), raw[i])
		checkChunk(t, d, s, raw[i]-1)
		checkChunk(t, d, s, raw[i]+1)
		for bit := i % 7; bit < 8*len(s); bit += 8*len(s)/40 + 1 {
			flipped := append([]byte(nil), s...)
			flipped[bit/8] ^= 1 << (bit % 8)
			checkChunk(t, d, flipped, raw[i])
		}
	}
}

// bitWriter builds DEFLATE streams bit by bit, LSB first.
type bitWriter struct {
	out []byte
	acc uint64
	n   uint
}

func (w *bitWriter) bits(v uint64, n uint) *bitWriter {
	w.acc |= v << w.n
	for w.n += n; w.n >= 8; w.n -= 8 {
		w.out = append(w.out, byte(w.acc))
		w.acc >>= 8
	}
	return w
}

// code writes a Huffman code of n bits, most significant bit first.
func (w *bitWriter) code(c uint16, n uint8) *bitWriter {
	return w.bits(uint64(bits.Reverse16(c)>>(16-n)), uint(n))
}

// bytes pads the last byte with zero bits and returns the stream.
func (w *bitWriter) bytes() []byte {
	if w.n > 0 {
		w.bits(0, 8-w.n)
	}
	return w.out
}

// canonical returns the canonical code of every symbol of lengths.
func canonical(lengths []uint8) []uint16 {
	var count, next [maxCodeLen + 1]uint16
	for _, n := range lengths {
		count[n]++
	}
	count[0] = 0
	for n, code := 1, uint16(0); n <= maxCodeLen; n++ {
		code = (code + count[n-1]) << 1
		next[n] = code
	}
	codes := make([]uint16, len(lengths))
	for s, n := range lengths {
		if n != 0 {
			codes[s] = next[n]
			next[n]++
		}
	}
	return codes
}

// code is a Huffman code under construction for the edge cases.
type code struct {
	lens  []uint8
	codes []uint16
}

func newCode(lens []uint8) code { return code{lens, canonical(lens)} }

func (c code) put(w *bitWriter, sym int) *bitWriter { return w.code(c.codes[sym], c.lens[sym]) }

var (
	// clenCode is a complete code-length code: 13 symbols of 4 bits and
	// 6 of 5.
	clenCode = newCode([]uint8{4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 5, 5, 5, 5, 5, 5})
	// fixedLitCode and fixedDistCode are RFC 1951's fixed codes.
	fixedLitCode, fixedDistCode = func() (code, code) {
		lit, dist := make([]uint8, 288), bytes.Repeat([]byte{5}, 32)
		for i := range lit {
			switch {
			case i < 144:
				lit[i] = 8
			case i < 256:
				lit[i] = 9
			case i < 280:
				lit[i] = 7
			default:
				lit[i] = 8
			}
		}
		return newCode(lit), newCode(dist)
	}()
)

// dynamic starts a final dynamic block with nlit and ndist codes and the
// complete code-length code.
func dynamic(nlit, ndist int) *bitWriter {
	w := new(bitWriter).bits(1, 1).bits(2, 2)
	w.bits(uint64(nlit-257), 5).bits(uint64(ndist-1), 5).bits(numCLen-4, 4)
	for _, s := range codeOrder {
		w.bits(uint64(clenCode.lens[s]), 3)
	}
	return w
}

// lengths writes code lengths: a length 0–15 as itself, -n as a run of n
// zeros in runs of code 18 (each piece must come to at least 11).
func lengths(w *bitWriter, lens ...int) *bitWriter {
	for _, l := range lens {
		if l >= 0 {
			clenCode.put(w, l)
			continue
		}
		for n := -l; n > 0; {
			run := min(n, 138)
			clenCode.put(w, 18).bits(uint64(run-11), 7)
			n -= run
		}
	}
	return w
}

// litCode returns the literal/length code lengths of a 258-symbol block
// with the given symbols all at length 2.
func litCode(syms ...int) []uint8 {
	l := make([]uint8, 258)
	for _, s := range syms {
		l[s] = 2
	}
	return l
}

// block ends a block: the given symbols of lit, then the end of block.
func block(w *bitWriter, lit code, syms ...int) []byte {
	for _, s := range syms {
		lit.put(w, s)
	}
	return lit.put(w, 256).bytes()
}

// edgeCase is a stream at the edge of what compress/flate accepts, with
// the verdict both decoders must reach.
type edgeCase struct {
	name   string
	stored []byte
	rawLen int
	accept bool
}

// edgeCases returns the edge cases; FuzzInflateChunk's checked-in
// seeds hold the same streams.
func edgeCases(tb testing.TB) []edgeCase {
	body, txOffs := fuzzBody(tb)
	stored, raw := storeChunks(tb, body, txOffs)
	chunk, rawLen := stored[0], raw[0]

	// ab codes 'a', 'b', the end of block and length 3 in two bits each.
	ab := newCode(litCode('a', 'b', 256, 257))
	// abDyn is a dynamic block of nlit and ndist codes whose lengths
	// (after the code-length code) make ab and the given distance code,
	// holding "a" and a match of length 3 at distance code bit distBit.
	abDyn := func(nlit, ndist int, distBit uint64, lens ...int) []byte {
		w := lengths(dynamic(nlit, ndist), append([]int{-'a', 2, 2, -(256 - 'c'), 2, 2}, lens...)...)
		ab.put(w, 'a')
		ab.put(w, 257)
		return block(w.bits(distBit, 1), ab)
	}
	fixed := func() *bitWriter { return new(bitWriter).bits(1, 1).bits(1, 2) }
	// aaaa is "a" then a match of length 3 at fixed distance code dist.
	aaaa := func(dist int) []byte {
		w := fixedLitCode.put(fixed(), 'a')
		fixedLitCode.put(w, 257)
		return block(fixedDistCode.put(w, dist), fixedLitCode)
	}
	stored3 := func(nlen uint16) []byte {
		return append(new(bitWriter).bits(1, 1).bits(0, 2).bytes(), 3, 0, byte(nlen), byte(nlen>>8), 'a', 'b', 'c')
	}

	return []edgeCase{
		{"level-5 chunk", chunk, rawLen, true},
		{"one trailing byte", append(chunk[:len(chunk):len(chunk)], 0), rawLen, false},
		{"one byte short", chunk[:len(chunk)-1], rawLen, false},
		{"raw length +1", chunk, rawLen + 1, false},
		{"raw length -1", chunk, rawLen - 1, false},
		{"block type 3", new(bitWriter).bits(1, 1).bits(3, 2).bytes(), 0, false},
		// Save for their one defect, the refused streams would decode.
		{"HLIT > 286", abDyn(287, 1, 0, -29, 1), 4, false},
		{"HDIST > 30", abDyn(258, 31, 0, 1, -30), 4, false},
		{"code 16 first", clenCode.put(dynamic(258, 1), 16).bits(0, 2).bytes(), 4, false},
		{"repeat past the end", clenCode.put(lengths(dynamic(258, 1), -'a', 2, 2, -(256-'c'), 2, 2), 17).bits(0, 3).bytes(), 4, false},
		{"over-subscribed code", block(lengths(dynamic(258, 1), -'a', 2, 2, 2, -(256-'d'), 2, 2, 1), newCode(litCode('a', 'b', 'c', 256, 257))), 0, false},
		{"incomplete code", block(lengths(dynamic(258, 1), -'a', 2, 0, -(256-'c'), 2, 2, 1), newCode(litCode('a', 256, 257))), 0, false},
		{"one-code distance tree", abDyn(258, 1, 0, 1), 4, true},
		{"one-code distance tree, missing code", abDyn(258, 1, 1, 1), 4, false},
		{"empty distance tree, unused", block(lengths(dynamic(258, 1), -'a', 2, 2, -(256-'c'), 2, 2, 0), ab, 'a', 'b'), 2, true},
		{"fixed block", aaaa(0), 4, true},
		{"fixed symbol 286", block(fixed(), fixedLitCode, 286), 0, false},
		{"fixed symbol 287", block(fixed(), fixedLitCode, 287), 0, false},
		{"fixed distance 30", aaaa(30), 4, false},
		{"fixed distance 31", aaaa(31), 4, false},
		{"distance before the chunk start", block(fixedDistCode.put(fixedLitCode.put(fixed(), 257), 0), fixedLitCode), 3, false},
		// Five 9-bit literals end on a byte boundary, so the end of block,
		// seven zero bits, is the whole of the last byte.
		{"end of block in the zero padding", bytes.TrimSuffix(block(fixed(), fixedLitCode, 200, 200, 200, 200, 200), []byte{0}), 5, false},
		{"stored block", stored3(^uint16(3)), 3, true},
		{"LEN is not ^NLEN", stored3(^uint16(3) ^ 1), 3, false},
	}
}

// TestInflateChunkEdgeCases pins the decoder's verdict on the streams
// at the edges of what compress/flate accepts.
func TestInflateChunkEdgeCases(t *testing.T) {
	d := new(decoder)
	for _, tc := range edgeCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			if got := checkChunk(t, d, tc.stored, tc.rawLen); got != tc.accept {
				t.Fatalf("both decoders say accepted=%v, the case expects %v", got, tc.accept)
			}
		})
	}
}

// TestInflaterAllocatesNothingWarm: a warm pooled inflater inflates a
// whole compressed record, or one tuple's chunk of it, without
// allocating.
func TestInflaterAllocatesNothingWarm(t *testing.T) {
	body, txOffs := fuzzBody(t)
	d := deflaters.Get().(*deflater)
	payload, ok := d.deflateBody(body, txOffs)
	if !ok {
		t.Fatal("body did not compress")
	}
	payload = append([]byte(nil), payload...)
	deflaters.Put(d)
	z, err := openChunked(payload, int64(len(body)), txOffs)
	if err != nil {
		t.Fatal(err)
	}
	if z.n < 2 {
		t.Fatalf("record has %d chunks; the tuple read must pick one of several", z.n)
	}
	c := inflaters.Get().(*inflater)
	defer inflaters.Put(c)
	for name, r := range map[string][2]uint32{
		"whole record": {0, z.rawLen},
		"one tuple":    {txOffs[150], txOffs[151]},
	} {
		read := func() {
			got, err := c.inflate(&z, r[0], r[1])
			if err != nil || !bytes.Equal(got, body[r[0]:r[1]]) {
				t.Fatalf("%s: %v", name, err)
			}
		}
		read()
		if n := testing.AllocsPerRun(20, read); n != 0 {
			t.Errorf("%s: %.1f allocations per read, want 0", name, n)
		}
	}
}

// FuzzInflateChunk holds the decoder to compress/flate on arbitrary
// stored bytes and raw lengths: the same verdict, the same bytes, and
// never a write past the output.
func FuzzInflateChunk(f *testing.F) {
	body, txOffs := fuzzBody(f)
	stored, raw := storeChunks(f, body, txOffs)
	f.Add(stored[0], uint32(raw[0]))
	d := new(decoder)
	f.Fuzz(func(t *testing.T, stored []byte, rawLen uint32) {
		if rawLen > 1<<20 {
			return
		}
		checkChunk(t, d, stored, int(rawLen))
	})
}

// BenchmarkInflateChunk inflates the deflater's chunks of mkBlock
// bodies with compress/flate's pooled reader, as the parent read path
// did, and with the store's decoder.
func BenchmarkInflateChunk(b *testing.B) {
	var stored [][]byte
	var raw []int
	total := 0
	var prev *types.BlockHeader
	for i, n := range []int{50, 150, 300, 600} {
		blk := mkBlock(prev, uint64(1+i*1000), n)
		prev = &blk.Header
		body := blk.EncodeBytes()
		_, txOffs, err := decodeBlockOffsets(body)
		if err != nil {
			b.Fatal(err)
		}
		s, r := storeChunks(b, body, txOffs)
		stored, raw = append(stored, s...), append(raw, r...)
		total += len(body)
	}
	out := make([]byte, 2*chunkTarget)
	b.Run("flate", func(b *testing.B) {
		var src bytes.Reader
		fr := flate.NewReader(&src)
		b.SetBytes(int64(total))
		for i := 0; i < b.N; i++ {
			for j, s := range stored {
				src.Reset(s)
				if err := fr.(flate.Resetter).Reset(&src, nil); err != nil {
					b.Fatal(err)
				}
				if _, err := io.ReadFull(fr, out[:raw[j]]); err != nil {
					b.Fatal(err)
				}
				var one [1]byte
				if n, err := fr.Read(one[:]); n != 0 || err != io.EOF || src.Len() != 0 {
					b.Fatal("chunk does not end where declared")
				}
			}
		}
	})
	b.Run("store", func(b *testing.B) {
		d := new(decoder)
		b.SetBytes(int64(total))
		for i := 0; i < b.N; i++ {
			for j, s := range stored {
				if err := d.inflate(out[:raw[j]], s); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
