package storage

import (
	"encoding/binary"
	"errors"
	"math/bits"
)

// The cold tier's DEFLATE decoder (RFC 1951). Each chunk of a compressed
// record is one complete stream whose raw length the chunk table
// declares, so the decoder works slice to slice: it reads the stored
// chunk through a 64-bit bit buffer and writes matches and literals
// straight into the record's raw scratch, with no history window and no
// copy-out. It accepts exactly the streams compress/flate's reader
// accepts when the output must be filled exactly and the input consumed
// exactly (the tests hold it to that reader); the write side stays on
// compress/flate. A code needing more bits than the stream has left is
// an error, never decoded from the zero bits above them.

const (
	// Fast-table widths. Codes up to this many bits decode with one
	// lookup; longer ones take a canonical walk. Code-length codes are
	// at most 7 bits, so their table covers them all.
	litBits  = 10
	distBits = 8
	clenBits = 7

	maxCodeLen = 15
	maxNumLit  = 286 // HLIT+257 above this is refused; so are symbols 286 and 287
	maxNumDist = 30  // HDIST+1 above this is refused; so are distance symbols 30 and 31
	numCLen    = 19

	// entryLong marks a fast-table slot whose bits start a code longer
	// than the table. A zero slot starts no code at all.
	entryLong = 0xffff
)

var (
	errTruncated = errors.New("deflate: stream ends early")
	errCorrupt   = errors.New("deflate: corrupt stream")
	errOverrun   = errors.New("deflate: stream inflates past its declared raw length")
	errUnderrun  = errors.New("deflate: stream inflates short of its declared raw length")
	errTrailing  = errors.New("deflate: stream ends before its stored bytes do")
)

// codeOrder is the order code-length code lengths arrive in.
var codeOrder = [numCLen]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}

// Base values and extra-bit counts of length symbols 257..285 and
// distance symbols 0..29.
var (
	lenBase   = [29]uint16{3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51, 59, 67, 83, 99, 115, 131, 163, 195, 227, 258}
	lenExtra  = [29]uint8{0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0}
	distBase  = [maxNumDist]uint16{1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385, 513, 769, 1025, 1537, 2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577}
	distExtra = [maxNumDist]uint8{0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13, 13}
)

// huffman is a canonical Huffman code in decoding form. fast is indexed
// by the next tbits stream bits and holds sym<<4 | length; count, first
// and offs describe the code per length, syms lists the symbols sorted
// by length then value, for the walk that decodes codes longer than the
// table.
type huffman struct {
	fast  [1 << litBits]uint16
	tbits uint
	count [maxCodeLen + 1]uint16
	first [maxCodeLen + 1]uint16 // first canonical code of each length
	offs  [maxCodeLen + 1]uint16 // index in syms of each length's first symbol
	syms  [288]uint16
}

// build makes h the code with the given lengths and a fast table of
// tbits. Like compress/flate it accepts a complete code, one code of
// length 1, or no code at all; reading a missing code of the last two
// fails. An over-subscribed or otherwise incomplete code is refused.
func (h *huffman) build(lengths []uint8, tbits uint) bool {
	h.tbits = tbits
	h.count = [maxCodeLen + 1]uint16{}
	for _, n := range lengths {
		h.count[n]++
	}
	// left ends as the number of unused 15-bit codes: negative when the
	// code is over-subscribed, positive when it is incomplete.
	left, maxLen := 1, 0
	for n := 1; n <= maxCodeLen; n++ {
		left = left<<1 - int(h.count[n])
		if h.count[n] != 0 {
			maxLen = n
		}
	}
	if left != 0 && maxLen != 0 && !(maxLen == 1 && h.count[1] == 1) {
		return false
	}
	code, off := 0, 0
	for n := 1; n <= maxCodeLen; n++ {
		h.first[n], h.offs[n] = uint16(code), uint16(off)
		code = (code + int(h.count[n])) << 1
		off += int(h.count[n])
	}
	next := h.offs
	for sym, n := range lengths {
		if n != 0 {
			h.syms[next[n]] = uint16(sym)
			next[n]++
		}
	}
	// The table for n bits is the table for n-1 bits twice over, plus
	// the codes of length n; no shorter code prefixes one of those. A
	// slot no code reaches keeps the seed: a long code starts there if
	// the code has any (it is then complete), else none does.
	h.fast[0] = 0
	if uint(maxLen) > tbits {
		h.fast[0] = entryLong
	}
	for n, size := uint(1), 1; n <= tbits; n++ {
		copy(h.fast[size:2*size], h.fast[:size])
		size *= 2
		for k := uint16(0); k < h.count[n]; k++ {
			rev := bits.Reverse16(h.first[n]+k) >> (16 - n)
			h.fast[rev] = h.syms[h.offs[n]+k]<<4 | uint16(n)
		}
	}
	return true
}

// walk decodes a code longer than the fast table from the stream bits
// b, returning its symbol and length; length 0 means no code.
func (h *huffman) walk(b uint64) (sym, n uint) {
	rev := uint(bits.Reverse16(uint16(b)))
	for n := h.tbits + 1; n <= maxCodeLen; n++ {
		if d := rev>>(16-n) - uint(h.first[n]); d < uint(h.count[n]) {
			return uint(h.syms[uint(h.offs[n])+d]), n
		}
	}
	return 0, 0
}

// fixedLit and fixedDist are the codes of fixed-Huffman blocks. Both
// are complete over 288 and 32 symbols; the decoder refuses the four
// symbols RFC 1951 reserves.
var fixedLit, fixedDist = fixedCodes()

func fixedCodes() (lit, dist *huffman) {
	var l [288]uint8
	for i := range l {
		switch {
		case i < 144:
			l[i] = 8
		case i < 256:
			l[i] = 9
		case i < 280:
			l[i] = 7
		default:
			l[i] = 8
		}
	}
	var d [32]uint8
	for i := range d {
		d[i] = 5
	}
	lit, dist = new(huffman), new(huffman)
	if !lit.build(l[:], litBits) || !dist.build(d[:], distBits) {
		panic("storage: fixed Huffman codes are incomplete")
	}
	return lit, dist
}

// bitReader reads a stream LSB-first. b holds nb unread bits in its low
// end; bits above nb are zero or the stream's next bits, never others.
type bitReader struct {
	in  []byte
	pos int // next byte of in to load
	b   uint64
	nb  uint
}

// refill loads whole bytes until nb is at least 56 or in is exhausted.
func (r *bitReader) refill() {
	if r.pos+8 <= len(r.in) {
		r.b |= binary.LittleEndian.Uint64(r.in[r.pos:]) << (r.nb & 63)
		r.pos += int(63-r.nb) >> 3
		r.nb |= 56
		return
	}
	for r.nb < 56 && r.pos < len(r.in) {
		r.b |= uint64(r.in[r.pos]) << (r.nb & 63)
		r.pos++
		r.nb += 8
	}
}

// take consumes and returns the next n ≤ 56 bits.
func (r *bitReader) take(n uint) (uint64, error) {
	if r.nb < n {
		r.refill()
		if r.nb < n {
			return 0, errTruncated
		}
	}
	v := r.b & (1<<n - 1)
	r.b >>= n
	r.nb -= n
	return v, nil
}

// decoder is the DEFLATE decoder's reusable state: the dynamic codes
// of the current block and their lengths. It holds no history; the
// output is the history.
type decoder struct {
	lit, dist, clen huffman
	lens            [maxNumLit + maxNumDist]uint8
}

// inflate decodes the stream in into out. It fails unless the stream
// is valid to its final block, fills out exactly, and ends in the last
// byte of in.
func (d *decoder) inflate(out, in []byte) error {
	r := bitReader{in: in}
	o := 0
	for final := false; !final; {
		hdr, err := r.take(3)
		if err != nil {
			return err
		}
		final = hdr&1 == 1
		switch hdr >> 1 {
		case 0:
			o, err = storedBlock(&r, out, o)
		case 1:
			o, err = huffmanBlock(&r, out, o, fixedLit, fixedDist)
		case 2:
			if err = d.readCodes(&r); err == nil {
				o, err = huffmanBlock(&r, out, o, &d.lit, &d.dist)
			}
		default:
			err = errCorrupt
		}
		if err != nil {
			return err
		}
	}
	if o != len(out) {
		return errUnderrun
	}
	if r.pos-int(r.nb>>3) != len(in) {
		return errTrailing
	}
	return nil
}

// storedBlock copies a stored block: the rest of the current byte is
// skipped, then LEN, its complement NLEN, and LEN bytes follow.
func storedBlock(r *bitReader, out []byte, o int) (int, error) {
	r.pos -= int(r.nb >> 3)
	r.b, r.nb = 0, 0
	in := r.in
	if len(in)-r.pos < 4 {
		return o, errTruncated
	}
	n := binary.LittleEndian.Uint16(in[r.pos:])
	if n != ^binary.LittleEndian.Uint16(in[r.pos+2:]) {
		return o, errCorrupt
	}
	r.pos += 4
	if int(n) > len(in)-r.pos {
		return o, errTruncated
	}
	if int(n) > len(out)-o {
		return o, errOverrun
	}
	o += copy(out[o:], in[r.pos:r.pos+int(n)])
	r.pos += int(n)
	return o, nil
}

// readCodes reads a dynamic block's code definitions into d.lit and
// d.dist.
func (d *decoder) readCodes(r *bitReader) error {
	v, err := r.take(14)
	if err != nil {
		return err
	}
	nlit, ndist, nclen := int(v&31)+257, int(v>>5&31)+1, int(v>>10)+4
	if nlit > maxNumLit || ndist > maxNumDist {
		return errCorrupt
	}
	var clens [numCLen]uint8
	for _, sym := range codeOrder[:nclen] {
		v, err := r.take(3)
		if err != nil {
			return err
		}
		clens[sym] = uint8(v)
	}
	if !d.clen.build(clens[:], clenBits) {
		return errCorrupt
	}
	lens := d.lens[:nlit+ndist]
	for i := 0; i < len(lens); {
		// Code-length codes fit their table: one lookup, no walk.
		if r.nb < 2*clenBits {
			r.refill()
		}
		e := d.clen.fast[r.b&(1<<clenBits-1)]
		sym, n := uint(e>>4), uint(e&15)
		if n == 0 || n > r.nb {
			return symErr(n)
		}
		r.b >>= n
		r.nb -= n
		if sym < 16 {
			lens[i] = uint8(sym)
			i++
			continue
		}
		var rep uint64
		var val uint8
		switch sym {
		case 16:
			if i == 0 {
				return errCorrupt
			}
			val = lens[i-1]
			rep, err = r.take(2)
			rep += 3
		case 17:
			rep, err = r.take(3)
			rep += 3
		default: // 18
			rep, err = r.take(7)
			rep += 11
		}
		if err != nil {
			return err
		}
		if rep > uint64(len(lens)-i) {
			return errCorrupt
		}
		for end := i + int(rep); i < end; i++ {
			lens[i] = val
		}
	}
	if !d.lit.build(lens[:nlit], litBits) || !d.dist.build(lens[nlit:], distBits) {
		return errCorrupt
	}
	return nil
}

// huffmanBlock decodes one Huffman-coded block into out from o and
// returns the new output position. It keeps the bit buffer in locals:
// one refill to at least 56 bits covers a whole literal or
// length/distance pair (at most 15+5+15+13 bits), so only the stream's
// last bytes take the bounds checks' failing side.
func huffmanBlock(r *bitReader, out []byte, o int, lit, dist *huffman) (int, error) {
	in := r.in
	b, nb, pos := r.b, r.nb, r.pos
	var err error
	for {
		if nb < 48 {
			if pos+8 <= len(in) {
				b |= binary.LittleEndian.Uint64(in[pos:]) << (nb & 63)
				pos += int(63-nb) >> 3
				nb |= 56
			} else {
				for nb < 56 && pos < len(in) {
					b |= uint64(in[pos]) << (nb & 63)
					pos++
					nb += 8
				}
			}
		}
		e := lit.fast[b&(1<<litBits-1)]
		sym, n := uint(e>>4), uint(e&15)
		if e == entryLong {
			sym, n = lit.walk(b)
		}
		if n == 0 || n > nb {
			err = symErr(n)
			break
		}
		b >>= n
		nb -= n
		if sym < 256 {
			if o >= len(out) {
				err = errOverrun
				break
			}
			out[o] = byte(sym)
			o++
			continue
		}
		if sym == 256 {
			break
		}
		sym -= 257
		if sym >= uint(len(lenBase)) {
			err = errCorrupt
			break
		}
		x := uint(lenExtra[sym])
		if x > nb {
			err = errTruncated
			break
		}
		length := int(lenBase[sym]) + int(b&(1<<x-1))
		b >>= x
		nb -= x

		e = dist.fast[b&(1<<distBits-1)]
		sym, n = uint(e>>4), uint(e&15)
		if e == entryLong {
			sym, n = dist.walk(b)
		}
		if n == 0 || n > nb {
			err = symErr(n)
			break
		}
		b >>= n
		nb -= n
		if sym >= maxNumDist {
			err = errCorrupt
			break
		}
		x = uint(distExtra[sym])
		if x > nb {
			err = errTruncated
			break
		}
		dst := int(distBase[sym]) + int(b&(1<<x-1))
		b >>= x
		nb -= x
		if dst > o {
			err = errCorrupt
			break
		}
		if length > len(out)-o {
			err = errOverrun
			break
		}
		end := o + length
		if dst >= length {
			copy(out[o:end], out[o-dst:])
			o = end
			continue
		}
		// An overlapping match repeats its last dst bytes: copy what
		// is there, doubling each time.
		for src := o - dst; o < end; {
			o += copy(out[o:end], out[src:o])
		}
	}
	r.b, r.nb, r.pos = b, nb, pos
	return o, err
}

// symErr names why a symbol lookup of length n failed: no code, or a
// code longer than the bits left.
func symErr(n uint) error {
	if n == 0 {
		return errCorrupt
	}
	return errTruncated
}
