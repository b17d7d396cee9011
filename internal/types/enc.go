package types

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// The encoding in this file is the canonical wire and disk format of
// SEBDB. It must be deterministic — two nodes encoding the same logical
// transaction must produce identical bytes, because hashes and
// signatures are computed over it. Everything is big-endian with
// length-prefixed variable data; no maps, no floats-as-text.

// ErrCorrupt is returned when decoding runs off the end of the buffer or
// meets an impossible tag.
var ErrCorrupt = errors.New("types: corrupt encoding")

// Encoder builds a deterministic byte string.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an Encoder with the given initial capacity.
func NewEncoder(capacity int) *Encoder {
	return &Encoder{buf: make([]byte, 0, capacity)}
}

// Bytes returns the accumulated encoding. The slice aliases the
// encoder's buffer; callers must not keep writing through the encoder
// while holding it.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the number of bytes written so far.
func (e *Encoder) Len() int { return len(e.buf) }

// Reset empties the encoder and keeps its buffer, so one encoder can
// serve as the scratch space of a loop.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// Uint8 appends a single byte.
func (e *Encoder) Uint8(v uint8) { e.buf = append(e.buf, v) }

// Uint32 appends a big-endian uint32.
func (e *Encoder) Uint32(v uint32) {
	e.buf = binary.BigEndian.AppendUint32(e.buf, v)
}

// Uint64 appends a big-endian uint64.
func (e *Encoder) Uint64(v uint64) {
	e.buf = binary.BigEndian.AppendUint64(e.buf, v)
}

// Int64 appends a big-endian int64 (two's complement).
func (e *Encoder) Int64(v int64) { e.Uint64(uint64(v)) }

// Uvarint appends v in the base-128 varint form of encoding/binary.
func (e *Encoder) Uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

// Float64 appends the IEEE-754 bits of v.
func (e *Encoder) Float64(v float64) { e.Uint64(math.Float64bits(v)) }

// Bytes32 appends a fixed 32-byte array (hashes).
func (e *Encoder) Bytes32(v [32]byte) { e.buf = append(e.buf, v[:]...) }

// Count appends a uint32 count/length prefix. It panics when n does not
// fit: a >4 GiB length cannot be represented on the wire, and silently
// truncating the prefix would desynchronise every decoder downstream.
func (e *Encoder) Count(n int) {
	if n < 0 || int64(n) > math.MaxUint32 {
		panic(fmt.Sprintf("types: count %d does not fit the uint32 wire prefix", n))
	}
	e.Uint32(uint32(n))
}

// Raw appends pre-encoded bytes verbatim, with no length prefix. It
// splices an encoding produced elsewhere (a sealed transaction, say)
// into a larger one; the caller is responsible for v already being in
// canonical form.
func (e *Encoder) Raw(v []byte) { e.buf = append(e.buf, v...) }

// Blob appends a uint32 length prefix followed by the bytes.
func (e *Encoder) Blob(v []byte) {
	e.Count(len(v))
	e.buf = append(e.buf, v...)
}

// Str appends a length-prefixed string.
func (e *Encoder) Str(v string) {
	e.Count(len(v))
	e.buf = append(e.buf, v...)
}

// Value appends a tagged attribute value.
func (e *Encoder) Value(v Value) {
	e.Uint8(uint8(v.Kind))
	switch v.Kind {
	case KindNull:
	case KindString:
		e.Str(v.S)
	case KindInt, KindBool, KindTimestamp:
		e.Int64(v.I)
	case KindDecimal:
		e.Float64(v.F)
	}
}

// Values appends a count-prefixed slice of values.
func (e *Encoder) Values(vs []Value) {
	e.Count(len(vs))
	for _, v := range vs {
		e.Value(v)
	}
}

// Decoder reads back what Encoder wrote.
type Decoder struct {
	buf []byte
	off int
	// alias makes Str and Blob return views of buf instead of copies.
	// Only FilterBlock sets it, for its scratch transaction.
	alias bool
}

// NewDecoder wraps buf for decoding.
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

// Offset returns the number of bytes consumed so far; the storage layer
// uses it to record where each transaction starts inside a block.
func (d *Decoder) Offset() int { return d.off }

func (d *Decoder) take(n int) ([]byte, error) {
	if n < 0 || d.off+n > len(d.buf) {
		return nil, ErrCorrupt
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b, nil
}

// Uint8 reads one byte.
func (d *Decoder) Uint8() (uint8, error) {
	b, err := d.take(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

// Uint32 reads a big-endian uint32.
func (d *Decoder) Uint32() (uint32, error) {
	b, err := d.take(4)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint32(b), nil
}

// Uint64 reads a big-endian uint64.
func (d *Decoder) Uint64() (uint64, error) {
	b, err := d.take(8)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint64(b), nil
}

// Uvarint reads a base-128 varint. Only the shortest form of a value is
// accepted, so every value has exactly one encoding.
func (d *Decoder) Uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 || (n > 1 && d.buf[d.off+n-1] == 0) {
		return 0, ErrCorrupt
	}
	d.off += n
	return v, nil
}

// View reads n bytes without copying them: the result aliases the
// decode buffer and is valid only as long as that buffer is.
func (d *Decoder) View(n int) ([]byte, error) { return d.take(n) }

// Int64 reads a big-endian int64.
func (d *Decoder) Int64() (int64, error) {
	v, err := d.Uint64()
	return int64(v), err
}

// Float64 reads IEEE-754 bits.
func (d *Decoder) Float64() (float64, error) {
	v, err := d.Uint64()
	return math.Float64frombits(v), err
}

// Bytes32 reads a fixed 32-byte array.
func (d *Decoder) Bytes32() ([32]byte, error) {
	var out [32]byte
	b, err := d.take(32)
	if err != nil {
		return out, err
	}
	copy(out[:], b)
	return out, nil
}

// Blob reads a length-prefixed byte slice. The result is a copy so the
// caller may retain it independently of the decode buffer.
func (d *Decoder) Blob() ([]byte, error) {
	n, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	b, err := d.take(int(n))
	if err != nil {
		return nil, err
	}
	if d.alias {
		return b[:len(b):len(b)], nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out, nil
}

// Str reads a length-prefixed string.
func (d *Decoder) Str() (string, error) {
	n, err := d.Uint32()
	if err != nil {
		return "", err
	}
	b, err := d.take(int(n))
	if err != nil {
		return "", err
	}
	if d.alias {
		return aliasStr(b), nil
	}
	return string(b), nil
}

// Value reads a tagged attribute value.
func (d *Decoder) Value() (Value, error) {
	tag, err := d.Uint8()
	if err != nil {
		return Null, err
	}
	switch Kind(tag) {
	case KindNull:
		return Null, nil
	case KindString:
		s, err := d.Str()
		if err != nil {
			return Null, err
		}
		return Str(s), nil
	case KindInt:
		i, err := d.Int64()
		if err != nil {
			return Null, err
		}
		return Int(i), nil
	case KindBool:
		i, err := d.Int64()
		if err != nil {
			return Null, err
		}
		return Bool(i != 0), nil
	case KindTimestamp:
		i, err := d.Int64()
		if err != nil {
			return Null, err
		}
		return Time(i), nil
	case KindDecimal:
		f, err := d.Float64()
		if err != nil {
			return Null, err
		}
		return Dec(f), nil
	default:
		return Null, fmt.Errorf("%w: value tag %d", ErrCorrupt, tag)
	}
}

// skipPrefixed steps over a length-prefixed string or blob.
func (d *Decoder) skipPrefixed() error {
	n, err := d.Uint32()
	if err != nil {
		return err
	}
	_, err = d.take(int(n))
	return err
}

// skipValue steps over one tagged value, refusing what Value refuses.
func (d *Decoder) skipValue() error {
	tag, err := d.Uint8()
	if err != nil {
		return err
	}
	switch Kind(tag) {
	case KindNull:
		return nil
	case KindString:
		return d.skipPrefixed()
	case KindInt, KindBool, KindTimestamp, KindDecimal:
		_, err := d.take(8)
		return err
	default:
		return fmt.Errorf("%w: value tag %d", ErrCorrupt, tag)
	}
}

// Values reads a count-prefixed slice of values.
func (d *Decoder) Values() ([]Value, error) { return d.values(nil) }

// values is Values decoding into dst's storage when it has the room.
func (d *Decoder) values(dst []Value) ([]Value, error) {
	n, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	if int(n) > d.Remaining() { // each value is at least 1 byte
		return nil, ErrCorrupt
	}
	var vs []Value
	if dst != nil && cap(dst) >= int(n) {
		vs = dst[:n]
	} else {
		vs = make([]Value, n)
	}
	for i := range vs {
		if vs[i], err = d.Value(); err != nil {
			return nil, err
		}
	}
	return vs, nil
}
