// Package types is a stub of the real wire package — just enough
// surface for the analyzers' type checks to resolve Decoder counts.
package types

// Decoder mimics the wire decoder's count-producing API.
type Decoder struct{ buf []byte }

// NewDecoder wraps buf for decoding.
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

// Uint32 reads a count.
func (d *Decoder) Uint32() (uint32, error) { return 0, nil }

// Uint64 reads a count.
func (d *Decoder) Uint64() (uint64, error) { return 0, nil }

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.buf) }

// Uvarint reads a varint count.
func (d *Decoder) Uvarint() (uint64, error) { return 0, nil }
