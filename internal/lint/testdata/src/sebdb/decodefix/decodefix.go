// Package decodefix seeds decodebounds violations: wire counts sizing
// allocations and loops without a Remaining() check.
package decodefix

import (
	"errors"

	"sebdb/internal/types"
)

// BadDecode trusts the wire count outright.
func BadDecode(buf []byte) ([]uint64, error) {
	d := types.NewDecoder(buf)
	n, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	out := make([]uint64, n)         // want:decodebounds
	for i := uint32(0); i < n; i++ { // want:decodebounds
		v, err := d.Uint64()
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// GoodDecode bounds the count against the unread bytes first.
func GoodDecode(buf []byte) ([]uint64, error) {
	d := types.NewDecoder(buf)
	n, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	if int(n) > d.Remaining() {
		return nil, errors.New("decodefix: corrupt count")
	}
	out := make([]uint64, n)
	for i := uint32(0); i < n; i++ {
		v, err := d.Uint64()
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// BadVarint trusts a varint count the same way.
func BadVarint(buf []byte) []string {
	d := types.NewDecoder(buf)
	n, err := d.Uvarint()
	if err != nil {
		return nil
	}
	return make([]string, n) // want:decodebounds
}
