package types

import "unsafe"

// FilterBlock decodes a block body whose transaction i spans
// body[txOffs[i]:txOffs[i+1]] — the offsets the block store records,
// final sentinel included — and returns, in chain order, the
// transactions keep accepts. It is the whole-block read of a scan that
// keeps few rows: every transaction is first decoded into one reused
// scratch whose strings and blobs alias body, so a transaction keep
// rejects costs no allocation, and only the accepted ones are decoded
// again, copying, into transactions of their own.
//
// keep must not retain its argument: the next transaction overwrites
// the scratch, and body may be reused once FilterBlock returns. The
// header is decoded and checked but not returned. FilterBlock accepts
// exactly the bodies DecodeBlock accepts whose transaction count is
// len(txOffs)-1 and whose transactions each consume exactly their span;
// an error from keep ends the walk and is returned.
func FilterBlock(body []byte, txOffs []uint32, keep func(*Transaction) (bool, error)) ([]*Transaction, error) {
	d := &Decoder{buf: body, alias: true}
	if _, err := DecodeBlockHeader(d); err != nil {
		return nil, err
	}
	n, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	if int(n) > d.Remaining() || int(n) != len(txOffs)-1 {
		return nil, ErrCorrupt
	}
	var scratch Transaction
	var out []*Transaction
	for i, start := range txOffs[:n] {
		end := txOffs[i+1]
		if d.Offset() != int(start) {
			return nil, ErrCorrupt
		}
		if err := decodeTx(d, &scratch); err != nil {
			return nil, err
		}
		if d.Offset() != int(end) {
			return nil, ErrCorrupt
		}
		ok, err := keep(&scratch)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		tx, err := DecodeTransaction(NewDecoder(body[start:end]))
		if err != nil {
			return nil, err
		}
		out = append(out, tx)
	}
	if d.Offset() != int(txOffs[n]) { // an empty body's sentinel
		return nil, ErrCorrupt
	}
	return out, nil
}

// aliasStr views b as a string without copying it. The string is valid
// only while b's bytes are unchanged; FilterBlock's scratch is its one
// user.
func aliasStr(b []byte) string {
	return unsafe.String(unsafe.SliceData(b), len(b))
}
