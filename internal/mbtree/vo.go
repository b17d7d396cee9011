package mbtree

import (
	"errors"
	"fmt"
	"math"

	"sebdb/internal/types"
)

// VO is the encoded verification object for one range query against one
// MB-tree (format v2):
//
//	byte     voVersion
//	uvarint  fan-out f
//	uvarint  n, the number of records in the tree
//	uvarint  s, the position of the first exposed record
//	uvarint  c, the number of exposed records
//	c ×      key (types value encoding), uvarint payload length, payload
//	m ×      32-byte digest
//
// The exposed records are the run [s, s+c) of the tree's sorted records:
// those in range plus one boundary record on either side where the tree
// has one. The m flank digests are the slots outside the run that share
// a node with it, level by level from the records up, left of the run
// before right of it; n, f, s and c determine m, so it is not encoded.
// n and f are hints, not trusted input: they fix the shape the verifier
// hashes, and a shape other than the tree's cannot reproduce its root.
type VO []byte

// voVersion leads every VO. A v1 VO began with a node tag (0, 1 or 2),
// so no v1 encoding starts with this byte.
const voVersion = 0xB2

// Shape hints beyond these cannot come from Build (a block's record
// count travels as a uint32) and would overflow the position arithmetic.
const (
	maxFanout  = math.MaxUint16
	maxRecords = math.MaxUint32
)

// Size returns the encoded VO size in bytes.
func (vo VO) Size() int { return len(vo) }

// RangeVO answers [lo, hi] with a verification object.
func (t *Tree) RangeVO(lo, hi types.Value) VO {
	e := types.NewEncoder(1024)
	t.EncodeVO(e, lo, hi)
	return e.Bytes()
}

// EncodeVO appends the VO for [lo, hi] to e. Nothing is hashed: records
// are copied out of the tree and flank digests out of the array Build
// filled.
func (t *Tree) EncodeVO(e *types.Encoder, lo, hi types.Value) {
	s, end := t.exposed(lo, hi)
	t.encodeRun(e, s, end)
}

// encodeRun appends the VO exposing the records [s, end).
func (t *Tree) encodeRun(e *types.Encoder, s, end int) {
	e.Uint8(voVersion)
	e.Uvarint(uint64(t.fanout))
	e.Uvarint(uint64(len(t.recs)))
	e.Uvarint(uint64(s))
	e.Uvarint(uint64(end - s))
	for _, r := range t.recs[s:end] {
		encodeRecord(e, r)
	}
	f, size, level := t.fanout, len(t.recs), t.digests
	for size > 0 {
		for _, d := range level[s/f*f : s] {
			e.Bytes32(d)
		}
		for _, d := range level[end:min((end+f-1)/f*f, size)] {
			e.Bytes32(d)
		}
		level = level[size:]
		s, end, size = s/f, (end+f-1)/f, (size+f-1)/f
		if size == 1 {
			break
		}
	}
}

// ErrVerify is the base error of every VO that decodes but does not
// prove its answer.
var ErrVerify = errors.New("mbtree: verification failed")

// Verify checks a VO against a trusted root digest for the query range
// [lo, hi]. On success it returns the in-range records, guaranteed
// sound (they hash into the root) and complete (boundary records or the
// tree's edges prove no in-range record was withheld).
func Verify(vo VO, root Hash, lo, hi types.Value) ([]Record, error) {
	got, recs, err := Reconstruct(nil, vo, lo, hi)
	if err != nil {
		return nil, err
	}
	if got != root {
		return nil, fmt.Errorf("%w: root digest mismatch", ErrVerify)
	}
	return recs, nil
}

// Reconstruct recomputes the root digest a VO commits to and appends
// the in-range records to dst, in one pass over the bytes: each record
// is hashed where it lies, checked against its predecessor's key and
// against the range, and the run of digests is then folded level by
// level with the flank digests. A VO of another version, a truncated
// one or one with trailing bytes fails with types.ErrCorrupt; one whose
// records are out of order or stop short of a boundary fails with
// ErrVerify. The returned records alias vo.
//
// SEBDB's two-phase thin-client protocol (paper §VI) uses this
// directly: the client reconstructs each block's MB-root from its VO,
// hashes the roots into a digest, and compares that digest against the
// answers of sampled auxiliary nodes instead of holding a trusted
// per-block root.
func Reconstruct(dst []Record, vo VO, lo, hi types.Value) (Hash, []Record, error) {
	fail := func(err error) (Hash, []Record, error) { return Hash{}, nil, err }
	d := types.NewDecoder(vo)
	if ver, err := d.Uint8(); err != nil || ver != voVersion {
		return fail(fmt.Errorf("%w: not a v2 VO", types.ErrCorrupt))
	}
	var hdr [4]uint64 // f, n, s, c
	for i := range hdr {
		var err error
		if hdr[i], err = d.Uvarint(); err != nil {
			return fail(err)
		}
	}
	if hdr[0] < 2 || hdr[0] > maxFanout || hdr[1] > maxRecords ||
		hdr[2] > hdr[1] || hdr[3] > hdr[1]-hdr[2] {
		return fail(fmt.Errorf("%w: VO shape", types.ErrCorrupt))
	}
	f, n, s, c := int(hdr[0]), int(hdr[1]), int(hdr[2]), int(hdr[3])
	if n == 0 {
		if d.Remaining() != 0 {
			return fail(types.ErrCorrupt)
		}
		return emptyRoot, dst, nil
	}
	if c == 0 {
		return fail(fmt.Errorf("%w: no record exposed", ErrVerify))
	}

	x := hashers.Get().(*hasher)
	defer hashers.Put(x)
	x.run = x.run[:0]
	var prev types.Value
	for i := 0; i < c; i++ {
		start := d.Offset()
		key, err := d.Value()
		if err != nil {
			return fail(err)
		}
		size, err := d.Uvarint()
		if err != nil || size > uint64(d.Remaining()) {
			return fail(types.ErrCorrupt)
		}
		payload, err := d.View(int(size))
		if err != nil {
			return fail(err)
		}
		x.run = x.record(x.run, vo[start:d.Offset()])
		switch {
		case i > 0 && types.Compare(prev, key) > 0:
			return fail(fmt.Errorf("%w: exposed records out of order", ErrVerify))
		case i == 0 && s > 0 && types.Compare(key, lo) >= 0:
			// Records hide left of the run, and its first one does not
			// prove them all below the range.
			return fail(fmt.Errorf("%w: left completeness violated", ErrVerify))
		}
		if types.Compare(key, lo) >= 0 && types.Compare(key, hi) <= 0 {
			dst = append(dst, Record{Key: key, Payload: payload})
		}
		prev = key
	}
	if s+c < n && types.Compare(prev, hi) <= 0 {
		return fail(fmt.Errorf("%w: right completeness violated", ErrVerify))
	}

	flanks, err := d.View(d.Remaining())
	if err != nil {
		return fail(err)
	}
	run, tag := x.run, uint8(tagLeaf)
	for size := n; ; {
		var ok bool
		if run, flanks, ok = x.fold(tag, f, size, s, run, run[:0], flanks); !ok {
			return fail(fmt.Errorf("%w: flank digests run short", types.ErrCorrupt))
		}
		s, size, tag = s/f, (size+f-1)/f, tagInner
		if size == 1 {
			break
		}
	}
	if len(flanks) != 0 {
		return fail(fmt.Errorf("%w: trailing bytes", types.ErrCorrupt))
	}
	return run[0], dst, nil
}
