// Package mbtree implements the Merkle B-tree of Li et al. (SIGMOD'06)
// as used by SEBDB's authenticated layered index (paper §VI): a
// bulk-loaded B+-tree whose leaf slots carry record digests and whose
// nodes hash the concatenation of their children. A range query
// produces a verification object (VO) from which a client recomputes
// the root digest and checks both the soundness and the completeness
// of the result set.
//
// Blocks in SEBDB are immutable, so each block's MB-tree is static: it
// is built once when the block is chained and never changes shape. The
// tree therefore has no nodes or pointers — it is the sorted records
// plus one array holding every level's digests, all computed in Build,
// and its shape follows from the record count and the fan-out alone:
// level 0 is the record digests, level k+1 hashes runs of fan-out
// consecutive digests of level k (the last run may be short), and the
// level with a single digest is the root.
package mbtree

import (
	"bytes"
	"crypto/sha256"
	"hash"
	"slices"
	"sort"
	"sync"

	"sebdb/internal/types"
)

// Hash is a 32-byte SHA-256 digest.
type Hash = [32]byte

// DefaultFanout is the fan-out every ALI is built with. A per-block
// tree lives in memory and holds a few hundred records at most, so
// there is no 4 KB page to fill; what the fan-out costs is (f−1)·log_f n
// sibling digests in every VO, against n/(f−1) node digests kept per
// tree. BenchmarkAblationMBTreeFanout measures the trade (DESIGN.md has
// the table).
const DefaultFanout = 4

// Record is one indexed item: the attribute key and the payload bytes
// it authenticates (in SEBDB, the encoded transaction).
type Record struct {
	Key     types.Value
	Payload []byte
}

// Domain-separation tags: the first byte of every hashed string says
// what is being hashed, so a record can never pass for a node or a leaf
// for an inner node.
const (
	tagLeaf   = 0x00 // node over record digests
	tagInner  = 0x01 // node over node digests
	tagRecord = 0x02
)

// encodeRecord appends a record in the form the VO ships it: the key,
// the payload length as a varint, the payload. The record digest is
// SHA-256 over tagRecord followed by exactly these bytes, which is what
// lets a verifier hash a record straight out of the VO.
func encodeRecord(e *types.Encoder, r Record) {
	e.Value(r.Key)
	e.Uvarint(uint64(len(r.Payload)))
	e.Raw(r.Payload)
}

// hasher is the reusable state of one Build or one Reconstruct: the
// SHA-256 state, a scratch encoder and a scratch run of digests.
type hasher struct {
	h   hash.Hash
	enc *types.Encoder
	run []Hash
}

var hashers = sync.Pool{New: func() any {
	return &hasher{h: sha256.New(), enc: types.NewEncoder(256)}
}}

var tagBytes = [...]byte{tagLeaf, tagInner, tagRecord}

// record appends the digest of one encoded record to out.
func (x *hasher) record(out []Hash, encoded []byte) []Hash {
	x.h.Reset()
	x.h.Write(tagBytes[tagRecord : tagRecord+1])
	x.h.Write(encoded)
	out = append(out, Hash{})
	x.h.Sum(out[len(out)-1][:0])
	return out
}

// fold hashes a run of digests into the digests of the nodes above it
// and appends those to out. run sits at positions [s, s+len(run)) of a
// level holding size digests; its nodes are [s/f, (s+len(run)-1)/f] of
// the next level. Slots that share a node with the run but lie outside
// it are read from flanks, 32 bytes each, left ones first. fold returns
// the extended out and the unread flanks, or ok = false when flanks run
// short. out may start where run starts: node i is written only after
// slots at or beyond i were read.
func (x *hasher) fold(tag uint8, f, size, s int, run, out []Hash, flanks []byte) (_ []Hash, _ []byte, ok bool) {
	const width = len(Hash{})
	end := s + len(run)
	for first := s / f * f; first < end; first += f {
		last := min(first+f, size)
		from, to := max(first, s), min(last, end)
		left, right := (from-first)*width, (last-to)*width
		if len(flanks) < left+right {
			return nil, nil, false
		}
		x.h.Reset()
		x.h.Write(tagBytes[tag : tag+1])
		x.h.Write(flanks[:left])
		for i := from; i < to; i++ {
			x.h.Write(run[i-s][:])
		}
		x.h.Write(flanks[left : left+right])
		flanks = flanks[left+right:]
		out = append(out, Hash{})
		x.h.Sum(out[len(out)-1][:0])
	}
	return out, flanks, true
}

// Tree is a static Merkle B-tree.
type Tree struct {
	fanout int
	// recs is sorted by (key, payload).
	recs []Record
	// digests holds level 0 (one digest per record), then each higher
	// level in turn; the last element is the root.
	digests []Hash
}

// emptyRoot is the root of a tree without records: a leaf with no
// slots.
var emptyRoot = sha256.Sum256([]byte{tagLeaf})

// Build constructs an MB-tree over the records, sorted by key and, among
// equal keys, by payload — so the tree and its root depend on the set
// of records and not on the order they arrive in. fanout <= 1 selects
// DefaultFanout.
func Build(records []Record, fanout int) *Tree {
	if fanout <= 1 {
		fanout = DefaultFanout
	}
	// Sort positions, not records — sixteen bytes to move and no pointer
	// for the collector to track, against sixty-four — with each key's
	// numeric value decoded once, not on every comparison.
	type slot struct {
		at      int32
		numeric bool
		num     float64
	}
	order := make([]slot, len(records))
	for i, r := range records {
		order[i] = slot{at: int32(i), numeric: r.Key.Numeric(), num: r.Key.Float()}
	}
	slices.SortFunc(order, func(a, b slot) int {
		switch {
		case !a.numeric || !b.numeric:
			if c := types.Compare(records[a.at].Key, records[b.at].Key); c != 0 {
				return c
			}
		case a.num < b.num:
			return -1
		case a.num > b.num:
			return 1
		}
		return bytes.Compare(records[a.at].Payload, records[b.at].Payload)
	})
	rs := make([]Record, len(records))
	for i, o := range order {
		rs[i] = records[o.at]
	}
	t := &Tree{fanout: fanout, recs: rs}
	if len(rs) == 0 {
		t.digests = []Hash{emptyRoot}
		return t
	}

	total := len(rs)
	for size := len(rs); ; {
		size = (size + fanout - 1) / fanout
		total += size
		if size == 1 {
			break
		}
	}
	t.digests = make([]Hash, 0, total)
	x := hashers.Get().(*hasher)
	defer hashers.Put(x)
	for _, r := range rs {
		x.enc.Reset()
		encodeRecord(x.enc, r)
		t.digests = x.record(t.digests, x.enc.Bytes())
	}
	level, tag := t.digests, uint8(tagLeaf)
	for {
		below := len(t.digests)
		t.digests, _, _ = x.fold(tag, fanout, len(level), 0, level, t.digests, nil)
		level, tag = t.digests[below:], tagInner
		if len(level) == 1 {
			return t
		}
	}
}

// Root returns the tree's root digest — the per-block snapshot the
// auxiliary full node hashes into its digest.
func (t *Tree) Root() Hash { return t.digests[len(t.digests)-1] }

// Records returns a copy of the tree's records in tree order. Building
// a tree over them reproduces this tree exactly, which is how the
// checkpoint subsystem serialises per-block MB-trees without persisting
// hashes.
func (t *Tree) Records() []Record { return slices.Clone(t.recs) }

// Len returns the number of records.
func (t *Tree) Len() int { return len(t.recs) }

// Key returns the key of the i-th record in tree order.
func (t *Tree) Key(i int) types.Value { return t.recs[i].Key }

// Min returns the smallest key; ok is false for an empty tree.
func (t *Tree) Min() (types.Value, bool) {
	if len(t.recs) == 0 {
		return types.Null, false
	}
	return t.recs[0].Key, true
}

// Max returns the largest key; ok is false for an empty tree.
func (t *Tree) Max() (types.Value, bool) {
	if len(t.recs) == 0 {
		return types.Null, false
	}
	return t.recs[len(t.recs)-1].Key, true
}

// exposed returns the run of records [s, e) a VO for [lo, hi] must
// carry: the records in range, the greatest record below lo (proof that
// nothing in range was omitted on the left) and the smallest record
// above hi. Where no such boundary record exists the run touches the
// edge of the tree, which proves the same thing.
func (t *Tree) exposed(lo, hi types.Value) (s, e int) {
	s = sort.Search(len(t.recs), func(i int) bool {
		return types.Compare(t.recs[i].Key, lo) >= 0
	})
	e = s + sort.Search(len(t.recs)-s, func(i int) bool {
		return types.Compare(t.recs[s+i].Key, hi) > 0
	})
	if s > 0 {
		s--
	}
	if e < len(t.recs) {
		e++
	}
	return s, e
}
