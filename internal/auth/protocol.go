package auth

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"sebdb/internal/index/bitmap"
	"sebdb/internal/mbtree"
	"sebdb/internal/merkle"
	"sebdb/internal/types"
)

// BlockVO is the verification object of one visited block.
type BlockVO struct {
	// Bid is the block id the VO belongs to.
	Bid uint64
	// Bytes is the encoded mbtree VO.
	Bytes []byte
}

// Answer is the first-phase reply of a full node: the snapshot height
// and one VO per candidate block (paper §VI: "the VO consists of one VO
// each MB-tree the query visited", plus the block height h).
//
// On the wire an answer is one buffer (format v2):
//
//	byte     answerVersion
//	uvarint  snapshot height
//	then, until the buffer ends, per block in ascending block id:
//	uvarint  block id
//	uint32   VO length
//	...      the block's mbtree VO
//
// Serve writes that buffer and DecodeAnswer reads it; either way
// Blocks[i].Bytes are sub-slices of it, never copies.
type Answer struct {
	Height uint64
	Blocks []BlockVO
	wire   []byte
}

// answerVersion leads every encoded answer. A v1 answer began with its
// height as a big-endian uint64, whose first byte is zero for any chain
// shorter than 2^56 blocks.
const answerVersion = 2

// Size returns the total VO size in bytes — the paper's Fig. 17 metric:
// the length of the encoded answer.
func (a *Answer) Size() int { return len(a.wire) }

// Wire returns the encoded answer, ready to be sent as a reply.
func (a *Answer) Wire() []byte { return a.wire }

// DecodeAnswer parses an encoded answer without copying the VOs out of
// buf. An answer of another version is refused with types.ErrCorrupt.
func DecodeAnswer(buf []byte) (*Answer, error) {
	d := types.NewDecoder(buf)
	if ver, err := d.Uint8(); err != nil || ver != answerVersion {
		return nil, fmt.Errorf("%w: not a v2 answer", types.ErrCorrupt)
	}
	ans := &Answer{wire: buf}
	var err error
	if ans.Height, err = d.Uvarint(); err != nil {
		return nil, err
	}
	for d.Remaining() > 0 {
		var b BlockVO
		if b.Bid, err = d.Uvarint(); err != nil {
			return nil, err
		}
		size, err := d.Uint32()
		if err != nil {
			return nil, err
		}
		if b.Bytes, err = d.View(int(size)); err != nil {
			return nil, err
		}
		ans.Blocks = append(ans.Blocks, b)
	}
	return ans, nil
}

// candidates computes the deterministic candidate-block set of a query
// at snapshot height: first-level filter ∩ eligible blocks ∩ bid < height.
func candidates(ali *ALI, height uint64, eligible *bitmap.Bitmap, lo, hi types.Value) []int {
	cand := ali.CandidateBlocks(lo, hi)
	if eligible != nil {
		cand.And(eligible)
	}
	var out []int
	cand.ForEach(func(bid int) bool {
		if uint64(bid) < height {
			out = append(out, bid)
		}
		return true
	})
	return out
}

// Serve is the full node's side of phase one: it executes the range
// query [lo, hi] over the ALI at the given snapshot height and returns
// the answer with one VO per candidate block. eligible restricts the
// block set (time window); nil means all blocks. Every VO is written
// straight into the reply buffer. A candidate whose MB-tree is not
// built yet is built now; one that cannot be built is left out, which
// the client's verification refuses (ServeStrict reports it instead).
func Serve(ali *ALI, height uint64, eligible *bitmap.Bitmap, lo, hi types.Value) *Answer {
	return serve(ali, height, eligible, lo, hi, nil)
}

// ServeStrict is Serve for a node answering a request: a candidate
// block whose tree cannot be built — its body unreadable — fails the
// request with the store's error.
func ServeStrict(ali *ALI, height uint64, eligible *bitmap.Bitmap, lo, hi types.Value) (*Answer, error) {
	var err error
	ans := serve(ali, height, eligible, lo, hi, &err)
	return ans, err
}

// serve writes the answer. With failed nil a candidate whose tree cannot
// be built is left out; otherwise the first such error is stored there
// and serve returns nil.
func serve(ali *ALI, height uint64, eligible *bitmap.Bitmap, lo, hi types.Value, failed *error) *Answer {
	e := types.NewEncoder(4096)
	e.Uint8(answerVersion)
	e.Uvarint(height)
	for _, bid := range candidates(ali, height, eligible, lo, hi) {
		t, err := ali.tree(uint64(bid))
		if err != nil && failed != nil {
			*failed = err
			return nil
		}
		if t == nil {
			continue
		}
		e.Uvarint(uint64(bid))
		at := e.Len()
		e.Uint32(0)
		t.EncodeVO(e, lo, hi)
		binary.BigEndian.PutUint32(e.Bytes()[at:], uint32(e.Len()-at-4))
	}
	ans, err := DecodeAnswer(e.Bytes())
	if err != nil {
		panic("auth: Serve wrote an answer DecodeAnswer refuses: " + err.Error())
	}
	return ans
}

// Digest is the auxiliary full node's side of phase two: it recomputes
// the candidate set for the query at height h and hashes the visited
// MB-roots, bound to their block ids, into a single digest (paper §VI:
// "generates digest by hashing the concatenation of merkle roots of
// second level index in blocks that the query needs to visit"). Trees
// not built yet are built now; a block whose tree cannot be built is
// left out, so the digest disagrees with every honest node's
// (DigestStrict reports it instead).
func Digest(ali *ALI, height uint64, eligible *bitmap.Bitmap, lo, hi types.Value) [32]byte {
	return digest(ali, height, eligible, lo, hi, nil)
}

// DigestStrict is Digest for a node answering a request: a candidate
// block whose tree cannot be built fails the request with the store's
// error.
func DigestStrict(ali *ALI, height uint64, eligible *bitmap.Bitmap, lo, hi types.Value) ([32]byte, error) {
	var err error
	d := digest(ali, height, eligible, lo, hi, &err)
	return d, err
}

// digest hashes the visited roots; failed is as for serve.
func digest(ali *ALI, height uint64, eligible *bitmap.Bitmap, lo, hi types.Value, failed *error) [32]byte {
	h := sha256.New()
	var buf [8]byte
	var out [32]byte
	for _, bid := range candidates(ali, height, eligible, lo, hi) {
		t, err := ali.tree(uint64(bid))
		if err != nil && failed != nil {
			*failed = err
			return out
		}
		if t == nil {
			continue
		}
		root := t.Root()
		binary.BigEndian.PutUint64(buf[:], uint64(bid))
		h.Write(buf[:])
		h.Write(root[:])
	}
	h.Sum(out[:0])
	return out
}

// VerifyAnswer is the thin client's check: one pass over every block
// VO rebuilds each MB-root while it checks order and completeness,
// folds the roots into the digest the answer commits to and decodes the
// in-range transactions. The caller compares the digest against the
// replies of sampled auxiliary nodes; only if enough agree is the
// result trusted (Equation 6).
func VerifyAnswer(ans *Answer, lo, hi types.Value) (digest [32]byte, txs []*types.Transaction, err error) {
	h := sha256.New()
	var buf [8]byte
	var prevBid uint64
	var recs []mbtree.Record
	for i, bvo := range ans.Blocks {
		if bvo.Bid >= ans.Height {
			return digest, nil, fmt.Errorf("auth: block %d beyond snapshot height %d", bvo.Bid, ans.Height)
		}
		if i > 0 && bvo.Bid <= prevBid {
			return digest, nil, fmt.Errorf("auth: block VOs out of order")
		}
		prevBid = bvo.Bid
		var root mbtree.Hash
		if root, recs, err = mbtree.Reconstruct(recs[:0], bvo.Bytes, lo, hi); err != nil {
			return digest, nil, fmt.Errorf("auth: block %d: %w", bvo.Bid, err)
		}
		binary.BigEndian.PutUint64(buf[:], bvo.Bid)
		h.Write(buf[:])
		h.Write(root[:])
		for _, r := range recs {
			tx, err := types.DecodeTransaction(types.NewDecoder(r.Payload))
			if err != nil {
				return digest, nil, fmt.Errorf("auth: block %d: %w", bvo.Bid, err)
			}
			txs = append(txs, tx)
		}
	}
	h.Sum(digest[:0])
	return digest, txs, nil
}

// BasicAnswer is the baseline the paper compares ALI against: the
// server ships every eligible block in full.
type BasicAnswer struct {
	Height uint64
	Blocks []*types.Block
}

// Size returns the baseline's "VO size": the bytes of all shipped
// blocks.
func (a *BasicAnswer) Size() int {
	n := 8
	for _, b := range a.Blocks {
		n += len(b.EncodeBytes())
	}
	return n
}

// BasicVerify is the thin client's baseline check: for each shipped
// block it recomputes the transaction Merkle root and compares it with
// the trusted header (thin clients store all headers), then filters the
// matching transactions itself.
func BasicVerify(ans *BasicAnswer, headers []types.BlockHeader,
	match func(*types.Transaction) bool) ([]*types.Transaction, error) {
	var out []*types.Transaction
	for _, b := range ans.Blocks {
		if b.Header.Height >= uint64(len(headers)) {
			return nil, fmt.Errorf("auth: block %d beyond known headers", b.Header.Height)
		}
		want := headers[b.Header.Height]
		if b.Header.Hash() != want.Hash() {
			return nil, fmt.Errorf("auth: block %d header mismatch", b.Header.Height)
		}
		if merkle.Root(types.TxLeaves(b.Txs)) != want.TransRoot {
			return nil, fmt.Errorf("auth: block %d transaction root mismatch", b.Header.Height)
		}
		for _, tx := range b.Txs {
			if match(tx) {
				out = append(out, tx)
			}
		}
	}
	return out, nil
}
