package types

import (
	"crypto/ed25519"
	"crypto/sha256"
	"fmt"

	"sebdb/internal/merkle"
	"sebdb/internal/parallel"
)

// BlockHeader is the metadata of a block (paper §IV-A, Fig. 3). Thin
// clients store only headers.
type BlockHeader struct {
	// PrevHash is the hash of the previous block; zero for genesis.
	PrevHash Hash
	// Height is the number of blocks preceding this one (genesis = 0).
	Height uint64
	// Timestamp is the packaging time in Unix microseconds.
	Timestamp int64
	// TransRoot is the Merkle root over the block's transactions.
	TransRoot Hash
	// FirstTid is the Tid of the first transaction in the block, 0 for
	// an empty block. The paper's block-level index keys blocks by (bid,
	// tid, Ts); carrying the first tid in the header lets the index be
	// the headers alone (internal/index/blockindex).
	FirstTid uint64
	// TxCount is the number of transactions in the body.
	TxCount uint32
	// Signer identifies the packager of the block.
	Signer string
	// Signature is the packager's ed25519 signature over HashContent.
	Signature []byte
	// SignerKey is the packager's public key.
	SignerKey []byte
}

// hashContent is the deterministic encoding the block hash and packager
// signature are computed over (everything except the signature).
func (h *BlockHeader) hashContent() []byte {
	e := NewEncoder(160)
	e.Bytes32(h.PrevHash)
	e.Uint64(h.Height)
	e.Int64(h.Timestamp)
	e.Bytes32(h.TransRoot)
	e.Uint64(h.FirstTid)
	e.Uint32(h.TxCount)
	e.Str(h.Signer)
	e.Blob(h.SignerKey)
	return e.Bytes()
}

// Hash returns the block hash: SHA-256 over the header content.
func (h *BlockHeader) Hash() Hash {
	return sha256.Sum256(h.hashContent())
}

// Sign signs the header as its packager.
func (h *BlockHeader) Sign(priv ed25519.PrivateKey) {
	h.SignerKey = append([]byte(nil), priv.Public().(ed25519.PublicKey)...)
	h.Signature = ed25519.Sign(priv, h.hashContent())
}

// VerifySig checks the packager signature.
func (h *BlockHeader) VerifySig() bool {
	if len(h.SignerKey) != ed25519.PublicKeySize || len(h.Signature) != ed25519.SignatureSize {
		return false
	}
	return ed25519.Verify(ed25519.PublicKey(h.SignerKey), h.hashContent(), h.Signature)
}

// Encode serialises the header.
func (h *BlockHeader) Encode(e *Encoder) {
	e.Bytes32(h.PrevHash)
	e.Uint64(h.Height)
	e.Int64(h.Timestamp)
	e.Bytes32(h.TransRoot)
	e.Uint64(h.FirstTid)
	e.Uint32(h.TxCount)
	e.Str(h.Signer)
	e.Blob(h.Signature)
	e.Blob(h.SignerKey)
}

// DecodeBlockHeader reads a header from d.
func DecodeBlockHeader(d *Decoder) (BlockHeader, error) {
	var h BlockHeader
	var err error
	if h.PrevHash, err = d.Bytes32(); err != nil {
		return h, err
	}
	if h.Height, err = d.Uint64(); err != nil {
		return h, err
	}
	if h.Timestamp, err = d.Int64(); err != nil {
		return h, err
	}
	if h.TransRoot, err = d.Bytes32(); err != nil {
		return h, err
	}
	if h.FirstTid, err = d.Uint64(); err != nil {
		return h, err
	}
	if h.TxCount, err = d.Uint32(); err != nil {
		return h, err
	}
	if h.Signer, err = d.Str(); err != nil {
		return h, err
	}
	if h.Signature, err = d.Blob(); err != nil {
		return h, err
	}
	if h.SignerKey, err = d.Blob(); err != nil {
		return h, err
	}
	return h, nil
}

// Block is one unit of the chain: a header plus the ordered transactions
// it commits.
type Block struct {
	Header BlockHeader
	Txs    []*Transaction
}

// TxLeaves returns the Merkle leaf digests of the block's transactions.
func TxLeaves(txs []*Transaction) []Hash {
	leaves := make([]Hash, len(txs))
	for i, t := range txs {
		leaves[i] = merkle.HashLeaf(t.EncodeBytes())
	}
	return leaves
}

// TxLeavesWorkers computes TxLeaves with the per-transaction encode and
// leaf hash fanned out over up to workers goroutines. Every transaction
// is Sealed as a side effect, so downstream consumers of the same batch
// (block encoding, ALI record extraction) reuse the cached bytes. The
// result is identical to TxLeaves; workers <= 1 runs sequentially
// (still sealing).
func TxLeavesWorkers(txs []*Transaction, workers int) []Hash {
	leaves := make([]Hash, len(txs))
	if workers <= 1 || len(txs) < 2 {
		for i, t := range txs {
			leaves[i] = merkle.HashLeaf(t.Seal())
		}
		return leaves
	}
	chunk := (len(txs) + workers - 1) / workers
	nchunks := (len(txs) + chunk - 1) / chunk
	// Chunks write disjoint ranges of leaves, so no consume step is
	// needed; errors are impossible.
	_ = parallel.Ordered(workers, nchunks, //sebdb:ignore-err tasks always return nil; chunks write leaves in place
		func(c int) (struct{}, error) {
			for i := c * chunk; i < len(txs) && i < (c+1)*chunk; i++ {
				leaves[i] = merkle.HashLeaf(txs[i].Seal())
			}
			return struct{}{}, nil
		},
		func(int, struct{}) error { return nil })
	return leaves
}

// NewBlock assembles (but does not sign) a block on top of prev with the
// given ordered transactions. prev may be nil for the genesis block.
func NewBlock(prev *BlockHeader, txs []*Transaction, timestamp int64, signer string) *Block {
	return NewBlockFromRoot(prev, txs, merkle.Root(TxLeaves(txs)), timestamp, signer)
}

// NewBlockFromRoot assembles a block whose Merkle root the caller
// already computed — the commit pipeline hashes the leaves in parallel
// with TxLeavesWorkers and reduces them with merkle.RootWorkers.
// NewBlock is equivalent to NewBlockFromRoot with
// merkle.Root(TxLeaves(txs)).
func NewBlockFromRoot(prev *BlockHeader, txs []*Transaction, root Hash, timestamp int64, signer string) *Block {
	h := BlockHeader{
		Timestamp: timestamp,
		TransRoot: root,
		TxCount:   uint32(len(txs)),
		Signer:    signer,
	}
	if prev != nil {
		h.PrevHash = prev.Hash()
		h.Height = prev.Height + 1
	}
	if len(txs) > 0 {
		h.FirstTid = txs[0].Tid
	}
	return &Block{Header: h, Txs: txs}
}

// Encode serialises the full block (header + body). Transactions sealed
// by the commit pipeline contribute their cached encoding; the bytes
// are identical either way.
func (b *Block) Encode(e *Encoder) {
	b.Header.Encode(e)
	e.Count(len(b.Txs))
	for _, t := range b.Txs {
		if t.enc != nil && t.encTid == t.Tid && t.encTs == t.Ts {
			e.Raw(t.enc)
		} else {
			t.Encode(e)
		}
	}
}

// EncodeBytes is a convenience wrapper around Encode.
func (b *Block) EncodeBytes() []byte {
	e := NewEncoder(256 + 350*len(b.Txs))
	b.Encode(e)
	return e.Bytes()
}

// DecodeBlock reads a full block from d.
func DecodeBlock(d *Decoder) (*Block, error) {
	h, err := DecodeBlockHeader(d)
	if err != nil {
		return nil, err
	}
	n, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	if int(n) > d.Remaining() {
		return nil, ErrCorrupt
	}
	b := &Block{Header: h, Txs: make([]*Transaction, n)}
	for i := range b.Txs {
		if b.Txs[i], err = DecodeTransaction(d); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// Validate checks the block's internal consistency: the declared
// transaction count, first Tid, Merkle root, and that the transaction
// ids are consecutive. It does not check chain linkage (the store and
// the engine do) or signatures (membership policy decides which signers
// are acceptable). It is ValidateWorkers on one worker.
func (b *Block) Validate() error { return b.ValidateWorkers(1) }

// ValidateWorkers is Validate with the Merkle-root recomputation — the
// dominant cost on large blocks — fanned out over up to workers
// goroutines; the commit pipeline's prepare stage uses it so foreign
// blocks are verified off the engine lock. Hashing the leaves seals
// each transaction (TxLeavesWorkers).
func (b *Block) ValidateWorkers(workers int) error {
	if int(b.Header.TxCount) != len(b.Txs) {
		return fmt.Errorf("types: block %d declares %d txs, has %d",
			b.Header.Height, b.Header.TxCount, len(b.Txs))
	}
	// An empty block names no first transaction; NewBlock leaves its
	// FirstTid 0.
	if len(b.Txs) == 0 && b.Header.FirstTid != 0 {
		return fmt.Errorf("types: empty block %d declares first tid %d", b.Header.Height, b.Header.FirstTid)
	}
	if len(b.Txs) > 0 && b.Header.FirstTid != b.Txs[0].Tid {
		return fmt.Errorf("types: block %d first tid mismatch", b.Header.Height)
	}
	for i := 1; i < len(b.Txs); i++ {
		if b.Txs[i].Tid != b.Txs[i-1].Tid+1 {
			return fmt.Errorf("types: block %d tids not consecutive at %d", b.Header.Height, i)
		}
	}
	if merkle.RootWorkers(TxLeavesWorkers(b.Txs, workers), workers) != b.Header.TransRoot {
		return fmt.Errorf("types: block %d merkle root mismatch", b.Header.Height)
	}
	return nil
}
