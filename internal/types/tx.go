package types

import (
	"crypto/ed25519"
	"crypto/sha256"
	"errors"
)

// Hash is the 32-byte SHA-256 digest used throughout SEBDB.
type Hash = [32]byte

// Transaction is one on-chain tuple. Following the paper (§IV-A), every
// transaction carries the system-level attributes Tid, Ts, Sig, SenID
// and Tname, plus the application-level attributes of its table's
// schema, in schema order.
type Transaction struct {
	// Tid is the globally unique, monotonically increasing transaction id
	// assigned when the transaction is ordered into a block.
	Tid uint64
	// Ts is the time the transaction was sent, in Unix microseconds.
	Ts int64
	// SenID identifies the sender (a participant of the consortium).
	SenID string
	// Tname is the transaction type, i.e. the table the tuple belongs to.
	Tname string
	// Sig is the sender's ed25519 signature over SigningBytes.
	Sig []byte
	// PubKey is the sender's ed25519 public key. In a deployed consortium
	// the key would be looked up in a membership registry; carrying it in
	// the transaction keeps verification self-contained.
	PubKey []byte
	// Args holds the application-level attribute values in schema order.
	Args []Value

	// enc caches the canonical encoding computed by Seal, with the
	// (Tid, Ts) it was computed for. Those are the two fields legitimately
	// mutated after construction (Tid assignment at commit, loaders
	// re-stamping Ts), so a stale cache is detected by comparing them;
	// mutating any other field after Seal is a bug. Only Seal writes
	// these fields — EncodeBytes merely reads them — so sealed
	// transactions can be encoded from many goroutines at once.
	enc    []byte
	encTid uint64
	encTs  int64
}

// SigningBytes is the deterministic encoding the sender signs: all
// fields except Tid (assigned post-ordering) and the signature itself.
func (t *Transaction) SigningBytes() []byte {
	e := NewEncoder(64 + 16*len(t.Args))
	e.Int64(t.Ts)
	e.Str(t.SenID)
	e.Str(t.Tname)
	e.Blob(t.PubKey)
	e.Values(t.Args)
	return e.Bytes()
}

// Sign signs the transaction with the given private key and records the
// matching public key.
func (t *Transaction) Sign(priv ed25519.PrivateKey) {
	t.PubKey = append([]byte(nil), priv.Public().(ed25519.PublicKey)...)
	t.Sig = ed25519.Sign(priv, t.SigningBytes())
}

// VerifySig checks the sender signature. Transactions created before a
// key was configured (e.g. genesis/schema bootstrap) carry no signature
// and fail verification.
func (t *Transaction) VerifySig() bool {
	if len(t.PubKey) != ed25519.PublicKeySize || len(t.Sig) != ed25519.SignatureSize {
		return false
	}
	return ed25519.Verify(ed25519.PublicKey(t.PubKey), t.SigningBytes(), t.Sig)
}

// Encode serialises the full transaction including Tid and signature.
func (t *Transaction) Encode(e *Encoder) {
	e.Uint64(t.Tid)
	e.Int64(t.Ts)
	e.Str(t.SenID)
	e.Str(t.Tname)
	e.Blob(t.Sig)
	e.Blob(t.PubKey)
	e.Values(t.Args)
}

// EncodeBytes returns the transaction's canonical encoding: the bytes
// cached by a prior Seal when still current, a fresh encoding otherwise.
// The returned slice may alias the seal cache and must not be modified.
func (t *Transaction) EncodeBytes() []byte {
	if t.enc != nil && t.encTid == t.Tid && t.encTs == t.Ts {
		return t.enc
	}
	e := NewEncoder(96 + 16*len(t.Args))
	t.Encode(e)
	return e.Bytes()
}

// Seal computes, caches and returns the canonical encoding. The commit
// pipeline seals every transaction exactly once in its prepare stage —
// after Tid assignment, fanned out over the worker pool — so Merkle
// leaf hashing, block encoding and ALI record extraction all reuse one
// buffer instead of each re-encoding the transaction. Seal is not safe
// for concurrent use on the same transaction; once sealed, concurrent
// EncodeBytes calls are.
func (t *Transaction) Seal() []byte {
	if t.enc != nil && t.encTid == t.Tid && t.encTs == t.Ts {
		return t.enc
	}
	e := NewEncoder(96 + 16*len(t.Args))
	t.Encode(e)
	t.enc, t.encTid, t.encTs = e.Bytes(), t.Tid, t.Ts
	return t.enc
}

// DecodeTransaction reads one transaction from d.
func DecodeTransaction(d *Decoder) (*Transaction, error) {
	t := &Transaction{}
	if err := decodeTx(d, t); err != nil {
		return nil, err
	}
	return t, nil
}

// decodeTx reads one transaction from d into t, reusing t.Args's
// storage when it is large enough. Strings and blobs alias the decode
// buffer when d does (FilterBlock's scratch) and are copies otherwise.
func decodeTx(d *Decoder, t *Transaction) error {
	var err error
	if t.Tid, err = d.Uint64(); err != nil {
		return err
	}
	if t.Ts, err = d.Int64(); err != nil {
		return err
	}
	if t.SenID, err = d.Str(); err != nil {
		return err
	}
	if t.Tname, err = d.Str(); err != nil {
		return err
	}
	if t.Sig, err = d.Blob(); err != nil {
		return err
	}
	if t.PubKey, err = d.Blob(); err != nil {
		return err
	}
	t.Args, err = d.values(t.Args)
	return err
}

// SkipTransaction advances d past one transaction's encoding without
// building it: it accepts and refuses exactly the inputs
// DecodeTransaction does, consumes the same bytes, and allocates nothing
// on success. The block store walks bodies with it to learn transaction
// offsets.
func SkipTransaction(d *Decoder) error {
	if _, err := d.take(8 + 8); err != nil { // Tid, Ts
		return err
	}
	for range 4 { // SenID, Tname, Sig, PubKey
		if err := d.skipPrefixed(); err != nil {
			return err
		}
	}
	n, err := d.Uint32()
	if err != nil {
		return err
	}
	if int(n) > d.Remaining() { // the same bound Values applies
		return ErrCorrupt
	}
	for range n {
		if err := d.skipValue(); err != nil {
			return err
		}
	}
	return nil
}

// Hash returns the SHA-256 digest of the encoded transaction; it is the
// leaf value of the block's Merkle tree.
func (t *Transaction) Hash() Hash {
	return sha256.Sum256(t.EncodeBytes())
}

// Size returns the encoded size in bytes, used by the block packager to
// respect the configured block size.
func (t *Transaction) Size() int { return len(t.EncodeBytes()) }

// SystemColumns are the names of the system-level attributes every
// SEBDB table implicitly starts with (paper §III-A/IV-A).
var SystemColumns = []string{"tid", "ts", "senid", "tname"}

// ErrNotSystemColumn is returned, bare, by SystemColumnKind and
// SystemValue for any other name. Every application-column lookup
// takes this path once per predicate per tuple, so it builds nothing.
var ErrNotSystemColumn = errors.New("types: not a system column")

// SystemColumnKind returns the kind of a system-level column, or
// ErrNotSystemColumn.
func SystemColumnKind(name string) (Kind, error) {
	switch name {
	case "tid":
		return KindInt, nil
	case "ts":
		return KindTimestamp, nil
	case "senid", "tname":
		return KindString, nil
	default:
		return KindNull, ErrNotSystemColumn
	}
}

// SystemValue extracts the value of a system-level column from t.
func (t *Transaction) SystemValue(name string) (Value, error) {
	switch name {
	case "tid":
		return Int(int64(t.Tid)), nil
	case "ts":
		return Time(t.Ts), nil
	case "senid":
		return Str(t.SenID), nil
	case "tname":
		return Str(t.Tname), nil
	default:
		return Null, ErrNotSystemColumn
	}
}

// ErrNoColumn is returned by Column for an out-of-range index.
var ErrNoColumn = errors.New("types: column index out of range")

// Column returns the i-th application-level attribute.
func (t *Transaction) Column(i int) (Value, error) {
	if i < 0 || i >= len(t.Args) {
		return Null, ErrNoColumn
	}
	return t.Args[i], nil
}
