// Package snapshot implements SEBDB's checkpoint subsystem: a
// CRC-framed, append-only log of the engine's derived state — layered
// indexes and ALIs — pinned to a block height and an
// anchor block hash. A frame holds no definitions: tables, contracts and
// index definitions are chain records, which the engine resolves from
// the blocks, so a frame names each index by its key alone. Nor does it
// hold block-store state: the store opens by its own scan, and the
// engine holds the frame's anchor to the chain that scan found. Every
// index the paper defines is per block and immutable once the block is
// sealed, so each frame carries the state of one block window
// [Lo, Height) and a checkpoint costs what was committed since the
// previous one, not what the chain holds. The chain remains the only
// source of truth: a checkpoint merely lets Engine.Open seed state for
// blocks [0, Height) and replay only the suffix, and any corrupt or
// stale frame ends the usable prefix in favour of replay (never wrong
// answers, only slower ones).
//
// On-disk layout, inside <data-dir>/snapshots/:
//
//	index-<gen>.log   frames, appended in height order
//	MANIFEST          pins {height, anchor, log file, length, crc}
//
// A frame is appended and fsynced before the manifest — written to a
// .tmp sibling, synced and renamed into place — pins the new length,
// so a crash leaves either the previous pin or the new one; bytes past
// the pinned length are ignored by Load and truncated by the next
// Write (see faultfs crash tests and DESIGN.md "Checkpoints").
package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"sebdb/internal/index/layered"
	"sebdb/internal/types"
)

const (
	frameMagic    = 0x5EBD_C4B8
	manifestMagic = 0x5EBD_3A1F
	// version 6 is the windowed log frame without definitions,
	// block-store state or table-level bitmaps (the built-in Tname and
	// SenID indexes hold those). An older manifest fails the version
	// check, which callers treat as "no checkpoint" and fall back to full
	// replay.
	version = 6

	// A frame is magic, payload length, payload and the payload's
	// CRC-32 — the segment store's record framing.
	frameHeader  = 8
	frameTrailer = 4
)

// ErrCorrupt is returned when a frame or manifest fails its CRC, magic
// or structural checks. Callers treat it as "no checkpoint".
var ErrCorrupt = errors.New("snapshot: corrupt checkpoint")

// IndexState is the serialised form of one layered index or ALI: its
// key and the per-block second-level entries. Its definition — column,
// kind, histogram bounds — is the chain's _index record (built in for
// the system keys), and replaying the entries through AppendRun of the
// index that definition builds reproduces the index exactly. An ALI's
// entries name the indexed transactions only: their encodings — the
// authenticated payloads — are already in the block files, and restore
// reads no body. A block's MB-tree is built from the entries and the
// block's body the first time a query needs it, so every root is
// re-derived from the chain. No tuple is stored twice and no digest is
// persisted, so a tampered checkpoint cannot forge authentication
// state.
type IndexState struct {
	// Key is the engine's registry key (e.g. "donate.money" or the
	// system keys ".senid"/".tname").
	Key string
	// Blocks holds, per block of the window, the entries in key order
	// (nil for blocks without indexed rows). Pos is the transaction's
	// position in its block, for an ALI as for a layered index.
	Blocks [][]layered.Entry
}

// Checkpoint is the derived state of an engine for one block window:
// what one log frame holds, and — with Lo == 0, as BuildCheckpoint,
// Decode and Dir.Load return it — the whole state at a block height.
type Checkpoint struct {
	// Lo and Height bound the window: per-block state covers blocks
	// [Lo, Height); everything else reflects the chain at Height.
	Lo, Height uint64
	// Prev is the hash of block Lo-1 (zero when Lo is 0): a frame
	// continues the log only when Prev is the anchor of the frame before.
	Prev types.Hash
	// Anchor is the hash of block Height-1, pinning the checkpoint to
	// one specific chain.
	Anchor types.Hash
	// LastTid and LastTs are the engine's transaction-id and
	// block-timestamp high-water marks.
	LastTid uint64
	LastTs  int64
	// Indexes are the layered indexes (system and user), key order.
	Indexes []IndexState
	// ALIs are the authenticated indexes, key order.
	ALIs []IndexState
}

// Encode renders the checkpoint as one complete log frame, header and
// CRC trailer included: what Dir.Write appends, and — for a whole-state
// checkpoint — a one-frame log Decode accepts.
func (c *Checkpoint) Encode() []byte {
	e := types.NewEncoder(1 << 16)
	e.Uint32(frameMagic)
	e.Uint32(0) // payload length, patched below

	e.Uint32(version)
	e.Uint64(c.Lo)
	e.Uint64(c.Height)
	e.Bytes32(c.Prev)
	e.Bytes32(c.Anchor)
	e.Uint64(c.LastTid)
	e.Int64(c.LastTs)
	encodeIndexKeys(e, c)

	// Window: the per-block state of [Lo, Height).
	for i := range c.Indexes {
		encodeIndexBlocks(e, c.Indexes[i].Blocks)
	}
	for i := range c.ALIs {
		encodeIndexBlocks(e, c.ALIs[i].Blocks)
	}

	n := e.Len() - frameHeader
	if n > math.MaxUint32 {
		panic(fmt.Sprintf("snapshot: frame of %d bytes does not fit the uint32 length prefix", n))
	}
	binary.BigEndian.PutUint32(e.Bytes()[4:], uint32(n))
	e.Uint32(crc32.ChecksumIEEE(e.Bytes()[frameHeader:]))
	return e.Bytes()
}

// encodeIndexKeys renders the keys — not the contents — of every index
// and ALI. One log generation holds one index set; Dir compares these
// bytes to refuse a window that would change it.
func encodeIndexKeys(e *types.Encoder, c *Checkpoint) {
	for _, states := range [][]IndexState{c.Indexes, c.ALIs} {
		e.Count(len(states))
		for i := range states {
			e.Str(states[i].Key)
		}
	}
}

func indexKeys(c *Checkpoint) []byte {
	e := types.NewEncoder(256)
	encodeIndexKeys(e, c)
	return e.Bytes()
}

// encodeIndexBlocks renders one index's per-block entries.
func encodeIndexBlocks(e *types.Encoder, blocks [][]layered.Entry) {
	for _, es := range blocks {
		e.Uvarint(uint64(len(es)))
		for _, en := range es {
			e.Value(en.Key)
			e.Uvarint(uint64(en.Pos))
		}
	}
}

// Decode parses a checkpoint log — one or more frames, as Encode and
// Dir.Write produce them — and folds it into the whole state at its last
// frame's height. Every frame must verify and continue the one before;
// Dir.Load is the lenient reader that settles for a valid prefix.
func Decode(buf []byte) (*Checkpoint, error) {
	c, _, err := decodeLog(buf)
	if err != nil {
		return nil, err
	}
	if c == nil {
		return nil, fmt.Errorf("%w: empty log", ErrCorrupt)
	}
	return c, nil
}

// decodeLog folds the longest prefix of buf that is a run of valid
// frames tiling [0, h) and reports how many bytes that prefix spans.
// err says why the fold stopped short of len(buf), nil when it did not;
// c is nil when not even the first frame was usable.
func decodeLog(buf []byte) (c *Checkpoint, used int, err error) {
	for used < len(buf) {
		rest := buf[used:]
		if len(rest) < frameHeader+frameTrailer || binary.BigEndian.Uint32(rest) != frameMagic {
			return c, used, fmt.Errorf("%w: bad frame header at offset %d", ErrCorrupt, used)
		}
		n := int(binary.BigEndian.Uint32(rest[4:]))
		if n > len(rest)-frameHeader-frameTrailer {
			return c, used, fmt.Errorf("%w: torn frame at offset %d", ErrCorrupt, used)
		}
		payload := rest[frameHeader : frameHeader+n]
		if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(rest[frameHeader+n:]) {
			return c, used, fmt.Errorf("%w: frame CRC mismatch at offset %d", ErrCorrupt, used)
		}
		f, err := decodeFrame(payload)
		if err != nil {
			return c, used, err
		}
		if c == nil {
			if f.Lo != 0 {
				return nil, used, fmt.Errorf("%w: log starts at block %d", ErrCorrupt, f.Lo)
			}
			c = f
		} else if err := c.extend(f); err != nil {
			return c, used, err
		}
		used += frameHeader + n + frameTrailer
	}
	return c, used, nil
}

// extend folds the next frame onto c. The frame must continue c — its
// window starts at c's height, its Prev is c's anchor — and keep the
// generation's index set.
func (c *Checkpoint) extend(f *Checkpoint) error {
	if f.Lo != c.Height || f.Prev != c.Anchor {
		return fmt.Errorf("%w: frame [%d,%d) does not continue the log at %d", ErrCorrupt, f.Lo, f.Height, c.Height)
	}
	if !bytes.Equal(indexKeys(f), indexKeys(c)) {
		return fmt.Errorf("%w: frame [%d,%d) changes the index set", ErrCorrupt, f.Lo, f.Height)
	}
	c.Height, c.Anchor, c.LastTid, c.LastTs = f.Height, f.Anchor, f.LastTid, f.LastTs
	for i := range f.Indexes {
		c.Indexes[i].Blocks = append(c.Indexes[i].Blocks, f.Indexes[i].Blocks...)
	}
	for i := range f.ALIs {
		c.ALIs[i].Blocks = append(c.ALIs[i].Blocks, f.ALIs[i].Blocks...)
	}
	return nil
}

// decodeFrame parses one frame payload. Every count is held to the
// bytes that remain before anything is allocated for it, and a window
// starting at block 0 follows no block.
func decodeFrame(buf []byte) (*Checkpoint, error) {
	d := types.NewDecoder(buf)
	ver, err := d.Uint32()
	if err != nil || ver != version {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, ver)
	}
	c := &Checkpoint{}
	if c.Lo, err = d.Uint64(); err != nil {
		return nil, corrupt(err)
	}
	if c.Height, err = d.Uint64(); err != nil {
		return nil, corrupt(err)
	}
	// Block ids are uint32 throughout the indexes.
	if c.Height <= c.Lo || c.Height > math.MaxUint32 {
		return nil, fmt.Errorf("%w: implausible window [%d,%d)", ErrCorrupt, c.Lo, c.Height)
	}
	nb := int(c.Height - c.Lo)
	if c.Prev, err = d.Bytes32(); err != nil {
		return nil, corrupt(err)
	}
	if c.Lo == 0 && c.Prev != (types.Hash{}) {
		return nil, fmt.Errorf("%w: a window at block 0 names a previous block", ErrCorrupt)
	}
	if c.Anchor, err = d.Bytes32(); err != nil {
		return nil, corrupt(err)
	}
	if c.LastTid, err = d.Uint64(); err != nil {
		return nil, corrupt(err)
	}
	if c.LastTs, err = d.Int64(); err != nil {
		return nil, corrupt(err)
	}
	for _, states := range []*[]IndexState{&c.Indexes, &c.ALIs} {
		n, err := count(d)
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			key, err := d.Str()
			if err != nil {
				return nil, corrupt(err)
			}
			*states = append(*states, IndexState{Key: key})
		}
	}

	for _, states := range [][]IndexState{c.Indexes, c.ALIs} {
		for i := range states {
			if states[i].Blocks, err = decodeIndexBlocks(d, nb); err != nil {
				return nil, err
			}
		}
	}
	if d.Remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, d.Remaining())
	}
	return c, nil
}

func decodeIndexBlocks(d *types.Decoder, nb int) ([][]layered.Entry, error) {
	if nb > d.Remaining() {
		return nil, fmt.Errorf("%w: %d index blocks in %d remaining bytes", ErrCorrupt, nb, d.Remaining())
	}
	blocks := make([][]layered.Entry, nb)
	for b := range blocks {
		ne, err := d.Uvarint()
		if err != nil || ne > uint64(d.Remaining()) {
			return nil, fmt.Errorf("%w: bad index entry count", ErrCorrupt)
		}
		if ne == 0 {
			continue
		}
		es := make([]layered.Entry, ne)
		for j := range es {
			if es[j].Key, err = d.Value(); err != nil {
				return nil, corrupt(err)
			}
			pos, err := d.Uvarint()
			if err != nil || pos > math.MaxUint32 {
				return nil, fmt.Errorf("%w: bad index entry position", ErrCorrupt)
			}
			es[j].Pos = uint32(pos)
		}
		blocks[b] = es
	}
	return blocks, nil
}

// count reads a count prefix and bounds it by the remaining bytes —
// every counted element occupies at least one byte, so a count beyond
// Remaining proves corruption before any allocation happens.
func count(d *types.Decoder) (int, error) {
	n, err := d.Uint32()
	if err != nil {
		return 0, corrupt(err)
	}
	if int(n) > d.Remaining() {
		return 0, fmt.Errorf("%w: count %d exceeds %d remaining bytes", ErrCorrupt, n, d.Remaining())
	}
	return int(n), nil
}

func corrupt(err error) error { return fmt.Errorf("%w: %v", ErrCorrupt, err) }
