package node

import (
	"fmt"
	"hash/crc32"

	"sebdb/internal/core"
	"sebdb/internal/network"
	"sebdb/internal/obs"
	"sebdb/internal/snapshot"
	"sebdb/internal/types"
)

// Snapshot fast-sync: a fresh node bootstraps from a peer in one
// streaming pass instead of the block-by-block catch-up of gossip. The
// trust model is strict — the peer supplies nothing the node installs
// unverified:
//
//   - The header chain is linkage- and signature-checked first; every
//     streamed block body must Merkle-commit to its agreed header
//     (storage.Append re-validates the TransRoot), so bodies are
//     tamper-evident.
//   - All derived state — catalog, contracts, table bitmaps, layered
//     indexes, ALIs, high-water marks — is rebuilt locally from those
//     verified bodies while they stream, and the checkpoint installed
//     at the end is the locally derived one.
//   - The peer's own checkpoint — the pinned prefix of its checkpoint
//     log, shipped as one byte stream and folded by snapshot.Decode — is
//     downloaded as an integrity cross-check and an index-definition
//     hint: its chain-derived facts must agree with the local rebuild
//     (snapshot.Diverges), and its user index definitions (names only,
//     never contents) tell the fresh node which indexes to build from
//     its own chain.
//
// A lying peer can therefore waste a node's time but never poison its
// state: the worst a fabricated checkpoint achieves is a rejected sync.

// snapChunkSize keeps each chunk frame well under network.MaxFrame.
const snapChunkSize = 1 << 20

// maxSnapshotBytes bounds a serveable checkpoint log; FastSync rejects
// offers claiming more than the same bound.
const maxSnapshotBytes = network.MaxFrame * 64

// SnapshotOffer describes the checkpoint a peer is willing to serve.
type SnapshotOffer struct {
	// Height and Anchor pin the checkpoint (state covers [0, Height),
	// Anchor is block Height-1's hash).
	Height uint64
	Anchor types.Hash
	// Size and CRC describe the pinned checkpoint log (every frame up to
	// Height); Chunks is how many ChunkSize-sized pieces it transfers as.
	Size      uint64
	CRC       uint32
	ChunkSize uint32
	Chunks    uint32
}

func (o *SnapshotOffer) encode() []byte {
	e := types.NewEncoder(64)
	e.Uint64(o.Height)
	e.Bytes32(o.Anchor)
	e.Uint64(o.Size)
	e.Uint32(o.CRC)
	e.Uint32(o.ChunkSize)
	e.Uint32(o.Chunks)
	return e.Bytes()
}

func decodeSnapshotOffer(buf []byte) (*SnapshotOffer, error) {
	d := types.NewDecoder(buf)
	o := &SnapshotOffer{}
	var err error
	if o.Height, err = d.Uint64(); err != nil {
		return nil, err
	}
	if o.Anchor, err = d.Bytes32(); err != nil {
		return nil, err
	}
	if o.Size, err = d.Uint64(); err != nil {
		return nil, err
	}
	if o.CRC, err = d.Uint32(); err != nil {
		return nil, err
	}
	if o.ChunkSize, err = d.Uint32(); err != nil {
		return nil, err
	}
	if o.Chunks, err = d.Uint32(); err != nil {
		return nil, err
	}
	return o, nil
}

// checkOffer rejects offers whose self-declared geometry is degenerate
// or implausible before any allocation or transfer happens — Size,
// ChunkSize and Chunks are all attacker-controlled.
func checkOffer(o *SnapshotOffer) error {
	if o.Height == 0 || o.ChunkSize == 0 || o.Chunks == 0 {
		return fmt.Errorf("node: degenerate snapshot offer")
	}
	if uint64(o.Chunks)*uint64(o.ChunkSize) > maxSnapshotBytes {
		return fmt.Errorf("node: snapshot offer of %d chunks is implausible", o.Chunks)
	}
	if o.Size > maxSnapshotBytes || o.Size > uint64(o.Chunks)*uint64(o.ChunkSize) {
		return fmt.Errorf("node: snapshot offer of %d bytes is implausible", o.Size)
	}
	return nil
}

// offerFromManifest derives the wire offer for the manifest's payload.
func offerFromManifest(m *snapshot.Manifest) (*SnapshotOffer, error) {
	if m.Size > maxSnapshotBytes {
		return nil, fmt.Errorf("node: checkpoint of %d bytes exceeds the serveable bound", m.Size)
	}
	return &SnapshotOffer{
		Height:    m.Height,
		Anchor:    m.Anchor,
		Size:      m.Size,
		CRC:       m.CRC,
		ChunkSize: snapChunkSize,
		Chunks:    uint32((m.Size + snapChunkSize - 1) / snapChunkSize),
	}, nil
}

func (n *FullNode) handleSnapOffer([]byte) ([]byte, error) {
	m, err := n.Engine.SnapshotDir().Manifest()
	if err != nil {
		return nil, err
	}
	if m == nil {
		return nil, fmt.Errorf("node: no checkpoint available")
	}
	o, err := offerFromManifest(m)
	if err != nil {
		return nil, err
	}
	return o.encode(), nil
}

func (n *FullNode) handleSnapChunk(payload []byte) ([]byte, error) {
	idx, err := types.NewDecoder(payload).Uint32()
	if err != nil {
		return nil, err
	}
	raw, err := n.snapshotPayload()
	if err != nil {
		return nil, err
	}
	lo := uint64(idx) * snapChunkSize
	if lo >= uint64(len(raw)) {
		return nil, fmt.Errorf("node: chunk %d beyond checkpoint of %d bytes", idx, len(raw))
	}
	hi := lo + snapChunkSize
	if hi > uint64(len(raw)) {
		hi = uint64(len(raw))
	}
	e := types.NewEncoder(int(hi-lo) + 16)
	e.Uint32(idx)
	e.Blob(raw[lo:hi])
	return e.Bytes(), nil
}

// snapshotPayload returns the pinned checkpoint log, memoised per
// manifest: each request re-reads only the small manifest and the log
// is read (and CRC-verified) from disk once per checkpoint, not once per
// chunk.
func (n *FullNode) snapshotPayload() ([]byte, error) {
	dir := n.Engine.SnapshotDir()
	m, err := dir.Manifest()
	if err != nil {
		return nil, err
	}
	if m == nil {
		return nil, fmt.Errorf("node: no checkpoint available")
	}
	n.snap.mu.Lock()
	defer n.snap.mu.Unlock()
	if n.snap.payload != nil && n.snap.man == *m {
		return n.snap.payload, nil
	}
	//sebdb:ignore-lockio reason: n.snap.mu guards only the serving cache, not the engine; reading the checkpoint under it is what keeps concurrent chunk requests from re-reading the file
	mm, payload, err := dir.Raw()
	if err != nil {
		return nil, err
	}
	if mm == nil {
		return nil, fmt.Errorf("node: no checkpoint available")
	}
	n.snap.man, n.snap.payload = *mm, payload
	return payload, nil
}

// SnapshotOffer asks the peer what checkpoint it can serve.
func (r *Remote) SnapshotOffer() (*SnapshotOffer, error) {
	resp, err := r.client.Call(network.KindSnapOffer, nil)
	if err != nil {
		return nil, err
	}
	return decodeSnapshotOffer(resp)
}

// SnapshotChunk fetches one checkpoint chunk by index.
func (r *Remote) SnapshotChunk(idx uint32) ([]byte, error) {
	e := types.NewEncoder(8)
	e.Uint32(idx)
	resp, err := r.client.Call(network.KindSnapChunk, e.Bytes())
	if err != nil {
		return nil, err
	}
	d := types.NewDecoder(resp)
	got, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	if got != idx {
		return nil, fmt.Errorf("node: chunk %d answered for request %d", got, idx)
	}
	return d.Blob()
}

// SnapshotOffer serves the offer without a network hop.
func (l *Local) SnapshotOffer() (*SnapshotOffer, error) {
	resp, err := l.Node.handleSnapOffer(nil)
	if err != nil {
		return nil, err
	}
	return decodeSnapshotOffer(resp)
}

// SnapshotChunk serves one chunk without a network hop.
func (l *Local) SnapshotChunk(idx uint32) ([]byte, error) {
	e := types.NewEncoder(8)
	e.Uint32(idx)
	resp, err := l.Node.handleSnapChunk(e.Bytes())
	if err != nil {
		return nil, err
	}
	d := types.NewDecoder(resp)
	if _, err := d.Uint32(); err != nil {
		return nil, err
	}
	return d.Blob()
}

// FastSyncResult summarises one bootstrap.
type FastSyncResult struct {
	// CheckpointHeight is the height of the installed checkpoint.
	CheckpointHeight uint64
	// Blocks is how many block bodies were streamed into local storage.
	Blocks uint64
	// ChunkBytes is the total checkpoint transfer volume.
	ChunkBytes uint64
}

// FastSync bootstraps an empty data directory from a peer. It fetches
// the peer's checkpoint offer, independently verifies the offered
// anchor against the peer's linkage- and signature-checked header
// chain, then streams the block bodies for [0, Height) through a local
// engine — each body is checked against its agreed header (hash and
// Merkle root) and indexed as it lands, so every piece of derived state
// is rebuilt from verified data. The peer's checkpoint payload is then
// downloaded, CRC-checked and cross-validated against the local rebuild
// (its user index definitions are adopted and backfilled from the local
// chain); the checkpoint finally installed is the locally derived one,
// never the peer's bytes. A subsequent core.Open seeds all derived
// state from that checkpoint and replays nothing; blocks past the
// checkpoint arrive through normal gossip. reg selects the metrics
// registry (nil = obs.Default).
func FastSync(dataDir string, peer QueryNode, reg *obs.Registry) (*FastSyncResult, error) {
	return FastSyncWithLog(dataDir, peer, reg, nil)
}

// FastSyncWithLog is FastSync with structured progress and rejection
// events on log (nil disables them).
func FastSyncWithLog(dataDir string, peer QueryNode, reg *obs.Registry, log *obs.Logger) (*FastSyncResult, error) {
	if reg == nil {
		reg = obs.Default
	}
	log = log.With("fastsync")
	offer, err := peer.SnapshotOffer()
	if err != nil {
		return nil, err
	}
	if err := checkOffer(offer); err != nil {
		log.Warn("snapshot offer rejected", "err", err)
		return nil, err
	}
	log.Info("snapshot offer accepted",
		"height", offer.Height, "bytes", offer.Size, "chunks", offer.Chunks)

	// The header chain is the consensus-agreed spine: verify linkage and
	// signatures first, then demand the offered anchor sits on it.
	headers, err := peer.Headers(0)
	if err != nil {
		return nil, err
	}
	if uint64(len(headers)) < offer.Height {
		return nil, fmt.Errorf("node: offer at height %d beyond peer's %d headers", offer.Height, len(headers))
	}
	for i := range headers {
		if headers[i].Height != uint64(i) {
			return nil, fmt.Errorf("node: header %d carries height %d", i, headers[i].Height)
		}
		if i > 0 && headers[i].PrevHash != headers[i-1].Hash() {
			return nil, fmt.Errorf("node: header chain breaks at height %d", i)
		}
		if !headers[i].VerifySig() {
			return nil, fmt.Errorf("node: header %d fails signature verification", i)
		}
	}
	if headers[offer.Height-1].Hash() != offer.Anchor {
		return nil, fmt.Errorf("node: offered anchor disagrees with the header chain at height %d", offer.Height-1)
	}

	eng, err := core.Open(core.Config{Dir: dataDir, Obs: reg})
	if err != nil {
		return nil, err
	}
	res, err := fastSyncInto(eng, offer, headers, peer, reg, log)
	cerr := eng.Close()
	if err != nil {
		return nil, err
	}
	if cerr != nil {
		return nil, cerr
	}
	log.Info("fast-sync complete",
		"height", res.CheckpointHeight, "blocks", res.Blocks, "chunk_bytes", res.ChunkBytes)
	return res, nil
}

// fastSyncInto streams and verifies the chain into eng, rebuilds the
// derived state, cross-checks the peer's checkpoint and persists the
// local one. It never closes eng.
func fastSyncInto(eng *core.Engine, offer *SnapshotOffer, headers []types.BlockHeader, peer QueryNode, reg *obs.Registry, log *obs.Logger) (*FastSyncResult, error) {
	if eng.Height() != 0 {
		return nil, fmt.Errorf("node: fast-sync needs an empty data directory (found %d blocks)", eng.Height())
	}

	// Stream the block bodies through the engine: ApplyBlock's append
	// re-validates each body against its header's Merkle root, and the
	// header must be the consensus-agreed one for that height, so the
	// catalog, bitmaps and indexes built here derive from verified data
	// only.
	mBlocks := reg.Counter("sebdb_fastsync_blocks_total")
	for h := uint64(0); h < offer.Height; h++ {
		b, err := peer.BlockAt(h)
		if err != nil {
			return nil, fmt.Errorf("node: fast-sync block %d: %w", h, err)
		}
		if b.Header.Hash() != headers[h].Hash() {
			return nil, fmt.Errorf("node: peer served a block %d off the agreed chain", h)
		}
		if err := eng.ApplyBlock(b); err != nil {
			return nil, fmt.Errorf("node: fast-sync append %d: %w", h, err)
		}
		mBlocks.Inc()
	}

	// Download and reassemble the peer's checkpoint payload. The offer
	// geometry was validated up front, so Size bounds the allocation.
	mChunks := reg.Counter("sebdb_fastsync_chunks_total")
	mBytes := reg.Counter("sebdb_fastsync_chunk_bytes_total")
	hLat := reg.Histogram("sebdb_fastsync_chunk_micros")
	payload := make([]byte, 0, offer.Size)
	for i := uint32(0); i < offer.Chunks; i++ {
		t0 := reg.Now()
		chunk, err := peer.SnapshotChunk(i)
		if err != nil {
			return nil, err
		}
		hLat.Observe(reg.Now() - t0)
		mChunks.Inc()
		mBytes.Add(uint64(len(chunk)))
		if uint64(len(chunk)) > uint64(offer.ChunkSize) ||
			uint64(len(payload))+uint64(len(chunk)) > offer.Size {
			return nil, fmt.Errorf("node: chunk %d overflows the offered checkpoint size", i)
		}
		payload = append(payload, chunk...)
	}
	if uint64(len(payload)) != offer.Size {
		return nil, fmt.Errorf("node: checkpoint transfer of %d bytes, offer said %d", len(payload), offer.Size)
	}
	if crc32.ChecksumIEEE(payload) != offer.CRC {
		return nil, fmt.Errorf("node: checkpoint transfer fails CRC")
	}
	ck, err := snapshot.Decode(payload)
	if err != nil {
		return nil, err
	}
	if ck.Height != offer.Height || ck.Anchor != offer.Anchor {
		return nil, fmt.Errorf("node: peer checkpoint disagrees with its offer")
	}

	// Adopt the peer's user index *definitions* (never their contents):
	// each one is created locally and backfilled from the verified
	// chain, exactly as if the operator had issued it.
	for i := range ck.Indexes {
		key := ck.Indexes[i].Key
		if key == ".senid" || key == ".tname" {
			continue
		}
		table, col := splitIndexKey(key)
		if err := eng.CreateIndex(table, col); err != nil {
			return nil, fmt.Errorf("node: peer index %q: %w", key, err)
		}
	}
	for i := range ck.ALIs {
		table, col := splitIndexKey(ck.ALIs[i].Key)
		if err := eng.CreateAuthIndex(table, col); err != nil {
			return nil, fmt.Errorf("node: peer auth index %q: %w", ck.ALIs[i].Key, err)
		}
	}

	// Cross-validate: every chain-derived fact in the peer's checkpoint
	// must match the state just rebuilt from verified blocks. What gets
	// installed is the local derivation either way; a divergence only
	// proves the peer lied and aborts the sync.
	local, err := eng.BuildCheckpoint()
	if err != nil {
		return nil, err
	}
	if err := snapshot.Diverges(ck, local); err != nil {
		reg.Counter("sebdb_fastsync_divergent_checkpoints_total").Inc()
		log.Error("peer checkpoint diverges from local rebuild",
			"height", ck.Height, "err", err)
		return nil, fmt.Errorf("node: peer checkpoint rejected: %w", err)
	}
	if err := eng.SnapshotDir().Write(local); err != nil {
		return nil, err
	}
	return &FastSyncResult{
		CheckpointHeight: local.Height,
		Blocks:           offer.Height,
		ChunkBytes:       uint64(len(payload)),
	}, nil
}

// splitIndexKey splits an index registry key ("table.col", or ".col"
// for system columns) into its parts.
func splitIndexKey(key string) (table, col string) {
	for i := 0; i < len(key); i++ {
		if key[i] == '.' {
			return key[:i], key[i+1:]
		}
	}
	return "", key
}
