package node_test

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"strings"
	"testing"
	"time"

	"sebdb/internal/clock"
	"sebdb/internal/core"
	"sebdb/internal/node"
	"sebdb/internal/obs"
	"sebdb/internal/snapshot"
	"sebdb/internal/types"
)

// checkpointedNode is a seeded node that has written a checkpoint.
func checkpointedNode(t testing.TB, nBlocks, txPerBlock int) *node.FullNode {
	t.Helper()
	fn := seededNode(t, nBlocks, txPerBlock)
	if err := fn.Engine.WriteCheckpoint(); err != nil {
		t.Fatal(err)
	}
	return fn
}

func TestFastSyncOverTCP(t *testing.T) {
	source := checkpointedNode(t, 6, 5)
	addr, err := source.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	peer, err := node.DialNode(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()

	dir := t.TempDir()
	reg := obs.NewRegistry(clock.UnixMicro)
	res, err := node.FastSync(dir, peer, reg)
	if err != nil {
		t.Fatal(err)
	}
	srcHeight := source.Engine.Height()
	if res.CheckpointHeight != srcHeight || res.Blocks != srcHeight {
		t.Fatalf("fast-sync result %+v, source height %d", res, srcHeight)
	}
	if got := reg.Counter("sebdb_fastsync_chunks_total").Value(); got == 0 {
		t.Error("no chunk transfers recorded")
	}
	if got := reg.Counter("sebdb_fastsync_blocks_total").Value(); got != srcHeight {
		t.Errorf("blocks streamed = %d, want %d", got, srcHeight)
	}
	if reg.Histogram("sebdb_fastsync_chunk_micros").Snapshot().Count == 0 {
		t.Error("chunk latency not observed")
	}

	// The bootstrapped engine seeds from the checkpoint: zero blocks
	// replayed, and it answers exactly like the source.
	reg2 := obs.NewRegistry(clock.UnixMicro)
	e2, err := core.Open(core.Config{Dir: dir, Obs: reg2})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if e2.Height() != srcHeight {
		t.Fatalf("bootstrapped height = %d, want %d", e2.Height(), srcHeight)
	}
	if got := reg2.Counter("sebdb_snapshot_suffix_blocks").Value(); got != 0 {
		t.Errorf("bootstrapped open replayed %d blocks", got)
	}
	want, err := source.Engine.Execute(`SELECT * FROM donate WHERE amount BETWEEN 5 AND 9`)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e2.Execute(`SELECT * FROM donate WHERE amount BETWEEN 5 AND 9`)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != len(want.Rows) || len(got.Rows) == 0 {
		t.Fatalf("bootstrapped query rows = %d, source = %d", len(got.Rows), len(want.Rows))
	}
	// The ALI survived the transfer: serve locally and verify.
	if e2.CurrentView().AuthIndex("donate", "amount") == nil {
		t.Fatal("auth index missing after fast-sync")
	}

	// New blocks still flow to the bootstrapped node via gossip.
	n2 := node.New(e2)
	defer n2.Close()
	n2.Gossip.AddPeer(peer)
	tx, err := source.Engine.NewTransaction("org0", "donate", []types.Value{
		types.Str("donor99"), types.Str("health"), types.Dec(999),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := source.Engine.CommitBlock([]*types.Transaction{tx}, 99_000); err != nil {
		t.Fatal(err)
	}
	n2.Gossip.Round()
	deadline := time.Now().Add(5 * time.Second)
	for e2.Height() < source.Engine.Height() && time.Now().Before(deadline) {
		n2.Gossip.Round()
		time.Sleep(10 * time.Millisecond)
	}
	if e2.Height() != source.Engine.Height() {
		t.Fatalf("post-sync gossip stalled at %d of %d", e2.Height(), source.Engine.Height())
	}
}

func TestFastSyncRejectsTamperedOffer(t *testing.T) {
	source := checkpointedNode(t, 4, 3)
	local := &node.Local{Node: source, Name: "src"}

	// An offer whose anchor is off the agreed header chain must be
	// rejected before any transfer.
	bad := &tamperedPeer{QueryNode: local}
	if _, err := node.FastSync(t.TempDir(), bad, nil); err == nil {
		t.Fatal("tampered anchor accepted")
	}
}

// tamperedPeer relays a real node but flips a bit in the offered anchor.
type tamperedPeer struct {
	node.QueryNode
}

func (p *tamperedPeer) SnapshotOffer() (*node.SnapshotOffer, error) {
	o, err := p.QueryNode.SnapshotOffer()
	if err != nil {
		return nil, err
	}
	o.Anchor[0] ^= 1
	return o, nil
}

// poisoningPeer relays a real node but rewrites the checkpoint payload
// (with a self-consistent offer: matching Size and CRC) so the derived
// state it serves no longer agrees with the chain.
type poisoningPeer struct {
	node.QueryNode
	payload []byte
}

func (p *poisoningPeer) SnapshotOffer() (*node.SnapshotOffer, error) {
	o, err := p.QueryNode.SnapshotOffer()
	if err != nil {
		return nil, err
	}
	raw := make([]byte, 0, o.Size)
	for i := uint32(0); i < o.Chunks; i++ {
		chunk, err := p.QueryNode.SnapshotChunk(i)
		if err != nil {
			return nil, err
		}
		raw = append(raw, chunk...)
	}
	ck, err := snapshot.Decode(raw)
	if err != nil {
		return nil, err
	}
	// Poison chain-derived facts a query would trust: a phantom table
	// bitmap entry and a bumped transaction high-water mark.
	ck.TableIdx["donate"] = append(ck.TableIdx["donate"], 0)
	ck.LastTid += 7
	p.payload = ck.Encode()
	o.Size = uint64(len(p.payload))
	o.CRC = crc32.ChecksumIEEE(p.payload)
	o.Chunks = uint32((o.Size + uint64(o.ChunkSize) - 1) / uint64(o.ChunkSize))
	return o, nil
}

func (p *poisoningPeer) SnapshotChunk(idx uint32) ([]byte, error) {
	start := int(idx) << 20
	if start >= len(p.payload) {
		return nil, fmt.Errorf("chunk %d out of range", idx)
	}
	end := start + (1 << 20)
	if end > len(p.payload) {
		end = len(p.payload)
	}
	return p.payload[start:end], nil
}

// TestFastSyncRejectsPoisonedCheckpoint serves a checkpoint whose
// derived state was fabricated (but whose offer is self-consistent and
// anchored to the genuine chain). The sync must rebuild state locally,
// detect the divergence and reject the peer.
func TestFastSyncRejectsPoisonedCheckpoint(t *testing.T) {
	source := checkpointedNode(t, 5, 4)
	local := &node.Local{Node: source, Name: "src"}
	bad := &poisoningPeer{QueryNode: local}
	reg := obs.NewRegistry(clock.UnixMicro)
	_, err := node.FastSync(t.TempDir(), bad, reg)
	if err == nil {
		t.Fatal("poisoned checkpoint accepted")
	}
	if !strings.Contains(err.Error(), "rejected") {
		t.Fatalf("unexpected error: %v", err)
	}
	if got := reg.Counter("sebdb_fastsync_divergent_checkpoints_total").Value(); got != 1 {
		t.Fatalf("divergence counter = %d, want 1", got)
	}
}

// hugeOfferPeer claims an absurd payload size; FastSync must reject the
// offer before fetching a single chunk (or allocating for it).
type hugeOfferPeer struct {
	node.QueryNode
	chunkCalls int
}

func (p *hugeOfferPeer) SnapshotOffer() (*node.SnapshotOffer, error) {
	o, err := p.QueryNode.SnapshotOffer()
	if err != nil {
		return nil, err
	}
	o.Size = 1 << 62
	return o, nil
}

func (p *hugeOfferPeer) SnapshotChunk(idx uint32) ([]byte, error) {
	p.chunkCalls++
	return p.QueryNode.SnapshotChunk(idx)
}

func TestFastSyncRejectsImplausibleOfferSize(t *testing.T) {
	source := checkpointedNode(t, 3, 2)
	local := &node.Local{Node: source, Name: "src"}
	bad := &hugeOfferPeer{QueryNode: local}
	if _, err := node.FastSync(t.TempDir(), bad, nil); err == nil {
		t.Fatal("implausible offer size accepted")
	}
	if bad.chunkCalls != 0 {
		t.Fatalf("%d chunks fetched for an implausible offer", bad.chunkCalls)
	}
}

// TestSnapChunkCacheFollowsCheckpoint serves chunks across a checkpoint
// rotation: the cached payload must be invalidated when a newer
// checkpoint repoints the manifest.
func TestSnapChunkCacheFollowsCheckpoint(t *testing.T) {
	source := checkpointedNode(t, 4, 3)
	local := &node.Local{Node: source, Name: "src"}

	o1, err := local.SnapshotOffer()
	if err != nil {
		t.Fatal(err)
	}
	// Repeated chunk reads come from the cache and stay consistent.
	c1, err := local.SnapshotChunk(0)
	if err != nil {
		t.Fatal(err)
	}
	c1again, err := local.SnapshotChunk(0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(c1, c1again) {
		t.Fatal("cached chunk differs from first read")
	}

	// Grow the chain and rotate the checkpoint: the offer and the chunk
	// content must both follow the new manifest.
	tx, err := source.Engine.NewTransaction("org0", "donate", []types.Value{
		types.Str("donorX"), types.Str("health"), types.Dec(41),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := source.Engine.CommitBlock([]*types.Transaction{tx}, 77_000); err != nil {
		t.Fatal(err)
	}
	if err := source.Engine.WriteCheckpoint(); err != nil {
		t.Fatal(err)
	}
	o2, err := local.SnapshotOffer()
	if err != nil {
		t.Fatal(err)
	}
	if o2.Height != o1.Height+1 {
		t.Fatalf("offer height = %d after rotation, want %d", o2.Height, o1.Height+1)
	}
	raw := make([]byte, 0, o2.Size)
	for i := uint32(0); i < o2.Chunks; i++ {
		chunk, err := local.SnapshotChunk(i)
		if err != nil {
			t.Fatal(err)
		}
		raw = append(raw, chunk...)
	}
	if uint64(len(raw)) != o2.Size || crc32.ChecksumIEEE(raw) != o2.CRC {
		t.Fatal("post-rotation chunks do not reassemble the new checkpoint")
	}
	ck, err := snapshot.Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Height != o2.Height {
		t.Fatalf("served checkpoint height = %d, want %d", ck.Height, o2.Height)
	}
}

func TestFastSyncWithoutCheckpointErrors(t *testing.T) {
	source := seededNode(t, 3, 2) // no checkpoint written
	local := &node.Local{Node: source, Name: "src"}
	if _, err := node.FastSync(t.TempDir(), local, nil); err == nil {
		t.Fatal("fast-sync without a source checkpoint succeeded")
	}
}

func TestFastSyncRefusesNonEmptyDir(t *testing.T) {
	source := checkpointedNode(t, 3, 2)
	local := &node.Local{Node: source, Name: "src"}
	dir := t.TempDir()
	if _, err := node.FastSync(dir, local, nil); err != nil {
		t.Fatal(err)
	}
	// A second sync into the now-populated directory must refuse.
	if _, err := node.FastSync(dir, local, nil); err == nil {
		t.Fatal("fast-sync into a populated directory succeeded")
	}
}
