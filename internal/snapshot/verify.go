package snapshot

import (
	"bytes"
	"fmt"

	"sebdb/internal/types"
)

// Diverges cross-checks a peer-supplied checkpoint against a reference
// checkpoint derived locally from hash-verified blocks, comparing every
// chain-derived fact: pin, high-water marks, embedded headers, body
// lengths and transaction offsets, catalog, contracts, table bitmaps
// and the two system indexes. Node-local configuration is excluded —
// segment locations depend on the writer's SegmentSize, and user
// index/ALI states on which indexes an operator created and with what
// histogram depth. Both must be whole-state checkpoints (Lo == 0), as
// Decode and BuildCheckpoint produce them. A nil result means the peer's
// checkpoint agrees with the chain on everything a fresh node would
// otherwise have to trust.
func Diverges(peer, ref *Checkpoint) error {
	if peer.Height != ref.Height {
		return fmt.Errorf("snapshot: peer checkpoint height %d, chain says %d", peer.Height, ref.Height)
	}
	if peer.Anchor != ref.Anchor {
		return fmt.Errorf("snapshot: peer checkpoint anchor diverges from the chain")
	}
	if peer.LastTid != ref.LastTid || peer.LastTs != ref.LastTs {
		return fmt.Errorf("snapshot: peer checkpoint high-water marks (tid %d, ts %d) diverge from the chain's (%d, %d)",
			peer.LastTid, peer.LastTs, ref.LastTid, ref.LastTs)
	}
	if peer.Store.Count() != ref.Store.Count() {
		return fmt.Errorf("snapshot: peer checkpoint covers %d blocks, chain says %d", peer.Store.Count(), ref.Store.Count())
	}
	for i := range ref.Store.Headers {
		if peer.Store.Headers[i].Hash() != ref.Store.Headers[i].Hash() {
			return fmt.Errorf("snapshot: peer checkpoint header %d is off the agreed chain", i)
		}
		if peer.Store.Lens[i] != ref.Store.Lens[i] {
			return fmt.Errorf("snapshot: peer checkpoint body length diverges at block %d", i)
		}
		if len(peer.Store.TxOffs[i]) != len(ref.Store.TxOffs[i]) {
			return fmt.Errorf("snapshot: peer checkpoint tx offsets diverge at block %d", i)
		}
		for j := range ref.Store.TxOffs[i] {
			if peer.Store.TxOffs[i][j] != ref.Store.TxOffs[i][j] {
				return fmt.Errorf("snapshot: peer checkpoint tx offsets diverge at block %d", i)
			}
		}
	}
	if len(peer.Tables) != len(ref.Tables) {
		return fmt.Errorf("snapshot: peer checkpoint carries %d tables, chain says %d", len(peer.Tables), len(ref.Tables))
	}
	for i := range ref.Tables {
		if !bytes.Equal(valuesBytes(peer.Tables[i].EncodeDDL()), valuesBytes(ref.Tables[i].EncodeDDL())) {
			return fmt.Errorf("snapshot: peer checkpoint table %q diverges from the chain", ref.Tables[i].Name)
		}
	}
	if len(peer.Contracts) != len(ref.Contracts) {
		return fmt.Errorf("snapshot: peer checkpoint carries %d contracts, chain says %d", len(peer.Contracts), len(ref.Contracts))
	}
	for i := range ref.Contracts {
		if !bytes.Equal(valuesBytes(peer.Contracts[i].EncodeDeploy()), valuesBytes(ref.Contracts[i].EncodeDeploy())) {
			return fmt.Errorf("snapshot: peer checkpoint contract %d diverges from the chain", i)
		}
	}
	if len(peer.TableIdx) != len(ref.TableIdx) {
		return fmt.Errorf("snapshot: peer checkpoint table-index carries %d keys, chain says %d", len(peer.TableIdx), len(ref.TableIdx))
	}
	for k, want := range ref.TableIdx {
		got, ok := peer.TableIdx[k]
		if !ok || len(got) != len(want) {
			return fmt.Errorf("snapshot: peer checkpoint table-index diverges on %q", k)
		}
		for i := range want {
			if got[i] != want[i] {
				return fmt.Errorf("snapshot: peer checkpoint table-index diverges on %q", k)
			}
		}
	}
	for _, key := range []string{".senid", ".tname"} {
		p, r := findIndex(peer.Indexes, key), findIndex(ref.Indexes, key)
		if r == nil {
			return fmt.Errorf("snapshot: reference checkpoint misses the system index %s", key)
		}
		if p == nil {
			return fmt.Errorf("snapshot: peer checkpoint misses the system index %s", key)
		}
		if !bytes.Equal(indexStateBytes(p), indexStateBytes(r)) {
			return fmt.Errorf("snapshot: peer checkpoint system index %s diverges from the chain", key)
		}
	}
	return nil
}

func findIndex(states []IndexState, key string) *IndexState {
	for i := range states {
		if states[i].Key == key {
			return &states[i]
		}
	}
	return nil
}

func valuesBytes(vs []types.Value) []byte {
	e := types.NewEncoder(128)
	e.Values(vs)
	return e.Bytes()
}

func indexStateBytes(x *IndexState) []byte {
	e := types.NewEncoder(1024)
	encodeIndexDef(e, x)
	encodeIndexBlocks(e, x.Blocks)
	return e.Bytes()
}
