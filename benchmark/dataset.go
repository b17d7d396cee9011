package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand/v2"

	"sebdb/internal/clock"
	"sebdb/internal/core"
	"sebdb/internal/types"
)

// The base chain every workload runs on: one schema block, then
// Size.Blocks data blocks of Size.TxPerBlock tuples over the paper's
// donate/transfer/distribute tables. Everything is a function of the
// seed; block b is committed at timestamp (b+1)*tsStep and its tuples
// carry that timestamp, so time windows map to block ranges.

// Size fixes the base chain's dimensions.
type Size struct {
	Blocks     int // data blocks (the schema block is extra)
	TxPerBlock int
	Senders    int
	Donors     int
	Orgs       int
}

// FullSize is what the end-to-end and traced runs use; SmokeSize keeps
// the package tests fast.
var (
	FullSize  = Size{Blocks: 1000, TxPerBlock: 200, Senders: 50, Donors: 4000, Orgs: 40}
	SmokeSize = Size{Blocks: 40, TxPerBlock: 200, Senders: 50, Donors: 200, Orgs: 40}
)

const (
	tsStep = 1000 // microseconds between base-chain blocks

	// donate.amount layout. Nine in ten donate rows draw their amount
	// from a 1,000-wide band whose position is a per-block random
	// number, so a narrow range predicate is selective at the layered
	// index's first level (few candidate blocks). One in ten is
	// scattered uniformly over its own region, so a range there returns
	// rows spread over as many blocks as it has rows. Rows inserted
	// while a workload runs land above both regions and change no
	// checked answer.
	bandWidth   = 1000
	bandSpan    = 1_000_000
	scatterLo   = 2_000_000
	scatterSpan = 1_000_000
	fillerLo    = 9_000_000
	fillerSpan  = 1000

	segmentSize = 1 << 20 // small segments, so the base chain has sealed segments to compress
)

var ddl = []string{
	`CREATE donate (donor string, project string, amount decimal)`,
	`CREATE transfer (project string, donor string, organization string, amount decimal)`,
	`CREATE distribute (project string, donor string, organization string, donee string, amount decimal)`,
}

var projects = []string{"education", "health", "water", "relief", "housing", "food", "arts", "sport"}

// Dataset is the generated base chain, before and after it is committed.
type Dataset struct {
	Seed   int64
	Size   Size
	Blocks [][]*types.Transaction // data blocks only; Tid/Ts are filled in by Build
	// SenderRank lists sender names from most to least frequent.
	SenderRank []string
	// ArgBytes is the encoded size of every tuple's arguments: the
	// "user bytes" that space amplification is measured against.
	ArgBytes int64
	// Headers are the committed block headers (schema block first),
	// available after Build.
	Headers []types.BlockHeader
}

func senderName(i int) string { return fmt.Sprintf("org%02d", i) }

// Generate makes the base chain's tuples from the seed.
func Generate(seed int64, sz Size) *Dataset {
	rng := rand.New(rand.NewPCG(uint64(seed), 0x5eb0db))
	zipf := rand.NewZipf(rng, 1.2, 2, uint64(sz.Senders-1))
	ds := &Dataset{Seed: seed, Size: sz, Blocks: make([][]*types.Transaction, sz.Blocks)}
	for i := 0; i < sz.Senders; i++ {
		ds.SenderRank = append(ds.SenderRank, senderName(i))
	}
	for b := range ds.Blocks {
		center := rng.IntN(bandSpan - bandWidth)
		txs := make([]*types.Transaction, sz.TxPerBlock)
		for i := range txs {
			tx := &types.Transaction{SenID: senderName(int(zipf.Uint64()))}
			donor := types.Str(fmt.Sprintf("donor%05d", rng.IntN(sz.Donors)))
			project := types.Str(projects[rng.IntN(len(projects))])
			org := types.Str(fmt.Sprintf("charity%02d", rng.IntN(sz.Orgs)))
			switch p := rng.IntN(100); {
			case p < 70:
				amount := center + rng.IntN(bandWidth)
				if rng.IntN(10) == 0 {
					amount = scatterLo + rng.IntN(scatterSpan)
				}
				tx.Tname = "donate"
				tx.Args = []types.Value{donor, project, types.Dec(float64(amount))}
			case p < 85:
				tx.Tname = "transfer"
				tx.Args = []types.Value{project, donor, org, types.Dec(float64(rng.IntN(10_000)))}
			default:
				tx.Tname = "distribute"
				donee := types.Str(fmt.Sprintf("donee%05d", rng.IntN(sz.Donors)))
				tx.Args = []types.Value{project, donor, org, donee, types.Dec(float64(rng.IntN(10_000)))}
			}
			e := types.NewEncoder(64)
			e.Values(tx.Args)
			ds.ArgBytes += int64(e.Len())
			txs[i] = tx
		}
		ds.Blocks[b] = txs
	}
	return ds
}

// BlockTs is the commit timestamp of data block b (0-based).
func BlockTs(b int) int64 { return int64(b+1) * tsStep }

// Fingerprint hashes every generated tuple in order. Two datasets with
// the same fingerprint commit to byte-identical chains, because block
// timestamps, the signer key and the Tid order are fixed.
func (ds *Dataset) Fingerprint() string {
	h := sha256.New()
	for _, txs := range ds.Blocks {
		for _, tx := range txs {
			h.Write(tx.SigningBytes())
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// BuildOptions selects the node-local shape of the prepared data
// directory; the chain itself is the same for every choice.
type BuildOptions struct {
	Auth     bool // maintain the ALI on donate.amount
	Compress bool // recompress every sealed segment (the cold tier)
}

// Build commits the dataset into dir through the engine's own commit
// path, creates the layered index (and the ALI) on donate.amount, which
// the engine persists in indexes.json so a server opening dir rebuilds
// them, and closes the engine again.
func (ds *Dataset) Build(dir string, opt BuildOptions) error {
	// A fixed clock stamps the schema transactions, so the whole chain,
	// block hashes included, is a function of the seed.
	e, err := core.Open(core.Config{Dir: dir, SegmentSize: segmentSize, CacheMode: core.CacheNone, Clock: clock.Fixed(1)})
	if err != nil {
		return err
	}
	if err := ds.commit(e, opt); err != nil {
		e.Close() //sebdb:ignore-err the commit error is the one to report
		return err
	}
	ds.Headers = e.Headers()
	return e.Close()
}

func (ds *Dataset) commit(e *core.Engine, opt BuildOptions) error {
	for _, stmt := range ddl {
		if _, err := e.Execute(stmt); err != nil {
			return err
		}
	}
	if err := e.FlushAt(1); err != nil {
		return err
	}
	for b, txs := range ds.Blocks {
		ts := BlockTs(b)
		for _, tx := range txs {
			tx.Ts = ts
		}
		if _, err := e.CommitBlock(txs, ts); err != nil {
			return err
		}
	}
	if err := e.CreateIndex("donate", "amount"); err != nil {
		return err
	}
	if opt.Auth {
		if err := e.CreateAuthIndex("donate", "amount"); err != nil {
			return err
		}
	}
	if opt.Compress {
		return e.CompressSealed(1)
	}
	return nil
}
