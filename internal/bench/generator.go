package bench

import (
	"fmt"
	"math"
	"math/rand"

	"sebdb/internal/clock"
	"sebdb/internal/core"
	"sebdb/internal/types"
)

// Distribution selects how resulting transactions spread over blocks —
// the generator's time dimension (§VII-A).
type Distribution int

const (
	// Uniform spreads result transactions evenly across all blocks.
	Uniform Distribution = iota
	// Gaussian concentrates them around the middle block ("mean equals
	// the middle of block" in the paper) with configurable variance.
	Gaussian
)

// String names the distribution like the figure legends (U/G).
func (d Distribution) String() string {
	if d == Gaussian {
		return "G"
	}
	return "U"
}

// GenConfig parameterises one dataset.
type GenConfig struct {
	// Blocks is the chain size in blocks.
	Blocks int
	// TxPerBlock is the base number of transactions per block.
	TxPerBlock int
	// ResultSize is how many transactions satisfy the benchmark query.
	ResultSize int
	// Dist places the result transactions over blocks.
	Dist Distribution
	// Sigma is the Gaussian std-dev in blocks (paper: 20, or 50 for the
	// large result sizes of Fig. 9).
	Sigma float64
	// Seed fixes the generator.
	Seed int64
}

// resultPlacement assigns each result transaction a block id.
func resultPlacement(cfg GenConfig, rng *rand.Rand) []int {
	out := make([]int, cfg.ResultSize)
	switch cfg.Dist {
	case Gaussian:
		mean := float64(cfg.Blocks) / 2
		sigma := cfg.Sigma
		if sigma <= 0 {
			sigma = 20
		}
		for i := range out {
			b := int(math.Round(rng.NormFloat64()*sigma + mean))
			if b < 0 {
				b = 0
			}
			if b >= cfg.Blocks {
				b = cfg.Blocks - 1
			}
			out[i] = b
		}
	default:
		for i := range out {
			out[i] = i * cfg.Blocks / cfg.ResultSize
			if out[i] >= cfg.Blocks {
				out[i] = cfg.Blocks - 1
			}
		}
	}
	return out
}

// TxSpec describes one generated transaction.
type TxSpec struct {
	// Result marks the transaction as part of the query's answer.
	Result bool
	// Block is the block it lands in; Ts is derived from it.
	Block int
}

// TxMaker builds a transaction from its spec; the workload loaders
// plug in per-figure logic (which sender, which table, which amount).
type TxMaker func(spec TxSpec, rng *rand.Rand) *types.Transaction

// Load builds the chain: every block gets its base TxPerBlock filler
// transactions plus the result transactions placed by the
// distribution. Block b is committed at timestamp (b+1)*1000 and every
// transaction in it carries that timestamp, giving the workloads a
// deterministic time axis for window queries.
func Load(e *core.Engine, cfg GenConfig, mk TxMaker) error {
	if cfg.Blocks <= 0 {
		return fmt.Errorf("bench: config needs blocks")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	perBlock := make([][]*types.Transaction, cfg.Blocks)
	for _, b := range resultPlacement(cfg, rng) {
		tx := mk(TxSpec{Result: true, Block: b}, rng)
		tx.Ts = int64(b+1) * 1000
		perBlock[b] = append(perBlock[b], tx)
	}
	for b := 0; b < cfg.Blocks; b++ {
		for len(perBlock[b]) < cfg.TxPerBlock {
			tx := mk(TxSpec{Result: false, Block: b}, rng)
			tx.Ts = int64(b+1) * 1000
			perBlock[b] = append(perBlock[b], tx)
		}
		if _, err := e.CommitBlock(perBlock[b], int64(b+1)*1000); err != nil {
			return err
		}
		perBlock[b] = nil // release while loading large chains
	}
	return nil
}

// Placement exposes the distribution machinery for loaders with more
// than one transaction class (e.g. Fig. 10's transfer/org1 overlap): it
// returns a block id for each of n transactions.
func Placement(n, blocks int, dist Distribution, sigma float64, rng *rand.Rand) []int {
	return resultPlacement(GenConfig{Blocks: blocks, ResultSize: n, Dist: dist, Sigma: sigma}, rng)
}

// CommitChain commits pre-built per-block transaction lists on the
// canonical time axis (block b at ts (b+1)*1000, transactions stamped
// with their block's timestamp).
func CommitChain(e *core.Engine, perBlock [][]*types.Transaction) error {
	for b := range perBlock {
		for _, tx := range perBlock[b] {
			tx.Ts = int64(b+1) * 1000
		}
		if _, err := e.CommitBlock(perBlock[b], int64(b+1)*1000); err != nil {
			return err
		}
	}
	return nil
}

// engineConfig is the benchmark-friendly engine configuration
// (histogram depth 100 as in §VII-D). The clock is fixed, so a chain —
// its DDL transactions included — is a function of the seed alone.
func engineConfig(dir string, cache core.CacheMode) core.Config {
	return core.Config{
		Dir:            dir,
		HistogramDepth: 100,
		CacheMode:      cache,
		DefaultSender:  "bench",
		Clock:          clock.Fixed(1),
	}
}

// NewEngine opens an engine in dir with the benchmark settings.
func NewEngine(dir string, cache core.CacheMode) (*core.Engine, error) {
	return core.Open(engineConfig(dir, cache))
}
