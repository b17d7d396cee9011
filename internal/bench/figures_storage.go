package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"sebdb/internal/core"
)

// FigStorage — not a paper figure: the tiered storage read path. One
// chain (fixed seed, small segments so it spans many files) is built
// four times and read through every tier combination: the pread and
// mmap segment backends, each over plain and recompressed segments.
// Each row reports a cold full scan, a batch of tuple-sized point
// reads, the on-disk footprint, and a digest folded over every block
// read — the digests must agree across all four rows, which is the
// byte-equivalence check that the tier never changes an answer.
func FigStorage(dir string, scale float64) (*Table, error) {
	t := &Table{
		Title:  "Fig. 27 — storage tiers: scan/point-read latency and footprint per backend",
		Header: []string{"tier", "cold scan", "point reads", "disk KB", "digest"},
		Note:   "mmap should meet or beat pread on cold scans; compressed rows shrink disk KB; digests must be identical",
	}
	blocks := scaled(1_200, scale, 60)
	// Every variant reads the SAME directory in sequence — the plain
	// rows first, then the in-place recompression, then the compressed
	// rows — so the digests compare reads of one chain, not four
	// separately built ones.
	chainDir := filepath.Join(dir, fmt.Sprintf("f27-%d", blocks))
	variants := []struct {
		name     string
		mmap     bool
		compress bool
	}{
		{"pread/plain", false, false},
		{"mmap/plain", true, false},
		{"pread/compressed", false, true},
		{"mmap/compressed", true, true},
	}
	var digest0 string
	for _, v := range variants {
		row, digest, err := storageRow(chainDir, blocks, v.mmap, v.compress)
		if err != nil {
			return nil, fmt.Errorf("fig27 %s: %w", v.name, err)
		}
		if digest0 == "" {
			digest0 = digest
		} else if digest != digest0 {
			return nil, fmt.Errorf("fig27 %s: digest %s diverges from %s — tiers returned different bytes",
				v.name, digest, digest0)
		}
		t.AddRow(append([]string{v.name}, row...)...)
	}
	return t, nil
}

// storageRow builds (or reuses) one chain variant and measures it. The
// chain content is seed-determined, so every variant is block-for-block
// identical before the tier treatment; compression then only changes
// the encoding at rest, never the bytes a read returns.
func storageRow(dir string, blocks int, mmap, compress bool) ([]string, string, error) {
	cfg := core.Config{
		Dir:            dir,
		HistogramDepth: 100,
		CacheMode:      core.CacheNone,
		DefaultSender:  "bench",
		SegmentSize:    64 << 10, // many small segments, so tiers matter
		Mmap:           mmap,
	}
	e, err := core.Open(cfg)
	if err != nil {
		return nil, "", err
	}
	defer e.Close() //sebdb:ignore-err read-mostly benchmark engine
	if e.Height() == 0 {
		err = LoadTracking(e, GenConfig{
			Blocks: blocks, TxPerBlock: 40, ResultSize: blocks * 10,
			Dist: Uniform, Seed: 1,
		})
		if err != nil {
			return nil, "", err
		}
	}
	if compress {
		// Synchronous recompression of every sealed segment, so the
		// timings below never race a background rewrite.
		if err := e.CompressSealed(1); err != nil {
			return nil, "", err
		}
	}
	disk, err := e.DiskBytes()
	if err != nil {
		return nil, "", err
	}

	// Cold scan: every block through the store with the cache off,
	// folding the encoded bytes into the cross-tier digest.
	h := sha256.New()
	n := int(e.Height())
	txs := make([]int, n) // per-block tx counts (DDL blocks are short)
	start := time.Now()
	for bid := 0; bid < n; bid++ {
		b, err := e.Block(uint64(bid))
		if err != nil {
			return nil, "", err
		}
		h.Write(b.EncodeBytes()) //sebdb:ignore-err hash.Hash.Write never fails
		txs[bid] = len(b.Txs)
	}
	dScan := time.Since(start)

	// Point reads: tuple-sized random transaction lookups, the access
	// pattern Equation 3 prices as p*(t_S + t_T).
	rng := rand.New(rand.NewSource(7))
	const points = 2_000
	start = time.Now()
	for i := 0; i < points; i++ {
		bid := rng.Intn(n)
		if _, err := e.Tx(uint64(bid), uint32(rng.Intn(txs[bid]))); err != nil {
			return nil, "", err
		}
	}
	dPoint := time.Since(start)

	digest := hex.EncodeToString(h.Sum(nil))[:12]
	return []string{
		ms(dScan), ms(dPoint), fmt.Sprintf("%d", disk/1024), digest,
	}, digest, nil
}
