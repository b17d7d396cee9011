package bench

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"sebdb/internal/core"
)

// figStorage — not a paper figure: the tiered storage read path. One
// chain (fixed seed, small segments so it spans many files) is read
// through every tier combination: the pread and mmap segment backends,
// each over plain and recompressed segments. Each row reports a cold
// full scan, a batch of tuple-sized point reads, the on-disk footprint,
// and a digest folded over every block read — the digests must agree
// across all four rows, which is the byte-equivalence check that the
// tier never changes an answer.
var figStorage = &Figure{
	Num:   27,
	Name:  "storage",
	Title: "Fig. 27 — storage tiers: scan/point-read latency and footprint per backend",
	Note:  "mmap should meet or beat pread on cold scans; compressed rows shrink disk KB; digests must be identical",
	Sweep: &Sweep{
		X:      "tier",
		Series: []Series{{"cold scan", Millis}, {"point reads", Millis}, {"disk KB", "KB"}, {"digest", Hex}},
		Points: func(s *Scope) ([]Point, error) {
			blocks := s.scaled(1_200, 60)
			// Every variant reads the SAME directory in sequence — the plain
			// rows first, then the in-place recompression, then the compressed
			// rows — so the digests compare reads of one chain, not four
			// separately built ones.
			chainDir := filepath.Join(s.Dir, fmt.Sprintf("f27-%d", blocks))
			var first []byte
			var out []Point
			for _, v := range []struct {
				name           string
				mmap, compress bool
			}{
				{"pread/plain", false, false},
				{"mmap/plain", true, false},
				{"pread/compressed", false, true},
				{"mmap/compressed", true, true},
			} {
				out = append(out, Point{X: v.name, Row: func(s *Scope) ([]float64, error) {
					row, digest, err := storageRow(s, chainDir, blocks, v.mmap, v.compress)
					if err != nil {
						return nil, err
					}
					if first == nil {
						first = digest
					} else if !bytes.Equal(digest, first) {
						return nil, fmt.Errorf("digest %x diverges from %x — tiers returned different bytes", digest, first)
					}
					return row, nil
				}})
			}
			return out, nil
		},
	},
}

// storageRow opens (building it on first use) the chain under one tier
// variant and measures it. The chain content is seed-determined and
// compression only changes the encoding at rest, never the bytes a read
// returns. The row's last value is the leading 48 bits of digest.
func storageRow(s *Scope, dir string, blocks int, mmap, compress bool) (row []float64, digest []byte, err error) {
	e, err := core.Open(core.Config{
		Dir:            dir,
		HistogramDepth: 100,
		CacheMode:      core.CacheNone,
		DefaultSender:  "bench",
		SegmentSize:    64 << 10, // many small segments, so tiers matter
		Mmap:           mmap,
	})
	if err != nil {
		return nil, nil, err
	}
	s.Defer(e.Close)
	if e.Height() == 0 {
		err = LoadTracking(e, GenConfig{
			Blocks: blocks, TxPerBlock: 40, ResultSize: blocks * 10,
			Dist: Uniform, Seed: 1,
		})
		if err != nil {
			return nil, nil, err
		}
	}
	if compress {
		// Synchronous recompression of every sealed segment, so the
		// timings below never race a background rewrite.
		if err := e.CompressSealed(1); err != nil {
			return nil, nil, err
		}
	}
	disk, err := e.DiskBytes()
	if err != nil {
		return nil, nil, err
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
			return nil, nil, err
		}
		h.Write(b.EncodeBytes())
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
			return nil, nil, err
		}
	}
	dPoint := time.Since(start)

	digest = h.Sum(nil)
	prefix := binary.BigEndian.Uint64(digest) >> 16
	return []float64{millis(dScan), millis(dPoint), float64(disk / 1024), float64(prefix)}, digest, nil
}
