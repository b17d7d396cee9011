package sebdb

// Ablation benchmarks for the design choices DESIGN.md calls out: the
// first-level histogram depth of the layered index (§IV-B: "the height
// of histogram is configurable for different precisions"), the MB-tree
// page fanout (§VII: "The page size of MB-tree implementation is
// 4 KB"), and the cache policy already covered by Fig. 22.

import (
	"fmt"
	"testing"
	"time"

	"sebdb/internal/auth"
	"sebdb/internal/bench"
	"sebdb/internal/core"
	"sebdb/internal/exec"
	"sebdb/internal/mbtree"
	"sebdb/internal/types"
)

// BenchmarkAblationHistogramDepth sweeps the equal-depth histogram
// height. Deeper histograms prune more blocks at the first level for
// selective ranges (fewer false-positive candidate blocks) at the cost
// of larger first-level bitmaps.
func BenchmarkAblationHistogramDepth(b *testing.B) {
	for _, depth := range []int{2, 10, 100, 1000} {
		b.Run(fmt.Sprintf("Depth%d", depth), func(b *testing.B) {
			e, err := core.Open(core.Config{
				Dir: b.TempDir(), HistogramDepth: depth, DefaultSender: "bench",
			})
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()
			err = bench.LoadRange(e, bench.GenConfig{
				Blocks: 100, TxPerBlock: 50, ResultSize: 250,
				Dist: bench.Uniform, Seed: 1,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n, err := bench.Q4(e, bench.RangeLo, bench.RangeHi, exec.MethodLayered)
				if err != nil || n != 250 {
					b.Fatalf("n=%d err=%v", n, err)
				}
			}
		})
	}
}

// BenchmarkAblationMBTreeFanout sweeps the ALI's MB-tree fan-out, the
// measurement behind mbtree.DefaultFanout. A per-block tree is static
// and lives in memory, so a node has no page to fill: a wide node (the
// paper's ~100-slot 4 KB page) only puts more sibling digests into every
// VO — (f−1) per level on average, log_f n levels — while a narrow one
// keeps more node digests per tree (n/(f−1)) and hashes more of them at
// build time. Each variant reports the answer size, the split of the
// timed loop into serving and verifying, and what the tree costs to
// build and to keep. Blocks hold 140 rows, the size the end-to-end
// benchmark commits, and every block holds a few rows of the answer.
func BenchmarkAblationMBTreeFanout(b *testing.B) {
	e, err := core.Open(core.Config{
		Dir: b.TempDir(), HistogramDepth: 100, DefaultSender: "bench",
	})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	err = bench.LoadAuth(e, bench.GenConfig{
		Blocks: 50, TxPerBlock: 140, ResultSize: 250,
		Dist: bench.Uniform, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	// The engine builds its ALIs at mbtree.DefaultFanout; the sweep
	// borrows that ALI's sampled histogram and builds one ALI per fanout
	// directly from the engine's blocks.
	if err := e.CreateAuthIndex("donate", "amount"); err != nil {
		b.Fatal(err)
	}
	v := e.CurrentView()
	hist := v.AuthIndex("donate", "amount").Histogram()
	tbl, err := v.Table("donate")
	if err != nil {
		b.Fatal(err)
	}
	blocks := make([][]mbtree.Record, v.Height())
	for bid := range blocks {
		blk, err := v.Block(uint64(bid))
		if err != nil {
			b.Fatal(err)
		}
		for _, tx := range blk.Txs {
			if tx.Tname != tbl.Name {
				continue
			}
			amount, err := tbl.Value(tx, "amount")
			if err != nil {
				b.Fatal(err)
			}
			blocks[bid] = append(blocks[bid], mbtree.Record{Key: amount, Payload: tx.EncodeBytes()})
		}
	}
	for _, fanout := range []int{2, 4, 8, 16, 100, 400} {
		b.Run(fmt.Sprintf("Fanout%d", fanout), func(b *testing.B) {
			const builds = 20 // the ALI is built this often to time one build
			var ali *auth.ALI
			start := time.Now()
			for i := 0; i < builds; i++ {
				ali = auth.NewContinuous("amount", hist, fanout)
				for bid, recs := range blocks {
					ali.AppendBlock(uint64(bid), recs)
				}
			}
			build := time.Since(start)
			digests := 0
			for _, recs := range blocks {
				for size := len(recs); size > 0; {
					digests += size
					if size = (size + fanout - 1) / fanout; size == 1 {
						digests++
						break
					}
				}
			}
			lo, hi := types.Dec(bench.RangeLo), types.Dec(bench.RangeHi)
			var voBytes int
			var serve time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				start := time.Now()
				ans := auth.Serve(ali, v.Height(), nil, lo, hi)
				serve += time.Since(start)
				voBytes = ans.Size()
				if _, txs, err := auth.VerifyAnswer(ans, lo, hi); err != nil || len(txs) != 250 {
					b.Fatalf("%d rows, %v", len(txs), err)
				}
			}
			us := func(d time.Duration, n int) float64 { return float64(d.Microseconds()) / float64(n) }
			b.ReportMetric(float64(voBytes), "VO-bytes")
			b.ReportMetric(us(serve, b.N), "serve-us")
			b.ReportMetric(us(b.Elapsed()-serve, b.N), "verify-us")
			b.ReportMetric(us(build, builds*len(blocks)), "build-us/block")
			b.ReportMetric(float64(digests*len(mbtree.Hash{}))/float64(len(blocks)), "tree-B/block")
		})
	}
}

// BenchmarkAblationBlockSize sweeps transactions-per-block: bigger
// blocks mean fewer seeks for scans but coarser index granularity
// (candidate blocks carry more irrelevant rows).
func BenchmarkAblationBlockSize(b *testing.B) {
	const totalTxs = 5000
	for _, per := range []int{25, 100, 500} {
		b.Run(fmt.Sprintf("TxPerBlock%d", per), func(b *testing.B) {
			e, err := core.Open(core.Config{
				Dir: b.TempDir(), HistogramDepth: 100, DefaultSender: "bench",
			})
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()
			err = bench.LoadRange(e, bench.GenConfig{
				Blocks: totalTxs / per, TxPerBlock: per, ResultSize: 250,
				Dist: bench.Uniform, Seed: 1,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := bench.Q4(e, bench.RangeLo, bench.RangeHi, exec.MethodLayered); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
