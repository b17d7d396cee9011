package sebdb

// Ablation benchmarks for the design choices DESIGN.md calls out: the
// first-level histogram depth of the layered index (§IV-B: "the height
// of histogram is configurable for different precisions"), the MB-tree
// page fanout (§VII: "The page size of MB-tree implementation is
// 4 KB"), and the cache policy already covered by Fig. 22.

import (
	"fmt"
	"testing"

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

// BenchmarkAblationMBTreeFanout sweeps the ALI's MB-tree fanout: wide
// pages (the paper's ~100-slot 4 KB page) shorten the tree but expose
// more per-leaf digests in each VO; narrow pages do the opposite.
// VO-bytes is reported per variant.
func BenchmarkAblationMBTreeFanout(b *testing.B) {
	e, err := core.Open(core.Config{
		Dir: b.TempDir(), HistogramDepth: 100, DefaultSender: "bench",
	})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	err = bench.LoadAuth(e, bench.GenConfig{
		Blocks: 50, TxPerBlock: 50, ResultSize: 250,
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
	for _, fanout := range []int{4, 16, 100, 400} {
		b.Run(fmt.Sprintf("Fanout%d", fanout), func(b *testing.B) {
			ali := auth.NewContinuous("amount", hist, fanout)
			for bid := uint64(0); bid < v.Height(); bid++ {
				blk, err := v.Block(bid)
				if err != nil {
					b.Fatal(err)
				}
				var recs []mbtree.Record
				for _, tx := range blk.Txs {
					if tx.Tname != tbl.Name {
						continue
					}
					amount, err := tbl.Value(tx, "amount")
					if err != nil {
						b.Fatal(err)
					}
					recs = append(recs, mbtree.Record{Key: amount, Payload: tx.EncodeBytes()})
				}
				ali.AppendBlock(bid, recs)
			}
			lo, hi := types.Dec(bench.RangeLo), types.Dec(bench.RangeHi)
			var voBytes int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ans := auth.Serve(ali, v.Height(), nil, lo, hi)
				voBytes = ans.Size()
				if _, _, err := auth.VerifyAnswer(ans, lo, hi); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(voBytes), "VO-bytes")
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
