// Package sebdb's root benchmark suite: one testing.B benchmark per
// table/figure of the paper's evaluation (§VII). Each benchmark
// exercises the same code path as the corresponding bchainbench figure
// harness at a reduced, fixed dataset size, so `go test -bench=.`
// reproduces the paper's qualitative comparisons quickly; run
// `bchainbench -scale 1` for paper-scale sweeps.
package sebdb

import (
	"fmt"
	"testing"
	"time"

	"sebdb/internal/auth"
	"sebdb/internal/bench"
	"sebdb/internal/chainsql"
	"sebdb/internal/consensus"
	"sebdb/internal/consensus/kafka"
	"sebdb/internal/consensus/pbft"
	"sebdb/internal/core"
	"sebdb/internal/exec"
	"sebdb/internal/sqlparser"
	"sebdb/internal/types"
)

// Benchmark dataset sizes (shared): 100 blocks, 50 txs per block.
const (
	bmBlocks  = 100
	bmPer     = 50
	bmResults = 500
)

func trackingEngine(b *testing.B, dist bench.Distribution) *core.Engine {
	b.Helper()
	e, err := bench.NewEngine(b.TempDir(), core.CacheNone)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { e.Close() })
	err = bench.LoadTracking(e, bench.GenConfig{
		Blocks: bmBlocks, TxPerBlock: bmPer, ResultSize: bmResults,
		Dist: dist, Sigma: 10, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	return e
}

func methodName(m exec.Method) string {
	return map[exec.Method]string{
		exec.MethodScan: "Scan", exec.MethodBitmap: "Bitmap", exec.MethodLayered: "Layered",
	}[m]
}

// BenchmarkFig07Write measures Q1 write throughput under both
// consensus plug-ins (Fig. 7).
func BenchmarkFig07Write(b *testing.B) {
	for _, proto := range []string{"Kafka", "PBFT"} {
		b.Run(proto, func(b *testing.B) {
			engines := make([]*core.Engine, 4)
			committers := make([]consensus.Committer, 4)
			for i := range engines {
				e, err := bench.NewEngine(b.TempDir(), core.CacheNone)
				if err != nil {
					b.Fatal(err)
				}
				defer e.Close()
				if err := bench.SetupSchema(e); err != nil {
					b.Fatal(err)
				}
				engines[i] = e
				committers[i] = e
			}
			var cons consensus.Consensus
			if proto == "Kafka" {
				broker := kafka.New(kafka.Options{BatchSize: 200, BatchTimeout: 5 * time.Millisecond})
				for _, c := range committers {
					broker.Subscribe(c)
				}
				cons = broker
			} else {
				cl, err := pbft.New(pbft.Options{F: 1, BatchSize: 10_000, BatchTimeout: 5 * time.Millisecond}, committers)
				if err != nil {
					b.Fatal(err)
				}
				cons = cl
			}
			if err := cons.Start(); err != nil {
				b.Fatal(err)
			}
			defer cons.Stop()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					tx := &types.Transaction{
						Ts: time.Now().UnixMicro(), SenID: "client", Tname: "donate",
						Args: []types.Value{
							types.Str(fmt.Sprintf("donor%d", i)), types.Str("edu"), types.Dec(1),
						},
					}
					if err := cons.Submit(tx); err != nil {
						b.Error(err)
						return
					}
					i++
				}
			})
		})
	}
}

// BenchmarkFig08TrackingDataSize runs Q2 under the three access
// methods (Fig. 8's SU/BU/LU series at one chain size).
func BenchmarkFig08TrackingDataSize(b *testing.B) {
	e := trackingEngine(b, bench.Uniform)
	for _, m := range []exec.Method{exec.MethodScan, exec.MethodBitmap, exec.MethodLayered} {
		b.Run(methodName(m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				n, err := bench.Q2(e, "org1", m)
				if err != nil || n != bmResults {
					b.Fatalf("n=%d err=%v", n, err)
				}
			}
		})
	}
}

// BenchmarkFig09TrackingResultSize runs Q2 with a Gaussian placement
// and a large result (Fig. 9's regime where the method gap narrows).
func BenchmarkFig09TrackingResultSize(b *testing.B) {
	e, err := bench.NewEngine(b.TempDir(), core.CacheNone)
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	big := bmBlocks * bmPer / 2
	err = bench.LoadTracking(e, bench.GenConfig{
		Blocks: bmBlocks, TxPerBlock: bmPer, ResultSize: big,
		Dist: bench.Gaussian, Sigma: 50, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range []exec.Method{exec.MethodScan, exec.MethodLayered} {
		b.Run(methodName(m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := bench.Q2(e, "org1", m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig10TwoDimTracking compares single-index vs two-index Q3
// (Fig. 10's SI vs TI).
func BenchmarkFig10TwoDimTracking(b *testing.B) {
	e, err := bench.NewEngine(b.TempDir(), core.CacheNone)
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	if err := bench.LoadTwoDim(e, bmBlocks, bmPer, 100, 900, 900, bench.Uniform, 10, 1); err != nil {
		b.Fatal(err)
	}
	win := &sqlparser.Window{Start: 0, End: int64(bmBlocks+1) * 1000}
	for _, cfg := range []struct {
		name string
		two  bool
	}{{"SingleIndex", false}, {"TwoIndexes", true}} {
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				n, err := bench.Q3(e, "org1", "transfer", win, cfg.two)
				if err != nil || n != 100 {
					b.Fatalf("n=%d err=%v", n, err)
				}
			}
		})
	}
}

// BenchmarkFig11RangeDataSize runs Q4 under the three access methods
// (Fig. 11).
func BenchmarkFig11RangeDataSize(b *testing.B) {
	e, err := bench.NewEngine(b.TempDir(), core.CacheNone)
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	err = bench.LoadRange(e, bench.GenConfig{
		Blocks: bmBlocks, TxPerBlock: bmPer, ResultSize: bmResults,
		Dist: bench.Uniform, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range []exec.Method{exec.MethodScan, exec.MethodBitmap, exec.MethodLayered} {
		b.Run(methodName(m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				n, err := bench.Q4(e, bench.RangeLo, bench.RangeHi, m)
				if err != nil || n != bmResults {
					b.Fatalf("n=%d err=%v", n, err)
				}
			}
		})
	}
}

// BenchmarkFig12RangeResultSize runs Q4 at small and large result
// sizes under the layered index (Fig. 12's sensitivity axis).
func BenchmarkFig12RangeResultSize(b *testing.B) {
	for _, result := range []int{100, 1000} {
		b.Run(fmt.Sprintf("Results%d", result), func(b *testing.B) {
			e, err := bench.NewEngine(b.TempDir(), core.CacheNone)
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()
			err = bench.LoadRange(e, bench.GenConfig{
				Blocks: bmBlocks, TxPerBlock: bmPer, ResultSize: result,
				Dist: bench.Uniform, Seed: 1,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n, err := bench.Q4(e, bench.RangeLo, bench.RangeHi, exec.MethodLayered)
				if err != nil || n != result {
					b.Fatalf("n=%d err=%v", n, err)
				}
			}
		})
	}
}

func joinEngine(b *testing.B) *core.Engine {
	b.Helper()
	e, err := bench.NewEngine(b.TempDir(), core.CacheNone)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { e.Close() })
	if err := bench.LoadJoin(e, bmBlocks, bmPer, 1000, 300, bench.Uniform, 10, 1); err != nil {
		b.Fatal(err)
	}
	return e
}

// BenchmarkFig13JoinDataSize runs the on-chain join Q5 under the three
// methods (Fig. 13).
func BenchmarkFig13JoinDataSize(b *testing.B) {
	e := joinEngine(b)
	for _, m := range []exec.Method{exec.MethodScan, exec.MethodBitmap, exec.MethodLayered} {
		b.Run(methodName(m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				n, err := bench.Q5(e, m)
				if err != nil || n != 300 {
					b.Fatalf("n=%d err=%v", n, err)
				}
			}
		})
	}
}

// BenchmarkFig14JoinResultSize runs Q5 with the layered method at two
// result sizes (Fig. 14's axis).
func BenchmarkFig14JoinResultSize(b *testing.B) {
	for _, result := range []int{100, 600} {
		b.Run(fmt.Sprintf("Results%d", result), func(b *testing.B) {
			e, err := bench.NewEngine(b.TempDir(), core.CacheNone)
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()
			if err := bench.LoadJoin(e, bmBlocks, bmPer, 1000, result, bench.Uniform, 10, 1); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n, err := bench.Q5(e, exec.MethodLayered)
				if err != nil || n != result {
					b.Fatalf("n=%d err=%v", n, err)
				}
			}
		})
	}
}

func onOffEngine(b *testing.B, result int) *core.Engine {
	b.Helper()
	e, err := bench.NewEngine(b.TempDir(), core.CacheNone)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { e.Close() })
	if err := bench.LoadOnOff(e, bmBlocks, bmPer, 1000, result, bench.Uniform, 10, 1); err != nil {
		b.Fatal(err)
	}
	return e
}

// BenchmarkFig15OnOffDataSize runs the on-off-chain join Q6 under the
// three methods (Fig. 15).
func BenchmarkFig15OnOffDataSize(b *testing.B) {
	e := onOffEngine(b, 300)
	for _, m := range []exec.Method{exec.MethodScan, exec.MethodBitmap, exec.MethodLayered} {
		b.Run(methodName(m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				n, err := bench.Q6(e, m)
				if err != nil || n != 300 {
					b.Fatalf("n=%d err=%v", n, err)
				}
			}
		})
	}
}

// BenchmarkFig16OnOffResultSize runs Q6 layered at two result sizes
// (Fig. 16's axis).
func BenchmarkFig16OnOffResultSize(b *testing.B) {
	for _, result := range []int{100, 600} {
		e := onOffEngine(b, result)
		b.Run(fmt.Sprintf("Results%d", result), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				n, err := bench.Q6(e, exec.MethodLayered)
				if err != nil || n != result {
					b.Fatalf("n=%d err=%v", n, err)
				}
			}
		})
	}
}

func authEngine(b *testing.B) *core.Engine {
	b.Helper()
	e, err := bench.NewEngine(b.TempDir(), core.CacheNone)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { e.Close() })
	err = bench.LoadAuth(e, bench.GenConfig{
		Blocks: bmBlocks, TxPerBlock: bmPer, ResultSize: bmResults,
		Dist: bench.Uniform, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := e.CreateAuthIndex("donate", "amount"); err != nil {
		b.Fatal(err)
	}
	return e
}

// BenchmarkFig17VOSize reports the VO bytes of the ALI vs the
// ship-all-blocks baseline (Fig. 17) as custom metrics.
func BenchmarkFig17VOSize(b *testing.B) {
	e := authEngine(b)
	ali := e.CurrentView().AuthIndex("donate", "amount")
	lo, hi := types.Dec(bench.RangeLo), types.Dec(bench.RangeHi)
	b.Run("ALI", func(b *testing.B) {
		var size int
		for i := 0; i < b.N; i++ {
			size = auth.Serve(ali, e.Height(), nil, lo, hi).Size()
		}
		b.ReportMetric(float64(size), "VO-bytes")
	})
	b.Run("Basic", func(b *testing.B) {
		var size int
		for i := 0; i < b.N; i++ {
			ans := &auth.BasicAnswer{Height: e.Height()}
			for h := uint64(0); h < e.Height(); h++ {
				blk, err := e.Block(h)
				if err != nil {
					b.Fatal(err)
				}
				ans.Blocks = append(ans.Blocks, blk)
			}
			size = ans.Size()
		}
		b.ReportMetric(float64(size), "VO-bytes")
	})
}

// BenchmarkFig18AuthServer measures server-side authenticated query
// time, ALI vs baseline (Fig. 18).
func BenchmarkFig18AuthServer(b *testing.B) {
	e := authEngine(b)
	ali := e.CurrentView().AuthIndex("donate", "amount")
	lo, hi := types.Dec(bench.RangeLo), types.Dec(bench.RangeHi)
	b.Run("ALI", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if len(auth.Serve(ali, e.Height(), nil, lo, hi).Blocks) == 0 {
				b.Fatal("empty answer")
			}
		}
	})
	b.Run("Basic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for h := uint64(0); h < e.Height(); h++ {
				if _, err := e.Block(h); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkFig19AuthClient measures client-side verification time,
// ALI vs baseline (Fig. 19).
func BenchmarkFig19AuthClient(b *testing.B) {
	e := authEngine(b)
	ali := e.CurrentView().AuthIndex("donate", "amount")
	lo, hi := types.Dec(bench.RangeLo), types.Dec(bench.RangeHi)
	ans := auth.Serve(ali, e.Height(), nil, lo, hi)
	basic := &auth.BasicAnswer{Height: e.Height()}
	for h := uint64(0); h < e.Height(); h++ {
		blk, err := e.Block(h)
		if err != nil {
			b.Fatal(err)
		}
		basic.Blocks = append(basic.Blocks, blk)
	}
	headers := e.Headers()
	b.Run("ALI", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := auth.VerifyAnswer(ans, lo, hi); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Basic", func(b *testing.B) {
		match := func(tx *types.Transaction) bool {
			return tx.Tname == "donate" && tx.Args[2].Float() >= bench.RangeLo
		}
		for i := 0; i < b.N; i++ {
			if _, err := auth.BasicVerify(basic, headers, match); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig20VsChainSQL1D compares one-dimension tracking (Fig. 20).
func BenchmarkFig20VsChainSQL1D(b *testing.B) {
	e := trackingEngine(b, bench.Uniform)
	cs, err := chainsql.New()
	if err != nil {
		b.Fatal(err)
	}
	for h := uint64(0); h < e.Height(); h++ {
		blk, err := e.Block(h)
		if err != nil {
			b.Fatal(err)
		}
		if err := cs.ApplyBlock(blk); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("SEBDB", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := bench.Q2(e, "org1", exec.MethodLayered); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ChainSQL", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := cs.TrackOneDim("org1"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig21VsChainSQL2D compares two-dimension tracking with a
// heavy operator (Fig. 21's growth axis for ChainSQL).
func BenchmarkFig21VsChainSQL2D(b *testing.B) {
	e, err := bench.NewEngine(b.TempDir(), core.CacheNone)
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	// org1: 2000 txs, of which only 100 are transfers (the answer).
	if err := bench.LoadTwoDim(e, bmBlocks, bmPer, 100, 1900, 0, bench.Uniform, 10, 1); err != nil {
		b.Fatal(err)
	}
	cs, err := chainsql.New()
	if err != nil {
		b.Fatal(err)
	}
	for h := uint64(0); h < e.Height(); h++ {
		blk, err := e.Block(h)
		if err != nil {
			b.Fatal(err)
		}
		if err := cs.ApplyBlock(blk); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("SEBDB", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			n, err := bench.Q3(e, "org1", "transfer", nil, true)
			if err != nil || n != 100 {
				b.Fatalf("n=%d err=%v", n, err)
			}
		}
	})
	b.Run("ChainSQL", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			txs, _, err := cs.TrackTwoDimClient("org1", "transfer", 0, 0)
			if err != nil || len(txs) != 100 {
				b.Fatalf("n=%d err=%v", len(txs), err)
			}
		}
	})
}

// BenchmarkFig22Cache compares the block cache and the transaction
// cache on the index-driven Q4 (Fig. 22).
func BenchmarkFig22Cache(b *testing.B) {
	for _, cfg := range []struct {
		name string
		mode core.CacheMode
	}{{"BlockCache", core.CacheBlocks}, {"TxCache", core.CacheTxs}} {
		b.Run(cfg.name, func(b *testing.B) {
			e, err := bench.NewEngine(b.TempDir(), cfg.mode)
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()
			err = bench.LoadRange(e, bench.GenConfig{
				Blocks: bmBlocks, TxPerBlock: bmPer, ResultSize: bmResults,
				Dist: bench.Uniform, Seed: 1,
			})
			if err != nil {
				b.Fatal(err)
			}
			// Warm the cache.
			if _, err := bench.Q4(e, bench.RangeLo, bench.RangeHi, exec.MethodLayered); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n, err := bench.Q4(e, bench.RangeLo, bench.RangeHi, exec.MethodLayered)
				if err != nil || n != bmResults {
					b.Fatalf("n=%d err=%v", n, err)
				}
			}
		})
	}
}
