package bench

import (
	"fmt"
	"math/rand"

	"sebdb/internal/chainsql"
	"sebdb/internal/core"
	"sebdb/internal/exec"
	"sebdb/internal/types"
)

// vsChainSQL is a point of Figs. 20-21: it opens d, replays its chain
// into a ChainSQL node, and lets probes build the cells over both.
func vsChainSQL(x int, d Dataset, probes func(e *core.Engine, cs *chainsql.Node) []Probe) Point {
	return Point{X: fmt.Sprint(x), Open: func(s *Scope) ([]Probe, error) {
		e, err := s.Engine(d)
		if err != nil {
			return nil, err
		}
		cs, err := chainsql.New()
		if err != nil {
			return nil, err
		}
		for h := uint64(0); h < e.Height(); h++ {
			b, err := e.Block(h)
			if err != nil {
				return nil, err
			}
			if err := cs.ApplyBlock(b); err != nil {
				return nil, err
			}
		}
		return probes(e, cs), nil
	}}
}

// Fig. 20 — one-dimension tracking (Q2): SEBDB vs ChainSQL, varying
// blockchain size, result fixed at 10,000.
var fig20 = &Figure{
	Num:   20,
	Title: "Fig. 20 — One-dimension tracking, SEBDB vs ChainSQL",
	Note:  "both are index-backed and insensitive to blockchain size",
	Sweep: &Sweep{
		X:      "blocks",
		Series: []Series{{"SEBDB", Millis}, {"ChainSQL", Millis}},
		Points: func(s *Scope) ([]Point, error) {
			result := s.scaled(10_000, 60)
			var out []Point
			for _, blocks := range s.blockSizes() {
				out = append(out, vsChainSQL(blocks, Dataset{
					Name: fmt.Sprintf("f20-%d", blocks),
					Load: func(e *core.Engine) error {
						return LoadTracking(e, GenConfig{
							Blocks: blocks, TxPerBlock: 100, ResultSize: result,
							Dist: Uniform, Seed: 1,
						})
					},
				}, func(e *core.Engine, cs *chainsql.Node) []Probe {
					return []Probe{
						counted(result, func() (int, error) { return Q2(e, "org1", exec.MethodLayered) }),
						counted(result, func() (int, error) {
							txs, err := cs.TrackOneDim("org1")
							return len(txs), err
						}),
					}
				}))
			}
			return out, nil
		},
	},
}

// Fig. 21 — two-dimension tracking (Q3): SEBDB vs ChainSQL, 100,000
// transactions, 5,000 results, org1's transaction count growing
// 5,000 → 80,000 (transfer count fixed at 5,000).
var fig21 = &Figure{
	Num:   21,
	Title: "Fig. 21 — Two-dimension tracking, SEBDB vs ChainSQL",
	Note:  "SEBDB flat (two-index intersection); ChainSQL grows with org1's volume (client-side filter)",
	Sweep: &Sweep{
		X:      "org1 txs",
		Series: []Series{{"SEBDB", Millis}, {"ChainSQL", Millis}, {"ChainSQL bytes", Bytes}},
		Points: func(s *Scope) ([]Point, error) {
			blocks := s.scaled(1000, 20)
			total := s.scaled(100_000, 2000)
			result := s.scaled(5_000, 30)
			var out []Point
			for _, paperOrg1 := range []int{5_000, 10_000, 20_000, 40_000, 80_000} {
				org1 := s.scaled(paperOrg1, result)
				out = append(out, vsChainSQL(org1, Dataset{
					Name: fmt.Sprintf("f21-%d", org1),
					Load: func(e *core.Engine) error {
						// transfer count fixed: result matches + 0 extra transfers.
						return LoadTwoDim(e, blocks, total/blocks, result, org1-result, 0, Uniform, 20, 1)
					},
				}, func(e *core.Engine, cs *chainsql.Node) []Probe {
					var wire int
					client := counted(result, func() (int, error) {
						txs, n, err := cs.TrackTwoDimClient("org1", "transfer", 0, 0)
						wire = n
						return len(txs), err
					})
					return []Probe{
						counted(result, func() (int, error) { return Q3(e, "org1", "transfer", nil, true) }),
						client,
						func() (int, error) {
							_, err := client()
							return wire, err
						},
					}
				}))
			}
			return out, nil
		},
	},
}

// LoadCombined builds the Fig. 22 dataset: 10,000 transactions in each
// of donate/transfer/distribute, tracking and range results of 10,000
// (org1's donates, amounts in the Q4 window), join and on-off results
// of 5,000, with all needed layered indexes.
func LoadCombined(e *core.Engine, env *Env) error {
	if err := SetupSchema(e); err != nil {
		return err
	}
	per := env.scaled(10_000, 200)
	joinRes := combinedJoinResults(env)
	blocks := env.scaled(1_000, 20)
	if err := SetupOffChain(e.OffChain(), joinRes); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(7))
	perBlock := make([][]*types.Transaction, blocks)
	add := func(n int, mk func(i int) *types.Transaction) {
		for i, b := range Placement(n, blocks, Uniform, 0, rng) {
			perBlock[b] = append(perBlock[b], mk(i))
		}
	}
	// donate: all sent by org1 with in-window amounts (Q2/Q4 result).
	add(per, func(i int) *types.Transaction {
		return &types.Transaction{SenID: "org1", Tname: "donate", Args: []types.Value{
			types.Str(fmt.Sprintf("donor%06d", i)), types.Str("education"),
			types.Dec(float64(RangeLo + i%(RangeHi-RangeLo+1))),
		}}
	})
	// transfer/distribute: joinRes matching organizations (Q5), the rest
	// unique; distribute's first joinRes donees exist off-chain (Q6).
	add(per, func(i int) *types.Transaction {
		org := fmt.Sprintf("tonly%06d", i)
		if i < joinRes {
			org = fmt.Sprintf("shared%06d", i)
		}
		return &types.Transaction{SenID: "org2", Tname: "transfer", Args: []types.Value{
			types.Str("education"), types.Str(fmt.Sprintf("donor%06d", i)),
			types.Str(org), types.Dec(float64(i)),
		}}
	})
	add(per, func(i int) *types.Transaction {
		org := fmt.Sprintf("donly%06d", i)
		donee := fmt.Sprintf("ghost%06d", i)
		if i < joinRes {
			org = fmt.Sprintf("shared%06d", i)
			donee = fmt.Sprintf("donee%06d", i)
		}
		return &types.Transaction{SenID: "org3", Tname: "distribute", Args: []types.Value{
			types.Str("education"), types.Str(fmt.Sprintf("donor%06d", i)),
			types.Str(org), types.Str(donee), types.Dec(float64(i)),
		}}
	})
	if err := CommitChain(e, perBlock); err != nil {
		return err
	}
	for _, idx := range [][2]string{
		{"donate", "amount"},
		{"transfer", "organization"}, {"distribute", "organization"},
		{"distribute", "donee"},
	} {
		if err := e.CreateIndex(idx[0], idx[1]); err != nil {
			return err
		}
	}
	return nil
}

// combinedJoinResults is LoadCombined's off-chain row count.
func combinedJoinResults(env *Env) int { return env.scaled(5_000, 100) }

// Fig. 22 — block cache vs transaction cache: latency of Q2, Q4, Q5, Q6
// and Q7 under a warmed LRU of each policy.
var fig22 = &Figure{
	Num:   22,
	Title: "Fig. 22 — Block cache vs transaction cache (warmed LRU)",
	Note:  "tx cache wins for index-driven Q2/Q4/Q5/Q6; block cache wins whole-block Q7",
	Sweep: &Sweep{
		X:      "query",
		Series: []Series{{"block cache", Millis}, {"tx cache", Millis}},
		Points: func(s *Scope) ([]Point, error) {
			var engines []*core.Engine
			for _, mode := range []core.CacheMode{core.CacheBlocks, core.CacheTxs} {
				e, err := s.Engine(Dataset{
					Name:  fmt.Sprintf("f22-%d", mode),
					Cache: mode,
					Load:  func(e *core.Engine) error { return LoadCombined(e, s.Env) },
					Reopen: func(e *core.Engine) error {
						return SetupOffChain(e.OffChain(), combinedJoinResults(s.Env))
					},
				})
				if err != nil {
					return nil, err
				}
				engines = append(engines, e)
			}
			var out []Point
			for _, q := range []struct {
				name string
				run  func(e *core.Engine, m exec.Method) (int, error)
			}{
				{"Q2", q2}, {"Q4", q4}, {"Q5", Q5}, {"Q6", Q6},
				{"Q7", func(e *core.Engine, _ exec.Method) (int, error) { return Q7(e, 1) }},
			} {
				out = append(out, Point{X: q.name, Open: func(*Scope) ([]Probe, error) {
					var probes []Probe
					for _, e := range engines {
						// Cache warming (§VII-H runs each query for 10
						// minutes first).
						if _, err := q.run(e, exec.MethodLayered); err != nil {
							return nil, err
						}
						probes = append(probes, func() (int, error) { return q.run(e, exec.MethodLayered) })
					}
					return probes, nil
				}})
			}
			return out, nil
		},
	},
}
