package bench

import (
	"crypto/ed25519"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"sebdb/internal/consensus"
	"sebdb/internal/consensus/kafka"
	"sebdb/internal/consensus/pbft"
	"sebdb/internal/core"
)

// Fig. 7 — write performance (Q1): throughput and mean response time
// under the Kafka ordering service and the PBFT (Tendermint-style)
// consensus, 4 servers, varying concurrent clients (paper: 40..400
// clients, 100 transactions each, block 200 txs / 200 ms for Kafka,
// 10,000 txs for Tendermint). Every engine runs the staged commit
// pipeline at Env.Workers, and both protocols verify batch signatures
// over the same pool, so -workers sweeps the write path's parallelism
// axis end to end.
var fig7 = &Figure{
	Num:   7,
	Title: "Fig. 7 — Write performance (Q1), Kafka vs PBFT(Tendermint-style), 4 servers, {workers} workers",
	Note:  "Kafka throughput >> PBFT; PBFT latency flat while underloaded, rising with clients",
	Sweep: &Sweep{
		X: "clients",
		Series: []Series{
			{"kafka tx/s", "tx/s"}, {"kafka resp", Millis}, {"pbft tx/s", "tx/s"}, {"pbft resp", Millis},
		},
		Points: func(s *Scope) ([]Point, error) {
			var out []Point
			for _, paperClients := range []int{40, 120, 200, 280, 400} {
				clients := s.scaled(paperClients, 2)
				out = append(out, Point{X: fmt.Sprint(clients), Row: func(s *Scope) ([]float64, error) {
					var row []float64
					for _, proto := range []string{"kafka", "pbft"} {
						tput, resp, err := writeRun(s, proto, clients)
						if err != nil {
							return nil, err
						}
						row = append(row, tput, millis(resp))
					}
					return row, nil
				}})
			}
			return out, nil
		},
	},
}

// writeRun drives clients concurrent submitters, each sending its share
// of Q1 transactions through one consensus protocol over four engines,
// and returns the committed throughput and the mean response time.
func writeRun(s *Scope, proto string, clients int) (tput float64, resp time.Duration, err error) {
	txPerClient := s.scaled(100, 5)
	engines := make([]*core.Engine, 4)
	committers := make([]consensus.Committer, 4)
	for i := range engines {
		e, err := s.Engine(Dataset{Name: fmt.Sprintf("f7-%s-%d-n%d", proto, clients, i), Load: SetupSchema})
		if err != nil {
			return 0, 0, err
		}
		e.SetParallelism(s.workers())
		engines[i] = e
		committers[i] = e
	}

	var cons consensus.Consensus
	switch proto {
	case "kafka":
		// Batch sizes scale with the client population so the
		// saturation knee (paper: 200-tx blocks, ~240 clients)
		// appears at any harness scale.
		broker := kafka.New(kafka.Options{
			BatchSize:    s.scaled(200, 5),
			BatchTimeout: 200 * time.Millisecond,
			RequireSigs:  true,
			Parallelism:  s.workers(),
		})
		for _, c := range committers {
			broker.Subscribe(c)
		}
		cons = broker
	default:
		cl, err := pbft.New(pbft.Options{
			F: 1, BatchSize: s.scaled(10_000, 50),
			BatchTimeout: 200 * time.Millisecond,
			RequireSigs:  true,
			Parallelism:  s.workers(),
		}, committers)
		if err != nil {
			return 0, 0, err
		}
		cons = cl
	}
	if err := cons.Start(); err != nil {
		return 0, 0, err
	}

	key := ed25519.NewKeyFromSeed(make([]byte, ed25519.SeedSize))
	engines[0].RegisterKey("client", key)

	var wg sync.WaitGroup
	var latMu sync.Mutex
	var totalLatency time.Duration
	completed := 0
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			for i := 0; i < txPerClient; i++ {
				tx, err := Q1Tx(engines[0], rng, "client")
				if err != nil {
					return
				}
				t0 := time.Now()
				if err := cons.Submit(tx); err != nil {
					return
				}
				latMu.Lock()
				totalLatency += time.Since(t0)
				completed++
				latMu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if err := cons.Stop(); err != nil {
		return 0, 0, err
	}
	if completed == 0 {
		return 0, 0, fmt.Errorf("no transactions completed under %s", proto)
	}
	return float64(completed) / elapsed.Seconds(), totalLatency / time.Duration(completed), nil
}
