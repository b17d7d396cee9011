package bench

import (
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"sebdb/internal/core"
	"sebdb/internal/node"
	"sebdb/internal/replica"
)

// figReplicas — not a paper figure: aggregate verified read throughput
// versus read-replica count. One leader serves a TCP block stream;
// followers bootstrap from empty directories, tail it, re-verify and
// apply every pushed block, and serve Q4 from their own height-pinned
// views. Each sweep measures the fleet's aggregate reads/s while the
// leader commits filler blocks beside the readers, plus the replication
// lag the moment the writer stops — the bounded-staleness number the
// replication contract promises.
var figReplicas = &Figure{
	Num:   26,
	Name:  "replicas",
	Title: "Fig. 26 — read replicas: aggregate Q4 reads/s vs replica count under a committing leader",
	Note:  "replicas serve verified reads from their own height-pinned views; 0 replicas = all reads on the leader; lag is leader height minus the slowest follower's the moment the writer stops",
	Sweep: &Sweep{
		X: "replicas",
		Series: []Series{
			{"reads", "reads"}, {"reads/s", "reads/s"}, {"blocks committed", "blocks"}, {"lag at writer stop", "blocks"},
		},
		Points: replicaPoints,
	},
}

func replicaPoints(s *Scope) ([]Point, error) {
	counts := []int{0, 1, 2, 4}
	leaderEng, err := s.Engine(Dataset{
		Name: filepath.Join("figrep", "leader"),
		Load: func(e *core.Engine) error {
			return LoadRange(e, GenConfig{
				Blocks: s.scaled(300, 20), TxPerBlock: 100, ResultSize: s.scaled(5_000, 100),
				Dist: Uniform, Seed: 1,
			})
		},
	})
	if err != nil {
		return nil, err
	}
	leader := node.New(leaderEng)
	leader.Replication().SetHeartbeat(50 * time.Millisecond)
	addr, err := leader.Serve("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.Defer(leader.Close)

	// Start the full fleet once; each sweep reads from a prefix of it.
	// Followers keep tailing between sweeps, so later sweeps start
	// converged — exactly how a standing fleet behaves.
	repEngs := make([]*core.Engine, counts[len(counts)-1])
	for i := range repEngs {
		// A follower bootstraps from an empty directory; a reused one
		// resumes from its own height.
		repEngs[i], err = s.Engine(Dataset{Name: filepath.Join("figrep", fmt.Sprintf("rep%d", i))})
		if err != nil {
			return nil, err
		}
		repEngs[i].SetFollower(true)
		f := replica.StartFollower(repEngs[i], replica.FollowerConfig{
			Leader:    addr,
			Heartbeat: 50 * time.Millisecond,
			Backoff:   20 * time.Millisecond,
		})
		s.Defer(func() error { f.Stop(); return nil })
	}
	converge := func() error {
		deadline := time.Now().Add(60 * time.Second)
		for {
			want := leaderEng.Height()
			behind := false
			for _, re := range repEngs {
				if re.Height() < want {
					behind = true
					break
				}
			}
			if !behind {
				return nil
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("fleet did not converge to height %d", want)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	if err := converge(); err != nil {
		return nil, err
	}

	commits := s.scaled(60, 8)
	minReads := s.scaled(50, 5)
	filler := fillerBlocks()
	var out []Point
	for _, count := range counts {
		out = append(out, Point{X: fmt.Sprint(count), Row: func(*Scope) ([]float64, error) {
			fleet := []*core.Engine{leaderEng}
			if count > 0 {
				fleet = repEngs[:count]
			}
			if err := converge(); err != nil {
				return nil, err
			}
			done, wait := commitInBackground(leaderEng, commits, filler)

			// One reader goroutine per fleet engine, all racing the writer
			// (and, on the replicas, the apply loop). Each reader runs until
			// the writer is done AND it has met a minimum quota, so a sweep
			// at tiny scale still measures real reads.
			readCounts := make([]int, len(fleet))
			readErrs := make([]error, len(fleet))
			var rg sync.WaitGroup
			start := time.Now()
			for i, re := range fleet {
				rg.Add(1)
				go func() {
					defer rg.Done()
					readCounts[i], readErrs[i] = readLoop(re, func(reads int) bool {
						if reads < minReads {
							return true
						}
						select {
						case <-done:
							return false
						default:
							return true
						}
					})
				}()
			}
			rg.Wait()
			elapsed := time.Since(start).Seconds()
			if err := wait(); err != nil {
				return nil, err
			}
			// Lag at the instant the writer stopped: how far the slowest
			// follower trails the leader before catch-up.
			lag := uint64(0)
			lh := leaderEng.Height()
			for _, re := range repEngs[:count] {
				if h := re.Height(); lh > h && lh-h > lag {
					lag = lh - h
				}
			}
			total := 0
			for i, err := range readErrs {
				if err != nil {
					return nil, fmt.Errorf("reader on node %d: %w", i, err)
				}
				total += readCounts[i]
			}
			return []float64{float64(total), float64(total) / elapsed, float64(commits), float64(lag)}, nil
		}})
	}
	return out, nil
}
