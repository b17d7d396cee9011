package bench

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"sebdb/internal/clock"
	"sebdb/internal/core"
	"sebdb/internal/node"
	"sebdb/internal/replica"
)

// figRecovery — not a paper figure: restart and fresh-node bootstrap
// time as the chain grows, with and without the checkpoint subsystem.
// A full-replay restart re-derives every index from the block log, so
// it grows linearly with chain height; a checkpointed restart seeds the
// derived state from the newest snapshot and replays only the
// post-checkpoint suffix. A fresh node has one way in: it streams every
// verified block from a peer and then backfills the peer's index
// definitions, so it grows with the chain as a full replay does.
var figRecovery = &Figure{
	Num:   24,
	Name:  "recovery",
	Title: "Fig. 24 — recovery: restart and fresh-node sync time vs chain height",
	Note:  "restart/ckpt should stay near-flat while restart/replay grows; sync streams every block over loopback and backfills the source's indexes, so it grows with the chain like restart/replay",
	Sweep: &Sweep{
		X: "blocks",
		Series: []Series{
			{"restart/ckpt", Millis}, {"restart/replay", Millis}, {"sync", Millis},
		},
		Points: func(s *Scope) ([]Point, error) {
			base := s.scaled(4_000, 200)
			var out []Point
			for _, blocks := range []int{base / 4, base / 2, base} {
				out = append(out, Point{X: fmt.Sprint(blocks), Row: func(s *Scope) ([]float64, error) {
					return recoveryRow(s, blocks)
				}})
			}
			return out, nil
		},
	},
}

// recoveryRow measures one chain height: it builds (or reuses) a
// checkpointed chain, times a checkpoint-seeded and a full-replay
// restart, and bootstraps a throwaway node from it. Restarting
// is the measurement, so the row closes its engines itself; the scope
// only catches the ones an error strands (Engine.Close is idempotent).
func recoveryRow(s *Scope, blocks int) ([]float64, error) {
	cfg := core.Config{
		Dir:            filepath.Join(s.Dir, fmt.Sprintf("figr-%d", blocks)),
		HistogramDepth: 100,
		DefaultSender:  "bench",
		Clock:          clock.Fixed(1),
	}
	open := func(cfg core.Config) (*core.Engine, time.Duration, error) {
		start := time.Now()
		e, err := core.Open(cfg)
		if err == nil {
			s.Defer(e.Close)
		}
		return e, time.Since(start), err
	}
	e, _, err := open(cfg)
	if err != nil {
		return nil, err
	}
	if e.Height() == 0 {
		err = LoadRange(e, GenConfig{
			Blocks: blocks, TxPerBlock: 20, ResultSize: blocks,
			Dist: Uniform, Seed: 1,
		})
		if err == nil {
			err = e.CreateAuthIndex("donate", "amount")
		}
	}
	if err == nil {
		err = e.WriteCheckpoint()
	}
	height := e.Height() // DDL blocks ride the chain, so height > blocks
	if err == nil {
		err = e.Close()
	}
	if err != nil {
		return nil, err
	}

	// Restart with the checkpoint: Open seeds derived state from the
	// snapshot and replays only the (empty) suffix.
	e, dCkpt, err := open(cfg)
	if err != nil {
		return nil, err
	}
	if e.Height() != height {
		return nil, fmt.Errorf("checkpointed restart at height %d, want %d", e.Height(), height)
	}

	// Bootstrap a fresh node from the restarted engine, served over
	// loopback as any peer would be.
	src := node.New(e)
	dSync, err := timeBootstrap(s, src, height)
	if cerr := src.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = e.Close()
	}
	if err != nil {
		return nil, err
	}

	// Restart again with the checkpoint ignored: the engine rebuilds
	// every index by replaying the whole chain.
	cfg.DisableCheckpointLoad = true
	e, dFull, err := open(cfg)
	if err != nil {
		return nil, err
	}
	return []float64{millis(dCkpt), millis(dFull), millis(dSync)}, e.Close()
}

// timeBootstrap times a fresh node's one way in: open an empty engine
// and replica.CatchUp it from src — every block through the verified
// stream, the ALI built from src's definition record on the way.
func timeBootstrap(s *Scope, src *node.FullNode, height uint64) (time.Duration, error) {
	addr, err := src.Serve("127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	dir, err := os.MkdirTemp(s.Dir, "figr-sync-*")
	if err != nil {
		return 0, err
	}
	s.Defer(func() error { return os.RemoveAll(dir) })
	start := time.Now()
	e, err := core.Open(core.Config{Dir: dir, HistogramDepth: 100, Clock: clock.Fixed(1)})
	if err != nil {
		return 0, err
	}
	s.Defer(e.Close)
	if err := replica.CatchUp(e, addr); err != nil {
		return 0, err
	}
	d := time.Since(start)
	if e.Height() != height {
		return 0, fmt.Errorf("bootstrapped height %d, want %d", e.Height(), height)
	}
	if e.CurrentView().AuthIndex("donate", "amount") == nil {
		return 0, errors.New("bootstrap did not build the source's ALI")
	}
	return d, e.Close()
}
