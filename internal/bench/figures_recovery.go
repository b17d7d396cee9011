package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"sebdb/internal/clock"
	"sebdb/internal/core"
	"sebdb/internal/node"
	"sebdb/internal/obs"
)

// figRecovery — not a paper figure: restart and fresh-node bootstrap
// time as the chain grows, with and without the checkpoint subsystem.
// A full-replay restart re-derives every index from the block log, so
// it grows linearly with chain height; a checkpointed restart seeds the
// derived state from the newest snapshot and replays only the
// post-checkpoint suffix. The same split shows up for a fresh node:
// fast-sync streams the peer's block bodies plus its checkpoint and
// opens without replaying, while a plain sync streams the same bodies
// and then pays the full rebuild.
var figRecovery = &Figure{
	Num:   24,
	Name:  "recovery",
	Title: "Fig. 24 — recovery: restart and fresh-node sync time vs chain height",
	Note:  "restart/ckpt should stay near-flat while restart/replay grows; both sync columns stream every block, but sync/fast skips the index rebuild",
	Sweep: &Sweep{
		X: "blocks",
		Series: []Series{
			{"restart/ckpt", Millis}, {"restart/replay", Millis}, {"sync/fast", Millis}, {"sync/replay", Millis},
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
// restart, then bootstraps two throwaway nodes from it — one by
// fast-sync, one by streaming blocks into a fresh engine. Restarting
// is the measurement, so the row closes its engines itself; the scope
// only catches the ones an error strands (Engine.Close is idempotent).
func recoveryRow(s *Scope, blocks int) ([]float64, error) {
	cfg := core.Config{
		Dir:            filepath.Join(s.Dir, fmt.Sprintf("figr-%d", blocks)),
		HistogramDepth: 100,
		DefaultSender:  "bench",
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

	// Bootstrap two fresh nodes from the restarted engine, served as an
	// in-process peer so the figure measures recovery, not socket noise.
	src := node.New(e)
	peer := &node.Local{Node: src, Name: "src"}
	dFast, err := timeFastSync(s, peer, height)
	var dRepl time.Duration
	if err == nil {
		dRepl, err = timeReplaySync(s, peer, height)
	}
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
	return []float64{millis(dCkpt), millis(dFull), millis(dFast), millis(dRepl)}, e.Close()
}

// syncDir makes a throwaway bootstrap directory the scope removes.
func syncDir(s *Scope, pattern string) (string, error) {
	dir, err := os.MkdirTemp(s.Dir, pattern)
	if err == nil {
		s.Defer(func() error { return os.RemoveAll(dir) })
	}
	return dir, err
}

// timeFastSync bootstraps a throwaway node from the peer's checkpoint
// and times the transfer plus the checkpoint-seeded open.
func timeFastSync(s *Scope, peer node.QueryNode, height uint64) (time.Duration, error) {
	dir, err := syncDir(s, "figr-fast-*")
	if err != nil {
		return 0, err
	}
	reg := obs.NewRegistry(clock.UnixMicro)
	start := time.Now()
	if _, err := node.FastSync(dir, peer, reg); err != nil {
		return 0, err
	}
	e, err := core.Open(core.Config{Dir: dir, HistogramDepth: 100, Obs: reg})
	if err != nil {
		return 0, err
	}
	d := time.Since(start)
	s.Defer(e.Close)
	if e.Height() != height {
		return 0, fmt.Errorf("fast-synced height %d, want %d", e.Height(), height)
	}
	if n := reg.Counter("sebdb_snapshot_suffix_blocks").Value(); n != 0 {
		return 0, fmt.Errorf("fast-synced open replayed %d blocks", n)
	}
	return d, e.Close()
}

// timeReplaySync bootstraps a throwaway node without the checkpoint:
// it streams the peer's blocks into a fresh engine and then builds the
// same user indexes the checkpoint would have delivered — the
// pre-checkpoint baseline for reaching an equivalent serving state.
func timeReplaySync(s *Scope, peer node.QueryNode, height uint64) (time.Duration, error) {
	dir, err := syncDir(s, "figr-repl-*")
	if err != nil {
		return 0, err
	}
	start := time.Now()
	e, err := core.Open(core.Config{Dir: dir, HistogramDepth: 100})
	if err != nil {
		return 0, err
	}
	s.Defer(e.Close)
	for h := uint64(0); h < height; h++ {
		b, err := peer.BlockAt(h)
		if err != nil {
			return 0, err
		}
		if err := e.ApplyBlock(b); err != nil {
			return 0, err
		}
	}
	if err := e.CreateIndex("donate", "amount"); err != nil {
		return 0, err
	}
	if err := e.CreateAuthIndex("donate", "amount"); err != nil {
		return 0, err
	}
	d := time.Since(start)
	if e.Height() != height {
		return 0, fmt.Errorf("replay-synced height %d, want %d", e.Height(), height)
	}
	return d, e.Close()
}
