package bench

import (
	"fmt"
	"math/rand"
	"time"

	"sebdb/internal/core"
	"sebdb/internal/exec"
	"sebdb/internal/types"
)

// fillerBlocks returns a source of 100-transaction donate blocks whose
// amounts lie strictly below the Q4 window, so committing them beside
// readers leaves the answer set — and with it the work per read —
// unchanged on every node at every height.
func fillerBlocks() func() []*types.Transaction {
	rng := rand.New(rand.NewSource(2))
	return func() []*types.Transaction {
		txs := make([]*types.Transaction, 100)
		for i := range txs {
			txs[i] = &types.Transaction{
				SenID: fmt.Sprintf("org%d", 2+rng.Intn(20)),
				Tname: "donate",
				Args: []types.Value{
					types.Str(fmt.Sprintf("donor%06d", rng.Intn(1_000_000))),
					types.Str("education"),
					types.Dec(float64(rng.Intn(RangeLo - 1))),
				},
			}
		}
		return txs
	}
}

// commitInBackground commits n filler blocks on e from a goroutine. The
// returned channel closes when the writer stops; wait joins it and
// reports its error.
func commitInBackground(e *core.Engine, n int, filler func() []*types.Transaction) (done <-chan struct{}, wait func() error) {
	stopped := make(chan struct{})
	var wErr error
	go func() {
		defer close(stopped)
		for i := 0; i < n; i++ {
			if _, err := e.CommitBlock(filler(), 0); err != nil {
				wErr = fmt.Errorf("concurrent commit: %w", err)
				return
			}
		}
	}()
	return stopped, func() error {
		<-stopped
		return wErr
	}
}

// readLoop runs Q4 through e's pinned-view path for as long as
// keepGoing allows, demanding the identical answer from every read.
func readLoop(e *core.Engine, keepGoing func(reads int) bool) (reads int, err error) {
	want := -1
	for keepGoing(reads) {
		n, err := Q4(e, RangeLo, RangeHi, exec.MethodLayered)
		if err != nil {
			return reads, err
		}
		if want < 0 {
			want = n
		}
		if n != want {
			return reads, fmt.Errorf("read %d returned %d rows, want %d", reads, n, want)
		}
		reads++
	}
	return reads, nil
}

// figReadView — not a paper figure: read throughput of the height-
// pinned view path with the commit pipeline idle versus running flat
// out. Readers pin an immutable view per query and never touch the
// engine lock, so the committing phase should hold roughly the idle
// phase's reads/s; before the view refactor every read serialised
// behind e.mu and collapsed whenever a writer held it.
var figReadView = &Figure{
	Num:   25,
	Name:  "readview",
	Title: "Fig. 25 — height-pinned views: Q4 reads/s, idle vs during commits",
	Note:  "reads keep flowing while the writer commits (flat on multi-core hosts; on few cores the drop is CPU sharing, not lock waits); both phases return identical results",
	Sweep: &Sweep{
		X:      "phase",
		Series: []Series{{"reads", "reads"}, {"reads/s", "reads/s"}, {"blocks committed", "blocks"}},
		Points: readViewPoints,
	},
}

func readViewPoints(s *Scope) ([]Point, error) {
	e, err := s.Engine(Dataset{
		Name: "figrv",
		Load: func(e *core.Engine) error {
			return LoadRange(e, GenConfig{
				Blocks: s.scaled(500, 20), TxPerBlock: 100, ResultSize: s.scaled(5_000, 100),
				Dist: Uniform, Seed: 1,
			})
		},
	})
	if err != nil {
		return nil, err
	}
	iters := s.scaled(300, 40)
	commits := s.scaled(100, 10)
	filler := fillerBlocks()
	return []Point{
		// No writer, a fixed read count.
		{X: "idle", Row: func(*Scope) ([]float64, error) {
			start := time.Now()
			reads, err := readLoop(e, func(r int) bool { return r < iters })
			return []float64{float64(reads), float64(reads) / time.Since(start).Seconds(), 0}, err
		}},
		// The writer commits a fixed run of blocks while the reader loops
		// beside it, so every read of this phase races a live commit
		// pipeline.
		{X: "committing", Row: func(*Scope) ([]float64, error) {
			done, wait := commitInBackground(e, commits, filler)
			start := time.Now()
			reads, err := readLoop(e, func(int) bool {
				select {
				case <-done:
					return false
				default:
					return true
				}
			})
			qps := float64(reads) / time.Since(start).Seconds()
			if werr := wait(); err == nil {
				err = werr
			}
			return []float64{float64(reads), qps, float64(commits)}, err
		}},
	}, nil
}
