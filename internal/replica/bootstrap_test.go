package replica_test

import (
	"math"
	"reflect"
	"testing"

	"sebdb/internal/auth"
	"sebdb/internal/core"
	"sebdb/internal/index/layered"
	"sebdb/internal/obs"
	"sebdb/internal/replica"
	"sebdb/internal/types"
)

func boundBits(h *layered.Histogram) []uint64 {
	if h == nil {
		return nil
	}
	out := []uint64{}
	for _, f := range h.Bounds() {
		out = append(out, math.Float64bits(f))
	}
	return out
}

// TestBootstrapAdoptsSourceBuckets: a continuous ALI is created at
// height 1, when the chain holds no rows and its histogram is one
// catch-all bucket, and 30 blocks of wider values follow; a layered
// index is created after the first of them. A fresh node bootstraps from
// the source and must bucket exactly as the source does — equal bounds,
// equal candidate blocks, equal digests — where a node that sampled its
// own histogram from the whole chain would not.
func TestBootstrapAdoptsSourceBuckets(t *testing.T) {
	le, _ := openEngine(t, t.TempDir())
	defer le.Close()
	seedChain(t, le, 0)
	if le.Height() != 1 {
		t.Fatalf("source height %d after the DDL block, want 1", le.Height())
	}
	if err := le.CreateAuthIndex("donate", "amount"); err != nil {
		t.Fatal(err)
	}
	commitBlocks(t, le, 1)
	if err := le.CreateIndex("donate", "amount"); err != nil {
		t.Fatal(err)
	}
	commitBlocks(t, le, 29)
	ln, addr := serveLeader(t, le)
	defer ln.Close()

	fe, _ := openEngine(t, t.TempDir())
	defer fe.Close()
	if err := replica.Bootstrap(fe, addr); err != nil {
		t.Fatal(err)
	}
	if fe.Height() != le.Height() {
		t.Fatalf("bootstrapped height %d, source %d", fe.Height(), le.Height())
	}

	lo, hi := types.Dec(60), types.Dec(70)
	lv, fv := le.CurrentView(), fe.CurrentView()
	la, fa := lv.AuthIndex("donate", "amount"), fv.AuthIndex("donate", "amount")
	if fa == nil || fv.Layered("donate", "amount") == nil {
		t.Fatal("the source's indexes were not adopted")
	}
	if got, want := boundBits(fa.Histogram()), boundBits(la.Histogram()); want == nil || !reflect.DeepEqual(got, want) {
		t.Errorf("ALI bounds %x, source %x", got, want)
	}
	if got, want := boundBits(fv.Layered("donate", "amount").Histogram()), boundBits(lv.Layered("donate", "amount").Histogram()); len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Errorf("layered bounds %x, source %x", got, want)
	}
	want := la.CandidateBlocks(lo, hi).Slice()
	if got := fa.CandidateBlocks(lo, hi).Slice(); !reflect.DeepEqual(got, want) {
		t.Errorf("candidate blocks %v, source %v", got, want)
	}
	if auth.Digest(fa, fv.Height(), nil, lo, hi) != auth.Digest(la, lv.Height(), nil, lo, hi) {
		t.Error("the bootstrapped node's digest differs from the source's")
	}

	// A node with the same chain that samples its own histogram buckets
	// differently: this is what adopting the definitions prevents.
	se, _ := openEngine(t, t.TempDir())
	defer se.Close()
	if err := replica.CatchUp(se, addr); err != nil {
		t.Fatal(err)
	}
	if err := se.CreateAuthIndex("donate", "amount"); err != nil {
		t.Fatal(err)
	}
	if got := se.CurrentView().AuthIndex("donate", "amount").CandidateBlocks(lo, hi).Slice(); len(got) >= len(want) {
		t.Errorf("a re-sampled ALI has %d candidate blocks, the source %d: the scenario lost its point", len(got), len(want))
	}
}

// TestBootstrapCheckpointsAsItApplies: a node with CheckpointInterval
// set cuts its own checkpoints while the stream applies, so reopening
// after a bootstrap replays less than one interval.
func TestBootstrapCheckpointsAsItApplies(t *testing.T) {
	le, _ := openEngine(t, t.TempDir())
	defer le.Close()
	seedChain(t, le, 25)
	if err := le.CreateAuthIndex("donate", "amount"); err != nil {
		t.Fatal(err)
	}
	ln, addr := serveLeader(t, le)
	defer ln.Close()

	const interval = 8
	dir := t.TempDir()
	fe, err := core.Open(core.Config{Dir: dir, HistogramDepth: 10, CheckpointInterval: interval, Obs: obs.NewRegistry(nil)})
	if err != nil {
		t.Fatal(err)
	}
	if err := replica.Bootstrap(fe, addr); err != nil {
		t.Fatal(err)
	}
	if err := fe.Close(); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry(nil)
	re, err := core.Open(core.Config{Dir: dir, HistogramDepth: 10, CheckpointInterval: interval, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Height() != le.Height() {
		t.Fatalf("reopened height %d, source %d", re.Height(), le.Height())
	}
	if got := reg.Counter("sebdb_snapshot_suffix_blocks").Value(); got >= interval {
		t.Errorf("reopen replayed %d blocks, want fewer than the interval of %d", got, interval)
	}
	ra := re.CurrentView().AuthIndex("donate", "amount")
	if ra == nil {
		t.Fatal("the adopted ALI did not survive the reopen")
	}
	if got, want := boundBits(ra.Histogram()), boundBits(le.CurrentView().AuthIndex("donate", "amount").Histogram()); !reflect.DeepEqual(got, want) {
		t.Errorf("reopened ALI bounds %x, source %x", got, want)
	}
}
