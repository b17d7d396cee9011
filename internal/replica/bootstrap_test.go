package replica_test

import (
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

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

// sameBuckets fails t unless fe holds the layered index and the ALI on
// donate.amount with le's bounds, bit for bit, and answers a range with
// le's candidate blocks and auth.Digest.
func sameBuckets(t *testing.T, le, fe *core.Engine) {
	t.Helper()
	lo, hi := types.Dec(60), types.Dec(70)
	lv, fv := le.CurrentView(), fe.CurrentView()
	la, fa := lv.AuthIndex("donate", "amount"), fv.AuthIndex("donate", "amount")
	if la == nil || lv.Layered("donate", "amount") == nil {
		t.Fatal("the source lacks its indexes")
	}
	if fa == nil || fv.Layered("donate", "amount") == nil {
		t.Fatal("the source's indexes were not built")
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
		t.Error("the node's digest differs from the source's")
	}
}

// TestBootstrapAdoptsSourceBuckets: a continuous ALI is created at
// height 1, when the chain holds no rows and its histogram is one
// catch-all bucket, and 30 blocks of wider values follow; a layered
// index is created after the first of them. A fresh node catches up
// with the source and must bucket exactly as the source does — equal
// bounds, equal candidate blocks, equal digests — where a node that
// sampled its own histogram from the whole chain would not. Its own
// CreateAuthIndex afterwards finds the index and changes nothing.
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
	if err := replica.CatchUp(fe, addr); err != nil {
		t.Fatal(err)
	}
	if fe.Height() != le.Height() {
		t.Fatalf("bootstrapped height %d, source %d", fe.Height(), le.Height())
	}
	sameBuckets(t, le, fe)
	// The scenario keeps its point: the first level a resample of the
	// whole chain would give is not the source's.
	res, err := fe.Execute(`SELECT amount FROM donate`)
	if err != nil {
		t.Fatal(err)
	}
	var sample []float64
	for _, row := range res.Rows {
		sample = append(sample, row[0].Float())
	}
	if resampled := boundBits(layered.NewEqualDepth(sample, 10)); reflect.DeepEqual(resampled, boundBits(le.CurrentView().AuthIndex("donate", "amount").Histogram())) {
		t.Error("a resampled histogram equals the source's: the scenario lost its point")
	}

	// The caught-up node asks for the ALI itself: the chain already
	// defines it, so nothing is sampled, committed or rebuilt.
	ali, height := fe.CurrentView().AuthIndex("donate", "amount"), fe.Height()
	if err := fe.CreateAuthIndex("donate", "amount"); err != nil {
		t.Fatal(err)
	}
	if fe.Height() != height || fe.CurrentView().AuthIndex("donate", "amount") != ali {
		t.Errorf("CreateAuthIndex on a caught-up node moved it from height %d to %d or replaced its ALI", height, fe.Height())
	}
	sameBuckets(t, le, fe)
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
	if err := replica.CatchUp(fe, addr); err != nil {
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
		t.Fatal("the ALI built from the source's record did not survive the reopen")
	}
	if got, want := boundBits(ra.Histogram()), boundBits(le.CurrentView().AuthIndex("donate", "amount").Histogram()); !reflect.DeepEqual(got, want) {
		t.Errorf("reopened ALI bounds %x, source %x", got, want)
	}
}

// TestLiveFollowerTakesNewIndexes: a follower is already streaming when
// its leader creates an ALI and a layered index. The definitions reach
// it as records in the stream, so at the leader's height it holds both,
// with the leader's bounds, candidate blocks and digest — at once, and
// after more blocks.
func TestLiveFollowerTakesNewIndexes(t *testing.T) {
	le, _ := openEngine(t, t.TempDir())
	defer le.Close()
	seedChain(t, le, 12)
	ln, addr := serveLeader(t, le)
	defer ln.Close()
	fe, _ := openEngine(t, t.TempDir())
	defer fe.Close()
	f := startFollower(fe, addr)
	defer f.Stop()
	waitConverged(t, le, fe, 10*time.Second)

	if err := le.CreateAuthIndex("donate", "amount"); err != nil {
		t.Fatal(err)
	}
	if err := le.CreateIndex("donate", "amount"); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, le, fe, 10*time.Second)
	sameBuckets(t, le, fe)
	commitBlocks(t, le, 10)
	waitConverged(t, le, fe, 10*time.Second)
	sameBuckets(t, le, fe)
}

// TestFollowerCreateAuthIndex: a follower never builds an index of its
// own. CreateAuthIndex refuses with ErrFollower while its chain lacks
// the index, and succeeds, changing nothing, once the leader's record
// has arrived.
func TestFollowerCreateAuthIndex(t *testing.T) {
	le, _ := openEngine(t, t.TempDir())
	defer le.Close()
	seedChain(t, le, 4)
	ln, addr := serveLeader(t, le)
	defer ln.Close()
	fe, _ := openEngine(t, t.TempDir())
	defer fe.Close()
	f := startFollower(fe, addr)
	defer f.Stop()
	waitConverged(t, le, fe, 10*time.Second)

	height := fe.Height()
	if err := fe.CreateAuthIndex("donate", "amount"); !errors.Is(err, core.ErrFollower) {
		t.Fatalf("CreateAuthIndex on a follower without the index = %v, want ErrFollower", err)
	}
	if fe.Height() != height || fe.CurrentView().AuthIndex("donate", "amount") != nil {
		t.Fatal("the refused CreateAuthIndex built an index or moved the chain")
	}

	if err := le.CreateAuthIndex("donate", "amount"); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, le, fe, 10*time.Second)
	ali := fe.CurrentView().AuthIndex("donate", "amount")
	if ali == nil {
		t.Fatal("the leader's ALI did not reach the follower")
	}
	if err := fe.CreateAuthIndex("donate", "amount"); err != nil {
		t.Fatalf("CreateAuthIndex on a follower whose chain defines the index: %v", err)
	}
	if fe.CurrentView().AuthIndex("donate", "amount") != ali {
		t.Error("CreateAuthIndex replaced the follower's ALI")
	}
}
