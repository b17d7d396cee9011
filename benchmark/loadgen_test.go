package main

import (
	"testing"
	"time"

	"sebdb/internal/core"
)

// A server that stalls once must cost every request queued behind the
// stall, not only the one that was on the wire: latency runs from the
// due time, and the generator's lateness is reported beside it.
func TestOpenLoopChargesQueueingFromDueTime(t *testing.T) {
	const stall = 80 * time.Millisecond
	calls := 0
	target := &Target{SQL: func(string) (*core.Result, error) {
		if calls++; calls == 1 {
			time.Sleep(stall)
		}
		return &core.Result{}, nil
	}}
	stream := &Stream{pool: []Stmt{{Kind: NarrowQ4, SQL: "x", Want: Answer{}}}}
	due := make([]time.Duration, 20)
	for i := range due {
		due[i] = time.Duration(i) * time.Millisecond
	}
	res := runOpen([]*Target{target}, stream, due, nil)
	if res.Attempted != len(due) || res.Failed != 0 {
		t.Fatalf("attempted %d failed %d, want %d and 0", res.Attempted, res.Failed, len(due))
	}
	// Every request was due within 20 ms of the start, the stall ended
	// at 80 ms: all of them waited, so every latency is at least
	// stall minus its due offset.
	for i, ms := range res.LatencyMS {
		floor := float64(stall-due[i]) / float64(time.Millisecond)
		if ms < floor-1 {
			t.Errorf("request %d: latency %.1f ms, want at least %.1f (charged from its due time)", i, ms, floor)
		}
	}
	// Had latency been timed from the send, the requests behind the
	// stall would read as microseconds.
	late := sortedCopy(res.LateMS)
	if worst := late[len(late)-1]; worst < float64(stall/time.Millisecond)-25 {
		t.Errorf("worst generator lateness %.1f ms, want about %v", worst, stall)
	}
	if late[0] > 5 {
		t.Errorf("the first request was sent %.1f ms late with nothing in its way", late[0])
	}
}

func TestScheduleIsSeededAndAtRate(t *testing.T) {
	a := Schedule(1000, 2*time.Second, 7)
	b := Schedule(1000, 2*time.Second, 7)
	c := Schedule(1000, 2*time.Second, 8)
	if len(a) != len(b) {
		t.Fatal("same seed gave schedules of different length")
	}
	same := len(a) == len(c)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed gave different due times")
		}
		if same && a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds gave the same schedule")
	}
	if len(a) < 1800 || len(a) > 2200 {
		t.Fatalf("%d arrivals in 2 s at 1000/s", len(a))
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatal("due times go backwards")
		}
	}
}

func TestStopEndsAPhaseEarly(t *testing.T) {
	target := &Target{SQL: func(string) (*core.Result, error) { return &core.Result{}, nil }}
	stream := &Stream{pool: []Stmt{{Kind: NarrowQ4, SQL: "x"}}}
	stop := make(chan struct{})
	time.AfterFunc(30*time.Millisecond, func() { close(stop) })
	t0 := time.Now()
	runOpen([]*Target{target}, stream, Schedule(100, time.Minute, 1), stop)
	runClosed([]*Target{target}, stream, time.Minute, stop)
	if took := time.Since(t0); took > 5*time.Second {
		t.Fatalf("stopped phases ran %v", took)
	}
}

func TestWindowedRateIgnoresOneStalledWindow(t *testing.T) {
	r := PhaseResult{Elapsed: 2 * time.Second}
	// 100 replies in each of three half-second windows, 10 in the other.
	for w, n := range []int{100, 10, 100, 100} {
		for i := 0; i < n; i++ {
			r.DoneAt = append(r.DoneAt, 0.5*float64(w)+0.25)
			r.Attempted++
		}
	}
	if got := r.WindowedRate(0.5); got != 200 {
		t.Fatalf("windowed rate %v, want 200/s (the stalled window must not pull it down)", got)
	}
}
