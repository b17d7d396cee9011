package node_test

import (
	"sync"
	"testing"
	"time"

	"sebdb/internal/core"
	"sebdb/internal/node"
	"sebdb/internal/replica"
)

// TestNodeServeSQLGossipStress drives a served node from several SQL
// clients while an initially empty follower streams the whole chain
// from it over TCP — the serve, query and replication paths all active
// at once under the race detector.
func TestNodeServeSQLGossipStress(t *testing.T) {
	src := seededNode(t, 5, 8)
	src.Replication().SetHeartbeat(20 * time.Millisecond)
	addr, err := src.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	e2, err := core.Open(core.Config{Dir: t.TempDir(), HistogramDepth: 10})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e2.Close() })
	e2.SetFollower(true)
	follower := replica.StartFollower(e2, replica.FollowerConfig{
		Leader:     addr,
		Heartbeat:  200 * time.Millisecond,
		Backoff:    10 * time.Millisecond,
		MaxBackoff: 200 * time.Millisecond,
	})
	t.Cleanup(follower.Stop)

	queries := []string{
		`SELECT * FROM donate WHERE amount BETWEEN 5 AND 9`,
		`SELECT donor FROM donate WHERE project = "education"`,
		`SELECT * FROM donate WHERE donor = "donor01"`,
	}
	const (
		clients = 4
		iters   = 25
	)
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := node.DialNode(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for i := 0; i < iters; i++ {
				if _, err := c.SQL(queries[(w+i)%len(queries)]); err != nil {
					t.Errorf("client %d: %v", w, err)
					return
				}
				if _, err := c.Height(); err != nil {
					t.Errorf("client %d height: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	deadline := time.Now().Add(5 * time.Second)
	for e2.Height() < src.Engine.Height() && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	follower.Stop()
	if got, want := e2.Height(), src.Engine.Height(); got != want {
		t.Fatalf("follower streamed to height %d, want %d", got, want)
	}

	// The replicated chain answers the same queries.
	res, err := e2.Execute(queries[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Errorf("follower SQL rows = %d, want 5", len(res.Rows))
	}
}
