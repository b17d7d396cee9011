package replica_test

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sebdb/internal/core"
	"sebdb/internal/network"
	"sebdb/internal/node"
	"sebdb/internal/obs"
	"sebdb/internal/replica"
	"sebdb/internal/types"
)

// openEngine opens an engine over dir with a private metrics registry,
// so per-follower counters (applied/rejected blocks) don't bleed across
// the engines of one test.
func openEngine(t testing.TB, dir string) (*core.Engine, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry(nil)
	e, err := core.Open(core.Config{Dir: dir, HistogramDepth: 10, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	return e, reg
}

// seedChain gives the engine the donate table plus nBlocks committed
// blocks of three transactions each.
func seedChain(t testing.TB, e *core.Engine, nBlocks int) {
	t.Helper()
	if !e.CurrentView().HasTable("donate") {
		if _, err := e.Execute(`CREATE donate (donor string, project string, amount decimal)`); err != nil {
			t.Fatal(err)
		}
		if err := e.FlushAt(1); err != nil {
			t.Fatal(err)
		}
	}
	commitBlocks(t, e, nBlocks)
}

// commitBlocks appends nBlocks more blocks to the engine's chain.
func commitBlocks(t testing.TB, e *core.Engine, nBlocks int) {
	t.Helper()
	base := int(e.Height())
	for b := 0; b < nBlocks; b++ {
		var batch []*types.Transaction
		for i := 0; i < 3; i++ {
			seq := base*10 + b*3 + i
			tx, err := e.NewTransaction(fmt.Sprintf("org%d", seq%3), "donate", []types.Value{
				types.Str(fmt.Sprintf("donor%02d", seq%5)),
				types.Str("education"),
				types.Dec(float64(seq)),
			})
			if err != nil {
				t.Fatal(err)
			}
			tx.Ts = int64(base+b+1) * 1000
			batch = append(batch, tx)
		}
		if _, err := e.CommitBlock(batch, int64(base+b+1)*1000); err != nil {
			t.Fatal(err)
		}
	}
}

// serveLeader wraps the engine in a full node with a fast replication
// heartbeat and serves it on a fresh port.
func serveLeader(t testing.TB, e *core.Engine) (*node.FullNode, string) {
	t.Helper()
	n := node.New(e)
	n.Replication().SetHeartbeat(20 * time.Millisecond)
	addr, err := n.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return n, addr
}

// startFollower flips the engine into follower mode and starts a tail
// loop tuned for test speed. The heartbeat (which sets the stream-read
// grace at 3x) stays generous: on a single-CPU box under the race
// detector a busy test goroutine can hold the scheduler for tens of
// milliseconds, and a tight grace turns that into spurious reconnects.
func startFollower(e *core.Engine, leaderAddr string) *replica.Follower {
	e.SetFollower(true)
	return replica.StartFollower(e, replica.FollowerConfig{
		Leader:     leaderAddr,
		Heartbeat:  200 * time.Millisecond,
		Backoff:    10 * time.Millisecond,
		MaxBackoff: 200 * time.Millisecond,
	})
}

// waitConverged blocks until the follower's chain matches the leader's
// height and tip hash.
func waitConverged(t testing.TB, leader, follower *core.Engine, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		lh, fh := leader.Height(), follower.Height()
		if lh == fh && lh > 0 {
			lt, ft := leader.CurrentView().Tip(), follower.CurrentView().Tip()
			if lt != nil && ft != nil && lt.Hash() == ft.Hash() {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("no convergence: leader height %d, follower height %d", lh, fh)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestFollowerBootstrapsAndServesReads(t *testing.T) {
	le, _ := openEngine(t, t.TempDir())
	defer le.Close()
	seedChain(t, le, 5)
	ln, addr := serveLeader(t, le)
	defer ln.Close()

	fe, freg := openEngine(t, t.TempDir())
	defer fe.Close()
	f := startFollower(fe, addr)
	defer f.Stop()
	waitConverged(t, le, fe, 10*time.Second)

	// The follower serves SELECT and TRACE from its own views.
	res, err := fe.Execute(`SELECT * FROM donate`)
	if err != nil {
		t.Fatalf("follower SELECT: %v", err)
	}
	want := 5 * 3
	if len(res.Rows) != want {
		t.Errorf("follower SELECT rows = %d, want %d", len(res.Rows), want)
	}
	if _, err := fe.Execute(`TRACE OPERATOR = "org1"`); err != nil {
		t.Errorf("follower TRACE: %v", err)
	}

	// Local writes are rejected; the chain only advances via the stream.
	if err := fe.Submit(&types.Transaction{}); !errors.Is(err, core.ErrFollower) {
		t.Errorf("follower Submit err = %v, want ErrFollower", err)
	}
	if _, err := fe.CommitBlock(nil, 1); !errors.Is(err, core.ErrFollower) {
		t.Errorf("follower CommitBlock err = %v, want ErrFollower", err)
	}

	// New commits on the leader stream through while the follower is live.
	commitBlocks(t, le, 3)
	waitConverged(t, le, fe, 10*time.Second)
	res, err = fe.Execute(`SELECT * FROM donate`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != want+3*3 {
		t.Errorf("follower SELECT rows after stream = %d, want %d", len(res.Rows), want+3*3)
	}
	if got := freg.Counter("sebdb_replica_applied_blocks_total").Value(); got == 0 {
		t.Error("applied-blocks counter did not move")
	}
}

func TestFollowerRestartResumesFromCursor(t *testing.T) {
	le, _ := openEngine(t, t.TempDir())
	defer le.Close()
	seedChain(t, le, 4)
	ln, addr := serveLeader(t, le)
	defer ln.Close()

	fdir := t.TempDir()
	fe, _ := openEngine(t, fdir)
	f := startFollower(fe, addr)
	waitConverged(t, le, fe, 10*time.Second)
	f.Stop()
	if err := fe.Close(); err != nil {
		t.Fatal(err)
	}

	// The leader moves on while the follower is down.
	commitBlocks(t, le, 3)

	// On restart the follower subscribes from its cursor: only the three
	// missed blocks are applied, nothing is re-applied.
	fe2, freg2 := openEngine(t, fdir)
	defer fe2.Close()
	if fe2.Height() != 5 { // 1 DDL block + 4 data blocks
		t.Fatalf("restarted follower height = %d, want 5", fe2.Height())
	}
	f2 := startFollower(fe2, addr)
	defer f2.Stop()
	waitConverged(t, le, fe2, 10*time.Second)
	if got := freg2.Counter("sebdb_replica_applied_blocks_total").Value(); got != 3 {
		t.Errorf("applied after restart = %d, want 3 (resume must not re-apply)", got)
	}
}

func TestLeaderRestartMidStream(t *testing.T) {
	le, _ := openEngine(t, t.TempDir())
	defer le.Close()
	seedChain(t, le, 3)
	ln, addr := serveLeader(t, le)

	fe, _ := openEngine(t, t.TempDir())
	defer fe.Close()
	f := startFollower(fe, addr)
	defer f.Stop()
	waitConverged(t, le, fe, 10*time.Second)

	// Leader restarts: its node goes away and comes back on the same
	// address with more blocks; the follower must resume from its cursor.
	if err := ln.Close(); err != nil {
		t.Fatal(err)
	}
	commitBlocks(t, le, 4)
	ln2 := node.New(le)
	ln2.Replication().SetHeartbeat(20 * time.Millisecond)
	var err error
	for i := 0; i < 50; i++ { // the old listener's port may take a moment to free
		if _, err = ln2.Serve(addr); err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("leader re-listen: %v", err)
	}
	defer ln2.Close()
	waitConverged(t, le, fe, 15*time.Second)
}

// tamperingLeader is a fake leader: the first subscription session gets
// a tampered copy of block 0 (body altered after signing, so the header
// signature is intact but the Merkle root no longer matches); later
// sessions serve the honest chain.
type tamperingLeader struct {
	src      *core.Engine
	sessions atomic.Int64
}

func (tl *tamperingLeader) serve(payload []byte, conn net.Conn) {
	cursor, err := types.NewDecoder(payload).Uint64()
	if err != nil {
		return
	}
	session := tl.sessions.Add(1)
	h := tl.src.Height()
	for next := cursor; next < h; next++ {
		b, err := tl.src.Block(next)
		if err != nil {
			return
		}
		raw := b.EncodeBytes()
		if session == 1 {
			// Flip a byte in the last transaction's tail: the header
			// (including its signature) is untouched, the body no longer
			// matches the Merkle root.
			raw[len(raw)-1] ^= 0xFF
		}
		e := types.NewEncoder(12 + len(raw))
		e.Uint64(h)
		e.Blob(raw)
		if network.WriteFrame(conn, network.KindBlockPush, e.Bytes()) != nil {
			return
		}
		if session == 1 {
			return // honest leaders close too; the follower must re-request
		}
	}
	// Heartbeat so the converged follower doesn't time out mid-test.
	for {
		e := types.NewEncoder(12)
		e.Uint64(h)
		e.Blob(nil)
		if network.WriteFrame(conn, network.KindBlockPush, e.Bytes()) != nil {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestTamperedPushRejectedAndRerequested(t *testing.T) {
	src, _ := openEngine(t, t.TempDir())
	defer src.Close()
	seedChain(t, src, 2)

	tl := &tamperingLeader{src: src}
	srv := network.NewServer()
	srv.HandleStream(network.KindSubscribe, tl.serve)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	fe, freg := openEngine(t, t.TempDir())
	defer fe.Close()
	f := startFollower(fe, ln.Addr().String())
	defer f.Stop()
	waitConverged(t, src, fe, 15*time.Second)

	if got := freg.Counter("sebdb_replica_rejected_blocks_total").Value(); got == 0 {
		t.Error("tampered block was not counted as rejected")
	}
	// Despite the tamper the follower converged to the honest chain by
	// re-requesting from its (unchanged) cursor.
	if fe.Height() != src.Height() {
		t.Errorf("follower height = %d, want %d", fe.Height(), src.Height())
	}
	if tl.sessions.Load() < 2 {
		t.Errorf("sessions = %d, want >= 2 (re-request after rejection)", tl.sessions.Load())
	}
}

func TestForgedSignatureRejected(t *testing.T) {
	src, _ := openEngine(t, t.TempDir())
	defer src.Close()
	seedChain(t, src, 1)
	b, err := src.Block(0)
	if err != nil {
		t.Fatal(err)
	}
	// Strip the signature: VerifySig must fail before ApplyBlock runs.
	forged := *b
	forged.Header.Signature = nil

	fe, freg := openEngine(t, t.TempDir())
	defer fe.Close()
	fe.SetFollower(true)

	srv := network.NewServer()
	srv.HandleStream(network.KindSubscribe, func(payload []byte, conn net.Conn) {
		e := types.NewEncoder(1024)
		e.Uint64(1)
		e.Blob(forged.EncodeBytes())
		_ = network.WriteFrame(conn, network.KindBlockPush, e.Bytes())
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	f := replica.StartFollower(fe, replica.FollowerConfig{
		Leader:     ln.Addr().String(),
		Heartbeat:  200 * time.Millisecond,
		Backoff:    10 * time.Millisecond,
		MaxBackoff: 200 * time.Millisecond,
	})
	defer f.Stop()

	deadline := time.Now().Add(10 * time.Second)
	for freg.Counter("sebdb_replica_rejected_blocks_total").Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("forged block was never rejected")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if fe.Height() != 0 {
		t.Errorf("forged block advanced the chain to height %d", fe.Height())
	}
}

// TestFollowerReadStressDuringPushes races SELECT/TRACE readers on the
// follower against the apply loop while the leader commits; run with
// -race it is the reader-vs-replication data-race gate.
func TestFollowerReadStressDuringPushes(t *testing.T) {
	le, _ := openEngine(t, t.TempDir())
	defer le.Close()
	seedChain(t, le, 3)
	ln, addr := serveLeader(t, le)
	defer ln.Close()

	fe, _ := openEngine(t, t.TempDir())
	defer fe.Close()
	f := startFollower(fe, addr)
	defer f.Stop()
	waitConverged(t, le, fe, 10*time.Second)

	stop := make(chan struct{})
	stopReaders := sync.OnceFunc(func() { close(stop) })
	defer stopReaders() // a convergence fatal must not leak spinning readers
	var wg sync.WaitGroup
	readErr := make([]error, 4)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			last := 0
			for {
				select {
				case <-stop:
					return
				// Yield between queries: on a single-CPU runner four
				// hot loops would starve the apply goroutine outright.
				case <-time.After(time.Millisecond):
				}
				var res *core.Result
				var err error
				if r%2 == 0 {
					res, err = fe.Execute(`SELECT * FROM donate`)
				} else {
					res, err = fe.Execute(`TRACE OPERATOR = "org1"`)
				}
				if err != nil {
					readErr[r] = err
					return
				}
				// Row counts only grow as blocks stream in.
				if len(res.Rows) < last {
					readErr[r] = fmt.Errorf("rows shrank: %d -> %d", last, len(res.Rows))
					return
				}
				last = len(res.Rows)
			}
		}(r)
	}
	commitBlocks(t, le, 20)
	waitConverged(t, le, fe, 30*time.Second)
	stopReaders()
	wg.Wait()
	for r, err := range readErr {
		if err != nil {
			t.Errorf("reader %d: %v", r, err)
		}
	}
}

// TestLeaderPushesOnlyPublishedBlocks subscribes a bare wire client to a
// leader under a synced commit storm and checks, as each block arrives,
// that the leader's own published view already covers it. The store's
// count runs ahead of the view between append and publication (index
// and ALI maintenance, the fsync), and a block pushed in that window
// would let a follower serve a VO at a height the leader cannot yet
// confirm. View heights only grow, so a check made on arrival is a
// check on the moment of the push.
func TestLeaderPushesOnlyPublishedBlocks(t *testing.T) {
	le, err := core.Open(core.Config{Dir: t.TempDir(), HistogramDepth: 10, Sync: true, Obs: obs.NewRegistry(nil)})
	if err != nil {
		t.Fatal(err)
	}
	defer le.Close()
	seedChain(t, le, 2)
	if err := le.CreateAuthIndex("donate", "amount"); err != nil {
		t.Fatal(err)
	}
	ln, addr := serveLeader(t, le)
	defer ln.Close()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	cursor := types.NewEncoder(8)
	cursor.Uint64(0)
	if err := network.WriteFrame(conn, network.KindSubscribe, cursor.Bytes()); err != nil {
		t.Fatal(err)
	}

	const storm = 60
	target := le.Height() + storm
	received := make(chan error, 1)
	go func() {
		for next := uint64(0); next < target; {
			kind, payload, err := network.ReadFrame(conn)
			if err != nil || kind != network.KindBlockPush {
				received <- fmt.Errorf("stream broke at block %d: kind %d, %v", next, kind, err)
				return
			}
			d := types.NewDecoder(payload)
			if _, err := d.Uint64(); err != nil {
				received <- err
				return
			}
			body, err := d.Blob()
			if err != nil {
				received <- err
				return
			}
			if len(body) == 0 {
				continue // heartbeat
			}
			b, err := types.DecodeBlock(types.NewDecoder(body))
			if err != nil {
				received <- err
				return
			}
			if published := le.CurrentView().Height(); published <= b.Header.Height {
				received <- fmt.Errorf("block %d arrived while the leader's view was at height %d", b.Header.Height, published)
				return
			}
			next = b.Header.Height + 1
		}
		received <- nil
	}()
	commitBlocks(t, le, storm)
	select {
	case err := <-received:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("stream did not deliver the storm")
	}
}

// TestFollowerALIRootsMatchLeader: a follower builds its ALIs from the
// leader's definition records in the stream, block by block, and must
// arrive at the leader's MB-roots — for blocks it backfilled when the
// record arrived and for blocks it indexed as they were pushed.
func TestFollowerALIRootsMatchLeader(t *testing.T) {
	le, _ := openEngine(t, t.TempDir())
	defer le.Close()
	seedChain(t, le, 6)
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
	if err := le.CreateAuthIndex("", "senid"); err != nil {
		t.Fatal(err)
	}
	commitBlocks(t, le, 6)
	waitConverged(t, le, fe, 10*time.Second)

	lv, fv := le.CurrentView(), fe.CurrentView()
	for _, idx := range [][2]string{{"donate", "amount"}, {"", "senid"}} {
		la, fa := lv.AuthIndex(idx[0], idx[1]), fv.AuthIndex(idx[0], idx[1])
		rooted := 0
		for bid := uint64(0); bid < lv.Height(); bid++ {
			lr, lok := la.Root(bid)
			fr, fok := fa.Root(bid)
			if lok != fok || lr != fr {
				t.Errorf("%s.%s block %d: leader root %x (%v), follower root %x (%v)", idx[0], idx[1], bid, lr[:4], lok, fr[:4], fok)
			}
			if lok {
				rooted++
			}
		}
		if rooted < 12 {
			t.Errorf("%s.%s: only %d blocks carry a root", idx[0], idx[1], rooted)
		}
	}
}
