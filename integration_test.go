package sebdb

// End-to-end integration tests: transactions flow through consensus
// into four engines, blocks stream to a fresh node over real TCP through
// the one verified catch-up path, SQL queries agree on every node, and a
// thin client verifies answers against untrusted nodes — the full SEBDB
// pipeline of Fig. 2.

import (
	"crypto/ed25519"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"sebdb/internal/consensus"
	"sebdb/internal/consensus/kafka"
	"sebdb/internal/consensus/pbft"
	"sebdb/internal/core"
	"sebdb/internal/network"
	"sebdb/internal/node"
	"sebdb/internal/replica"
	"sebdb/internal/thinclient"
	"sebdb/internal/types"
)

// buildCluster opens n engines sharing one schema, returned with their
// committers.
func buildCluster(t *testing.T, n int) ([]*core.Engine, []consensus.Committer) {
	t.Helper()
	engines := make([]*core.Engine, n)
	committers := make([]consensus.Committer, n)
	for i := range engines {
		e, err := core.Open(core.Config{
			Dir:    t.TempDir(),
			Signer: fmt.Sprintf("node%d", i),
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { e.Close() })
		engines[i] = e
		committers[i] = e
	}
	// Schema rides the chain: create on node 0 and replicate its block
	// to the others (the bootstrap a deployment does out of band).
	e0 := engines[0]
	for _, ddl := range []string{
		`CREATE donate (donor string, project string, amount decimal)`,
		`CREATE transfer (project string, donor string, organization string, amount decimal)`,
	} {
		if _, err := e0.Execute(ddl); err != nil {
			t.Fatal(err)
		}
	}
	if err := e0.FlushAt(1); err != nil {
		t.Fatal(err)
	}
	blk, err := e0.Block(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range engines[1:] {
		if err := e.ApplyBlock(blk); err != nil {
			t.Fatal(err)
		}
	}
	return engines, committers
}

func submitLoad(t *testing.T, cons consensus.Consensus, engines []*core.Engine, clients, txPerClient int) {
	t.Helper()
	key := ed25519.NewKeyFromSeed(make([]byte, ed25519.SeedSize))
	engines[0].RegisterKey("client", key)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < txPerClient; i++ {
				tx, err := engines[0].NewTransaction("client", "donate", []types.Value{
					types.Str(fmt.Sprintf("donor%d-%d", c, i)),
					types.Str("education"),
					types.Dec(float64(c*100 + i)),
				})
				if err != nil {
					t.Error(err)
					return
				}
				if err := cons.Submit(tx); err != nil {
					t.Error(err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
}

// assertConverged waits until every engine holds total txs of donate,
// then checks all engines return identical query results.
func assertConverged(t *testing.T, engines []*core.Engine, total int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		done := true
		for _, e := range engines {
			res, err := e.Execute(`SELECT tid FROM donate`)
			if err != nil || len(res.Rows) != total {
				done = false
				break
			}
		}
		if done {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	want, err := engines[0].Execute(`SELECT * FROM donate WHERE amount BETWEEN 100 AND 250`)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Rows) == 0 {
		t.Fatal("probe query empty")
	}
	for i, e := range engines[1:] {
		got, err := e.Execute(`SELECT * FROM donate WHERE amount BETWEEN 100 AND 250`)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Rows) != len(want.Rows) {
			t.Fatalf("engine %d returned %d rows, engine 0 %d", i+1, len(got.Rows), len(want.Rows))
		}
		for r := range got.Rows {
			for c := range got.Rows[r] {
				if !typesEqual(got.Rows[r][c], want.Rows[r][c]) {
					t.Fatalf("engine %d row %d col %d differs", i+1, r, c)
				}
			}
		}
	}
	// All chains are byte-identical up to the shorter height.
	h0 := engines[0].Height()
	for i, e := range engines[1:] {
		if e.Height() != h0 {
			t.Fatalf("engine %d height %d, engine 0 %d", i+1, e.Height(), h0)
		}
		for h := uint64(0); h < h0; h++ {
			a, _ := engines[0].Block(h)
			b, _ := e.Block(h)
			if a.Header.TransRoot != b.Header.TransRoot {
				t.Fatalf("engine %d block %d diverges", i+1, h)
			}
		}
	}
}

func typesEqual(a, b types.Value) bool { return types.Compare(a, b) == 0 }

func TestIntegrationKafkaPipeline(t *testing.T) {
	engines, committers := buildCluster(t, 4)
	broker := kafka.New(kafka.Options{BatchSize: 25, BatchTimeout: 10 * time.Millisecond})
	for _, c := range committers {
		broker.Subscribe(c)
	}
	if err := broker.Start(); err != nil {
		t.Fatal(err)
	}
	defer broker.Stop()
	submitLoad(t, broker, engines, 8, 25)
	assertConverged(t, engines, 200)
}

func TestIntegrationPBFTPipeline(t *testing.T) {
	engines, committers := buildCluster(t, 4)
	cluster, err := pbft.New(pbft.Options{F: 1, BatchSize: 50, BatchTimeout: 10 * time.Millisecond}, committers)
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.Start(); err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()
	submitLoad(t, cluster, engines, 4, 25)
	assertConverged(t, engines, 100)
}

// TestIntegrationGossipFollowerAndThinClient runs the read side: a
// fresh node bootstraps a populated chain over real TCP — the verified
// block stream, its source's index definition among the records — and a
// thin client runs the 2-phase authenticated protocol against it with
// the sources as auxiliaries, which only agree if the fresh node buckets
// its ALI exactly as they do.
func TestIntegrationGossipFollowerAndThinClient(t *testing.T) {
	engines, committers := buildCluster(t, 4)
	// The ALI rides the chain like the schema: create it on node 0 and
	// replicate its record's block to the others, before the consensus
	// nodes' chains part ways by signer.
	h := engines[0].Height()
	if err := engines[0].CreateAuthIndex("donate", "amount"); err != nil {
		t.Fatal(err)
	}
	blk, err := engines[0].Block(h)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range engines[1:] {
		if err := e.ApplyBlock(blk); err != nil {
			t.Fatal(err)
		}
	}
	broker := kafka.New(kafka.Options{BatchSize: 20, BatchTimeout: 5 * time.Millisecond})
	for _, c := range committers {
		broker.Subscribe(c)
	}
	broker.Start()
	submitLoad(t, broker, engines, 5, 20)
	broker.Stop()
	assertConverged(t, engines, 100)

	// Serve the four consensus nodes over TCP.
	var addrs []string
	for _, e := range engines {
		fn := node.New(e)
		defer fn.Close()
		addr, err := fn.Serve("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, addr)
	}

	// A fresh follower joins through the one catch-up path.
	fe, err := core.Open(core.Config{Dir: t.TempDir(), Signer: "follower"})
	if err != nil {
		t.Fatal(err)
	}
	defer fe.Close()
	fe.SetFollower(true)
	if err := replica.CatchUp(fe, addrs[0]); err != nil {
		t.Fatal(err)
	}
	if fe.Height() != engines[0].Height() {
		t.Fatalf("follower synced %d of %d blocks", fe.Height(), engines[0].Height())
	}
	follower := node.New(fe)
	defer follower.Close()
	fAddr, err := follower.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	// Thin client: headers from the follower, query against it, digests
	// from the original nodes — all over TCP.
	followerRemote, err := node.DialNode(fAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer followerRemote.Close()
	var aux []node.QueryNode
	for _, a := range addrs {
		r, err := node.DialNode(a)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		aux = append(aux, r)
	}
	tc := thinclient.New(7)
	if err := tc.SyncHeaders(followerRemote); err != nil {
		t.Fatal(err)
	}
	req := &node.AuthRequest{Table: "donate", Col: "amount",
		Lo: types.Dec(100), Hi: types.Dec(250)}
	txs, stats, err := tc.AuthQuery(followerRemote, aux, req,
		thinclient.Options{M: 2, ByzantineRatio: 0.25, MaxByzantine: 1})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := engines[0].Execute(`SELECT * FROM donate WHERE amount BETWEEN 100 AND 250`)
	if len(txs) != len(want.Rows) {
		t.Fatalf("thin client verified %d txs, engine says %d", len(txs), len(want.Rows))
	}
	if stats.Identical < 2 || stats.Theta != 0 {
		t.Errorf("quorum stats = %+v", stats)
	}
}

// TestIntegrationCrashRecoveryAndCatchUp leaves a consensus node out
// while the rest of the cluster commits, then verifies it catches up
// over the verified block stream.
func TestIntegrationCrashRecoveryAndCatchUp(t *testing.T) {
	engines, committers := buildCluster(t, 4)
	broker := kafka.New(kafka.Options{BatchSize: 10, BatchTimeout: 5 * time.Millisecond})
	for _, c := range committers[:3] { // node 3 "crashes" before the load
		broker.Subscribe(c)
	}
	broker.Start()
	submitLoad(t, broker, engines, 4, 10)
	broker.Stop()

	// Node 3 is behind.
	if engines[3].Height() >= engines[0].Height() {
		t.Fatal("node 3 unexpectedly up to date")
	}

	// Serve node 0 and catch node 3 up from it: the stream must restore
	// height, catalog and indexes.
	h0 := engines[0].Height()
	probe, err := engines[0].Execute(`SELECT COUNT(*) FROM donate`)
	if err != nil {
		t.Fatal(err)
	}
	src := node.New(engines[0])
	defer src.Close()
	addr, err := src.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := replica.CatchUp(engines[3], addr); err != nil {
		t.Fatal(err)
	}
	if engines[3].Height() != h0 {
		t.Fatalf("catch-up synced %d of %d", engines[3].Height(), h0)
	}
	got, err := engines[3].Execute(`SELECT COUNT(*) FROM donate`)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows[0][0] != probe.Rows[0][0] {
		t.Fatalf("recovered count %v, want %v", got.Rows[0][0], probe.Rows[0][0])
	}
}

// byzantineLeader serves the replication stream of src with every
// block passed through forge first, and returns its address.
func byzantineLeader(t *testing.T, src *core.Engine, forge func(*types.Block)) string {
	t.Helper()
	srv := network.NewServer()
	srv.HandleStream(network.KindSubscribe, func(payload []byte, conn net.Conn) {
		cursor, err := types.NewDecoder(payload).Uint64()
		if err != nil {
			return
		}
		h := src.Height()
		for next := cursor; next < h; next++ {
			b, err := src.Block(next)
			if err != nil {
				return
			}
			// Forge a decoded copy: src's block may be its cache's.
			forged, err := types.DecodeBlock(types.NewDecoder(b.EncodeBytes()))
			if err != nil {
				return
			}
			forge(forged)
			raw := forged.EncodeBytes()
			e := types.NewEncoder(12 + len(raw))
			e.Uint64(h)
			e.Blob(raw)
			if network.WriteFrame(conn, network.KindBlockPush, e.Bytes()) != nil {
				return
			}
		}
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { _ = srv.Close() })
	return ln.Addr().String()
}

// TestIntegrationByzantineGossipPeer: forged blocks from a peer are
// refused on the one way in — a body altered under its signed header
// fails the Merkle check in ApplyBlock, a header stripped of its
// signature and signer key fails VerifySig before anything applies —
// and an honest peer still completes the catch-up afterwards.
func TestIntegrationByzantineGossipPeer(t *testing.T) {
	engines, committers := buildCluster(t, 4)
	broker := kafka.New(kafka.Options{BatchSize: 10, BatchTimeout: 5 * time.Millisecond})
	for _, c := range committers {
		broker.Subscribe(c)
	}
	broker.Start()
	submitLoad(t, broker, engines, 2, 10)
	broker.Stop()

	fe, err := core.Open(core.Config{Dir: t.TempDir(), Signer: "follower"})
	if err != nil {
		t.Fatal(err)
	}
	defer fe.Close()

	for _, forgery := range []struct {
		name, refusal string
		forge         func(*types.Block)
	}{
		{"body", "apply failed", func(b *types.Block) {
			// Forge the payload without fixing the Merkle root.
			if len(b.Txs) > 0 && len(b.Txs[0].Args) > 0 {
				b.Txs[0].Args[len(b.Txs[0].Args)-1] = types.Dec(1e12)
			}
		}},
		{"unsigned", "invalid packager signature", func(b *types.Block) {
			b.Header.Signature, b.Header.SignerKey = nil, nil
		}},
	} {
		name := forgery.name
		evil := byzantineLeader(t, engines[0], forgery.forge)
		if err := replica.CatchUp(fe, evil); err == nil || !strings.Contains(err.Error(), forgery.refusal) {
			t.Errorf("%s forgery: catch-up error %v, want one naming %q", name, err, forgery.refusal)
		}
		if fe.Height() != 0 {
			t.Fatalf("%s forgery: follower accepted %d forged blocks", name, fe.Height())
		}
	}

	// An honest peer completes the sync.
	honest := node.New(engines[1])
	defer honest.Close()
	addr, err := honest.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := replica.CatchUp(fe, addr); err != nil {
		t.Fatal(err)
	}
	if fe.Height() != engines[1].Height() {
		t.Fatalf("honest sync reached %d of %d", fe.Height(), engines[1].Height())
	}
}

// TestIntegrationConcurrentReadsDuringCommits runs queries while blocks
// commit; with -race this checks the engine's locking.
func TestIntegrationConcurrentReadsDuringCommits(t *testing.T) {
	engines, _ := buildCluster(t, 1)
	e := engines[0]
	if err := e.CreateIndex("donate", "amount"); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := e.Execute(`SELECT COUNT(*) FROM donate WHERE amount BETWEEN 10 AND 50`); err != nil {
					t.Error(err)
					return
				}
				if _, err := e.Execute(`TRACE OPERATOR = "writer"`); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for b := 0; b < 30; b++ {
		var batch []*types.Transaction
		for i := 0; i < 10; i++ {
			tx, err := e.NewTransaction("writer", "donate", []types.Value{
				types.Str("d"), types.Str("p"), types.Dec(float64(b*10 + i)),
			})
			if err != nil {
				t.Fatal(err)
			}
			batch = append(batch, tx)
		}
		if _, err := e.CommitBlock(batch, time.Now().UnixMicro()); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	res, err := e.Execute(`SELECT COUNT(*) FROM donate`)
	if err != nil || res.Rows[0][0] != types.Int(300) {
		t.Fatalf("final count = %v, %v", res.Rows, err)
	}
}
