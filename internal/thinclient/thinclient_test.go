package thinclient_test

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"sebdb/internal/auth"
	"sebdb/internal/core"
	"sebdb/internal/faultfs"
	"sebdb/internal/merkle"
	"sebdb/internal/network"
	"sebdb/internal/node"
	"sebdb/internal/thinclient"
	"sebdb/internal/types"
)

// cluster builds k identical full nodes (same committed chain) with
// ALIs on donate.amount and tname, plus a thin client synced to node 0.
func cluster(t testing.TB, k, nBlocks, txPerBlock int) ([]*node.FullNode, []node.QueryNode, *thinclient.Client) {
	t.Helper()
	return clusterOn(t, nil, k, nBlocks, txPerBlock)
}

// clusterOn is cluster with node 0's files on fs0 (nil: the real
// filesystem).
func clusterOn(t testing.TB, fs0 faultfs.FS, k, nBlocks, txPerBlock int) ([]*node.FullNode, []node.QueryNode, *thinclient.Client) {
	t.Helper()
	var nodes []*node.FullNode
	var qn []node.QueryNode
	for i := 0; i < k; i++ {
		cfg := core.Config{Dir: t.TempDir(), HistogramDepth: 10, Signer: fmt.Sprintf("node%d", i)}
		if i == 0 {
			cfg.FS = fs0
		}
		e, err := core.Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { e.Close() })
		nodes = append(nodes, node.New(e))
		qn = append(qn, &node.Local{Node: nodes[i], Name: fmt.Sprintf("node%d", i)})
	}
	// Drive the same ordered batches into every node — what consensus
	// guarantees. Node 0's blocks are replayed on the others so all
	// chains are byte-identical.
	e0 := nodes[0].Engine
	if _, err := e0.Execute(`CREATE donate (donor string, project string, amount decimal)`); err != nil {
		t.Fatal(err)
	}
	if err := e0.FlushAt(1); err != nil {
		t.Fatal(err)
	}
	seq := 0
	for b := 0; b < nBlocks; b++ {
		var batch []*types.Transaction
		for i := 0; i < txPerBlock; i++ {
			tx, err := e0.NewTransaction(fmt.Sprintf("org%d", seq%3), "donate", []types.Value{
				types.Str(fmt.Sprintf("donor%02d", seq%5)),
				types.Str("education"),
				types.Dec(float64(seq)),
			})
			if err != nil {
				t.Fatal(err)
			}
			tx.Ts = int64(b+1) * 1000
			batch = append(batch, tx)
			seq++
		}
		if _, err := e0.CommitBlock(batch, int64(b+1)*1000); err != nil {
			t.Fatal(err)
		}
	}
	// The ALIs' definitions ride node 0's chain as records.
	if err := e0.CreateAuthIndex("donate", "amount"); err != nil {
		t.Fatal(err)
	}
	if err := e0.CreateAuthIndex("", "tname"); err != nil {
		t.Fatal(err)
	}
	replicate(t, nodes, 0)
	tc := thinclient.New(1)
	if err := tc.SyncHeaders(qn[0]); err != nil {
		t.Fatal(err)
	}
	return nodes, qn, tc
}

// replicate applies node 0's blocks from height from on to every other
// node.
func replicate(t testing.TB, nodes []*node.FullNode, from uint64) {
	t.Helper()
	e0 := nodes[0].Engine
	for h := from; h < e0.Height(); h++ {
		blk, err := e0.Block(h)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range nodes[1:] {
			if err := n.Engine.ApplyBlock(blk); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestAuthQueryHappyPath(t *testing.T) {
	_, qn, tc := cluster(t, 4, 6, 10)
	req := &node.AuthRequest{Table: "donate", Col: "amount",
		Lo: types.Dec(15), Hi: types.Dec(30)}
	txs, st, err := tc.AuthQuery(qn[0], qn[1:], req,
		thinclient.Options{M: 2, ByzantineRatio: 0.25, MaxByzantine: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(txs) != 16 {
		t.Errorf("got %d txs, want 16", len(txs))
	}
	for _, tx := range txs {
		if v := tx.Args[2].Float(); v < 15 || v > 30 {
			t.Errorf("out-of-range amount %g", v)
		}
	}
	if st.VOSize == 0 || st.Identical < 2 {
		t.Errorf("stats = %+v", st)
	}
	// m=2 > max=1 Byzantine ⇒ θ = 0.
	if st.Theta != 0 {
		t.Errorf("theta = %g", st.Theta)
	}
}

func TestAuthTrackingQuery(t *testing.T) {
	_, qn, tc := cluster(t, 4, 5, 8)
	req := &node.AuthRequest{Table: "", Col: "tname",
		Lo: types.Str("donate"), Hi: types.Str("donate")}
	txs, _, err := tc.AuthQuery(qn[0], qn[1:], req, thinclient.Options{M: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(txs) != 40 {
		t.Errorf("tracking got %d txs, want 40", len(txs))
	}
}

func TestAuthQueryWithWindow(t *testing.T) {
	_, qn, tc := cluster(t, 4, 6, 10)
	req := &node.AuthRequest{Table: "donate", Col: "amount",
		Lo: types.Dec(0), Hi: types.Dec(1000), WinStart: 2000, WinEnd: 3000}
	txs, _, err := tc.AuthQuery(qn[0], qn[1:], req, thinclient.Options{M: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(txs) != 20 { // blocks 1 and 2
		t.Errorf("windowed got %d txs, want 20", len(txs))
	}
	for _, tx := range txs {
		if tx.Ts < 2000 || tx.Ts > 3000 {
			t.Errorf("tx ts %d outside window", tx.Ts)
		}
	}
}

// byzantineNode wraps a QueryNode and forges digests.
type byzantineNode struct{ node.QueryNode }

func (b byzantineNode) AuthDigest(r *node.AuthRequest) ([32]byte, error) {
	return [32]byte{0xE, 0xF}, nil
}

func TestAuthQueryDetectsByzantineAuxiliaries(t *testing.T) {
	_, qn, tc := cluster(t, 4, 4, 6)
	req := &node.AuthRequest{Table: "donate", Col: "amount",
		Lo: types.Dec(0), Hi: types.Dec(5)}
	// All auxiliaries forge: quorum of honest digests unreachable.
	aux := []node.QueryNode{byzantineNode{qn[1]}, byzantineNode{qn[2]}, byzantineNode{qn[3]}}
	if _, _, err := tc.AuthQuery(qn[0], aux, req, thinclient.Options{M: 2}); err == nil {
		t.Error("all-Byzantine auxiliaries accepted")
	}
	// One forger among three: quorum still reached.
	aux = []node.QueryNode{byzantineNode{qn[1]}, qn[2], qn[3]}
	if _, _, err := tc.AuthQuery(qn[0], aux, req, thinclient.Options{M: 2}); err != nil {
		t.Errorf("one forger broke quorum: %v", err)
	}
}

func TestAuthQueryDetectsWithholdingFullNode(t *testing.T) {
	_, qn, _ := cluster(t, 4, 6, 10)
	req := &node.AuthRequest{Table: "donate", Col: "amount",
		Lo: types.Dec(0), Hi: types.Dec(1000)} // touches every block
	// Phase one from an honest node, then manually drop a block VO and
	// replay verification: the digest can no longer match auxiliaries.
	ans, err := qn[0].AuthQuery(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Blocks) < 2 {
		t.Fatal("answer too small to truncate")
	}
	ans.Blocks = ans.Blocks[:len(ans.Blocks)-1]
	// Emulate the client pipeline on the truncated answer.
	digest, _, err := auth.VerifyAnswer(ans, req.Lo, req.Hi)
	if err != nil {
		t.Fatal(err)
	}
	req2 := *req
	req2.Height = ans.Height
	honest, err := qn[1].AuthDigest(&req2)
	if err != nil {
		t.Fatal(err)
	}
	if digest == honest {
		t.Error("withheld block escaped the digest comparison")
	}
}

func TestSyncHeadersRejectsForks(t *testing.T) {
	_, qn, tc := cluster(t, 2, 3, 4)
	if tc.Height() < 2 {
		t.Fatalf("%d headers synced", tc.Height())
	}
	// A second sync from an identical node is a no-op.
	height := tc.Height()
	if err := tc.SyncHeaders(qn[1]); err != nil || tc.Height() != height {
		t.Errorf("re-sync from identical chain: %v, height %d → %d", err, height, tc.Height())
	}
	// A diverged node (different chain) is rejected whether it is lower
	// than the client's, as tall or taller, with both heights named.
	for _, forkHeight := range []uint64{height - 1, height, height + 1} {
		e, err := core.Open(core.Config{Dir: t.TempDir(), Signer: "evil", BlockMaxTxs: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		if _, err := e.Execute(`CREATE other (a int)`); err != nil {
			t.Fatal(err)
		}
		for i := 0; e.Height() < forkHeight; i++ {
			if i > 0 {
				if _, err := e.Execute(fmt.Sprintf(`INSERT INTO other (%d)`, i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := e.FlushAt(int64(i + 1)); err != nil {
				t.Fatal(err)
			}
		}
		evil := node.New(e)
		defer evil.Close()
		err = tc.SyncHeaders(&node.Local{Node: evil, Name: "evil"})
		if err == nil {
			t.Errorf("forked header chain of height %d accepted", forkHeight)
		} else if msg := err.Error(); !strings.Contains(msg, fmt.Sprint(forkHeight)) || !strings.Contains(msg, fmt.Sprint(height)) {
			t.Errorf("refusing a fork of height %d: %q names not both heights", forkHeight, msg)
		}
		if tc.Height() != height {
			t.Fatalf("a refused sync moved the client to height %d", tc.Height())
		}
	}
}

func TestVerifyMembership(t *testing.T) {
	nodes, _, tc := cluster(t, 1, 3, 5)
	e := nodes[0].Engine
	blk, err := e.Block(1)
	if err != nil {
		t.Fatal(err)
	}
	leaves := types.TxLeaves(blk.Txs)
	proof, err := merkle.Prove(leaves, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !tc.VerifyMembership(blk.Txs[2], 1, proof) {
		t.Error("valid membership rejected")
	}
	// Wrong block or tampered tx fails.
	if tc.VerifyMembership(blk.Txs[2], 2, proof) {
		t.Error("wrong block accepted")
	}
	forged := *blk.Txs[2]
	forged.Args = append([]types.Value(nil), forged.Args...)
	forged.Args[2] = types.Dec(9999)
	if tc.VerifyMembership(&forged, 1, proof) {
		t.Error("forged tx accepted")
	}
	if tc.VerifyMembership(blk.Txs[2], 99, proof) {
		t.Error("unknown height accepted")
	}
}

// TestVerifyMembershipRefusesForgedSealedCopy: a transaction committed
// through CommitBlock is sealed — it caches its encoding under its Tid
// and Ts — and a struct copy carries that cache. A copy with changed
// Args must not verify on the strength of the cached bytes.
func TestVerifyMembershipRefusesForgedSealedCopy(t *testing.T) {
	nodes, _, tc := cluster(t, 1, 1, 4)
	e := nodes[0].Engine
	var batch []*types.Transaction
	for i := 0; i < 4; i++ {
		tx, err := e.NewTransaction("org1", "donate", []types.Value{types.Str("jack"), types.Str("edu"), types.Dec(float64(10 + i))})
		if err != nil {
			t.Fatal(err)
		}
		batch = append(batch, tx)
	}
	blk, err := e.CommitBlock(batch, 1<<40)
	if err != nil {
		t.Fatal(err)
	}
	if err := tc.SyncHeaders(&node.Local{Node: nodes[0], Name: "node0"}); err != nil {
		t.Fatal(err)
	}
	proof, err := merkle.Prove(types.TxLeaves(blk.Txs), 2)
	if err != nil {
		t.Fatal(err)
	}
	h := blk.Header.Height
	if !tc.VerifyMembership(blk.Txs[2], h, proof) {
		t.Fatal("valid membership rejected")
	}
	forged := *blk.Txs[2]
	forged.Args = append([]types.Value(nil), forged.Args...)
	forged.Args[2] = types.Dec(9999)
	if tc.VerifyMembership(&forged, h, proof) {
		t.Error("a sealed copy with changed Args verified")
	}
}

// TestTreeBuildReadErrorReachesClient: node 0 cannot read its block
// files when a query first touches the candidates' MB-trees. The thin
// client gets the store's error back instead of an answer with blocks
// left out, and once reads work again the same query is answered and
// verified.
func TestTreeBuildReadErrorReachesClient(t *testing.T) {
	inj := faultfs.New(faultfs.Options{OpsBeforeCrash: -1})
	_, qn, tc := clusterOn(t, inj, 4, 6, 10)
	req := &node.AuthRequest{Table: "donate", Col: "amount", Lo: types.Dec(15), Hi: types.Dec(30)}
	opts := thinclient.Options{M: 2}
	inj.FailReads(true)
	if txs, _, err := tc.AuthQuery(qn[0], qn[1:], req, opts); !errors.Is(err, faultfs.ErrRead) {
		t.Fatalf("AuthQuery with unreadable blocks = %d txs, %v; want the injected read error", len(txs), err)
	}
	inj.FailReads(false)
	txs, _, err := tc.AuthQuery(qn[0], qn[1:], req, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(txs) != 16 {
		t.Errorf("got %d txs, want 16", len(txs))
	}
}

func TestAuthTrack(t *testing.T) {
	nodes, qn, tc := cluster(t, 4, 5, 8)
	from := nodes[0].Engine.Height()
	if err := nodes[0].Engine.CreateAuthIndex("", "senid"); err != nil {
		t.Fatal(err)
	}
	replicate(t, nodes, from)
	// One dimension: all of org1's transactions.
	txs, st, err := tc.AuthTrack(qn[0], qn[1:], "org1", "", 0, 0, thinclient.Options{M: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for seq := 0; seq < 40; seq++ {
		if seq%3 == 1 {
			want++
		}
	}
	if len(txs) != want {
		t.Errorf("one-dim track = %d, want %d", len(txs), want)
	}
	// Two dimensions: org1's donate transactions (all are donate here, so
	// filtering by a wrong operation empties the set).
	txs, _, err = tc.AuthTrack(qn[0], qn[1:], "org1", "donate", 0, 0, thinclient.Options{M: 2})
	if err != nil || len(txs) != want {
		t.Errorf("two-dim track = %d, %v", len(txs), err)
	}
	txs, _, err = tc.AuthTrack(qn[0], qn[1:], "org1", "transfer", 0, 0, thinclient.Options{M: 2})
	if err != nil || len(txs) != 0 {
		t.Errorf("mismatched operation = %d, %v", len(txs), err)
	}
	// With a window restricting to the first two data blocks.
	txs, _, err = tc.AuthTrack(qn[0], qn[1:], "org1", "", 1000, 3000, thinclient.Options{M: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, tx := range txs {
		if tx.Ts < 1000 || tx.Ts > 3000 {
			t.Errorf("windowed track leaked ts %d", tx.Ts)
		}
	}
	_ = st
}

// TestLaggingAuxiliaryRefuses holds one auxiliary a block behind the
// node that serves the VO. Asked for a digest at a height it has not
// reached, it must say so — answering would hash a shorter candidate
// set and read as a mismatch — and the client skips it like any other
// auxiliary that errors.
func TestLaggingAuxiliaryRefuses(t *testing.T) {
	nodes, qn, tc := cluster(t, 3, 4, 10)
	lead := nodes[0].Engine
	var batch []*types.Transaction
	for i := 0; i < 10; i++ {
		tx, err := lead.NewTransaction("org1", "donate", []types.Value{
			types.Str("donor00"), types.Str("education"), types.Dec(float64(i)),
		})
		if err != nil {
			t.Fatal(err)
		}
		batch = append(batch, tx)
	}
	blk, err := lead.CommitBlock(batch, 9000)
	if err != nil {
		t.Fatal(err)
	}
	if err := nodes[1].Engine.ApplyBlock(blk); err != nil { // node 2 stays behind
		t.Fatal(err)
	}
	if err := tc.SyncHeaders(qn[0]); err != nil {
		t.Fatal(err)
	}

	// The new block is a candidate: amounts 0..9 also sit in block 1.
	req := &node.AuthRequest{Table: "donate", Col: "amount", Lo: types.Dec(0), Hi: types.Dec(9)}
	ahead := *req
	ahead.Height = lead.Height()
	if _, err := qn[2].AuthDigest(&ahead); !errors.Is(err, node.ErrAheadOfView) {
		t.Fatalf("lagging AuthDigest err = %v, want ErrAheadOfView", err)
	}
	if _, err := qn[2].AuthQuery(&ahead); !errors.Is(err, node.ErrAheadOfView) {
		t.Fatalf("lagging AuthQuery err = %v, want ErrAheadOfView", err)
	}
	// Over the wire the refusal is an application error, not a transport
	// failure to retry.
	addr, err := nodes[2].Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	remote, err := node.DialNode(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	if _, err := remote.AuthDigest(&ahead); !network.IsAppError(err) {
		t.Fatalf("remote lagging AuthDigest err = %v, want an application error", err)
	}

	// Either sampling order reaches the quorum of one through node 1.
	for seed := int64(0); seed < 4; seed++ {
		c := thinclient.New(seed)
		if err := c.SyncHeaders(qn[0]); err != nil {
			t.Fatal(err)
		}
		txs, st, err := c.AuthQuery(qn[0], []node.QueryNode{qn[2], qn[1]}, req, thinclient.Options{M: 1})
		if err != nil || len(txs) != 20 || st.Identical != 1 {
			t.Errorf("seed %d: %d txs, stats %+v, err %v", seed, len(txs), st, err)
		}
	}
	// With the lagging node the only auxiliary there is no quorum — and
	// no false one either.
	if _, _, err := tc.AuthQuery(qn[0], []node.QueryNode{qn[2]}, req, thinclient.Options{}); !errors.Is(err, thinclient.ErrNoQuorum) {
		t.Errorf("lagging-only quorum err = %v", err)
	}
}

// countingNode counts the digests it is asked for.
type countingNode struct {
	node.QueryNode
	asked *atomic.Int32
}

func (c countingNode) AuthDigest(r *node.AuthRequest) ([32]byte, error) {
	c.asked.Add(1)
	return c.QueryNode.AuthDigest(r)
}

// TestPhaseTwoAsksWhatTheSequentialRuleAsks: phase two runs while the VO
// is verified, but it may not ask an auxiliary the sequential rule
// would not have asked, nor ask one twice. Two forgers agreeing with
// each other stop the early asking at M identical digests; the client
// then resumes in the same order until M digests match its own.
func TestPhaseTwoAsksWhatTheSequentialRuleAsks(t *testing.T) {
	_, qn, _ := cluster(t, 3, 4, 6)
	req := &node.AuthRequest{Table: "donate", Col: "amount", Lo: types.Dec(0), Hi: types.Dec(5)}
	for seed := int64(0); seed < 16; seed++ {
		counts := make([]*atomic.Int32, 4)
		for i := range counts {
			counts[i] = new(atomic.Int32)
		}
		aux := []node.QueryNode{
			countingNode{byzantineNode{qn[1]}, counts[0]},
			countingNode{byzantineNode{qn[2]}, counts[1]},
			countingNode{qn[1], counts[2]},
			countingNode{qn[2], counts[3]},
		}
		tc := thinclient.New(seed)
		if err := tc.SyncHeaders(qn[0]); err != nil {
			t.Fatal(err)
		}
		_, st, err := tc.AuthQuery(qn[0], aux, req, thinclient.Options{M: 2})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		total := 0
		for i, c := range counts {
			if c.Load() > 1 {
				t.Errorf("seed %d: auxiliary %d asked %d times", seed, i, c.Load())
			}
			total += int(c.Load())
		}
		// The sequential rule stops at the second honest reply: it asks
		// both honest nodes and every forger sampled before the second.
		if st.Identical != 2 || st.AuxAsked != total || total < 2 ||
			counts[2].Load() != 1 || counts[3].Load() != 1 {
			t.Errorf("seed %d: stats %+v, %d digests asked", seed, st, total)
		}
	}
}
