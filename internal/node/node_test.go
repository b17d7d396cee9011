package node_test

import (
	"fmt"
	"testing"

	"sebdb/internal/core"
	"sebdb/internal/network"
	"sebdb/internal/node"
	"sebdb/internal/replica"
	"sebdb/internal/types"
)

// seededNode builds a full node with the donate table, nBlocks blocks
// of txPerBlock rows, and an ALI on donate.amount plus tname.
func seededNode(t testing.TB, nBlocks, txPerBlock int) *node.FullNode {
	t.Helper()
	e, err := core.Open(core.Config{Dir: t.TempDir(), HistogramDepth: 10})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	if _, err := e.Execute(`CREATE donate (donor string, project string, amount decimal)`); err != nil {
		t.Fatal(err)
	}
	if err := e.FlushAt(1); err != nil {
		t.Fatal(err)
	}
	seq := 0
	for b := 0; b < nBlocks; b++ {
		var batch []*types.Transaction
		for i := 0; i < txPerBlock; i++ {
			tx, err := e.NewTransaction(fmt.Sprintf("org%d", seq%3), "donate", []types.Value{
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
		if _, err := e.CommitBlock(batch, int64(b+1)*1000); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.CreateAuthIndex("donate", "amount"); err != nil {
		t.Fatal(err)
	}
	if err := e.CreateAuthIndex("", "tname"); err != nil {
		t.Fatal(err)
	}
	n := node.New(e)
	t.Cleanup(func() { _ = n.Close() })
	return n
}

func TestTCPQueryRoundTrip(t *testing.T) {
	fn := seededNode(t, 5, 10)
	addr, err := fn.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	remote, err := node.DialNode(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	h, err := remote.Height()
	if err != nil || h != fn.Engine.Height() {
		t.Errorf("Height = %d, %v", h, err)
	}
	hs, err := remote.Headers(3)
	if err != nil || len(hs) != int(h)-3 {
		t.Errorf("Headers: %d, %v", len(hs), err)
	}
	res, err := remote.SQL(`SELECT * FROM donate WHERE amount BETWEEN 5 AND 9`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Errorf("SQL rows = %d", len(res.Rows))
	}
	// SQL errors cross the wire.
	if _, err := remote.SQL(`SELECT * FROM ghost`); err == nil {
		t.Error("remote SQL error lost")
	}
}

func TestTCPAuthProtocol(t *testing.T) {
	fn := seededNode(t, 5, 10)
	addr, _ := fn.Serve("127.0.0.1:0")
	remote, err := node.DialNode(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	req := &node.AuthRequest{Table: "donate", Col: "amount",
		Lo: types.Dec(10), Hi: types.Dec(20)}
	ans, err := remote.AuthQuery(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Blocks) == 0 || ans.Height != fn.Engine.Height() {
		t.Errorf("answer = %d blocks at height %d", len(ans.Blocks), ans.Height)
	}
	req.Height = ans.Height
	d1, err := remote.AuthDigest(req)
	if err != nil {
		t.Fatal(err)
	}
	// The local view agrees.
	local := &node.Local{Node: fn, Name: "local"}
	d2, err := local.AuthDigest(req)
	if err != nil || d1 != d2 {
		t.Errorf("local/remote digest mismatch: %v", err)
	}
	// Missing ALI errors.
	bad := &node.AuthRequest{Table: "donate", Col: "project",
		Lo: types.Str("x"), Hi: types.Str("x")}
	if _, err := remote.AuthQuery(bad); err == nil {
		t.Error("missing ALI accepted")
	}
}

// TestGossipBetweenNodes: a fresh node joins through the one catch-up
// path — the verified block stream, the source's index definitions
// among its records — and answers like its source.
func TestGossipBetweenNodes(t *testing.T) {
	source := seededNode(t, 6, 5)
	e2, err := core.Open(core.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()

	addr, err := source.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := replica.CatchUp(e2, addr); err != nil {
		t.Fatal(err)
	}
	if e2.Height() != source.Engine.Height() {
		t.Fatalf("fresh node synced %d of %d blocks", e2.Height(), source.Engine.Height())
	}
	// The fresh node replayed schema transactions and can answer queries.
	res, err := e2.Execute(`SELECT * FROM donate WHERE donor = "donor01"`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Errorf("fresh node query rows = %d", len(res.Rows))
	}
	// It built both of the source's ALIs from their records.
	v := e2.CurrentView()
	if v.AuthIndex("donate", "amount") == nil || v.AuthIndex("", "tname") == nil {
		t.Error("fresh node lacks the source's ALIs")
	}
	// Caught up, a second CatchUp returns on the subscribe-time heartbeat.
	if err := replica.CatchUp(e2, addr); err != nil {
		t.Fatalf("CatchUp when level: %v", err)
	}
}

// TestRetiredKindsUnknown: the kind that served one block by height
// (2), the kinds fast checkpoint transfer used (7 and 8) and the one
// that served index definitions (11) are unassigned, so a served node
// answers them as it answers any unknown kind.
func TestRetiredKindsUnknown(t *testing.T) {
	fn := seededNode(t, 1, 1)
	addr, err := fn.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl, err := network.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for _, kind := range []uint8{2, 7, 8, 11} {
		if _, err := cl.Call(kind, nil); err == nil || err.Error() != network.UnknownKindMsg {
			t.Errorf("kind %d reply = %v, want %q", kind, err, network.UnknownKindMsg)
		}
	}
}

func TestWireProtocolErrorPaths(t *testing.T) {
	fn := seededNode(t, 3, 4)
	addr, err := fn.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl, err := network.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Malformed payloads must come back as errors, not kill the server.
	for _, kind := range []uint8{network.KindHeaders,
		network.KindAuthQuery, network.KindAuthDigest} {
		if _, err := cl.Call(kind, []byte{0x01}); err == nil {
			t.Errorf("kind %d accepted garbage payload", kind)
		}
	}
	// Headers beyond the tip return an empty set, not an error.
	e2 := types.NewEncoder(8)
	e2.Uint64(999)
	resp, err := cl.Call(network.KindHeaders, e2.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	d := types.NewDecoder(resp)
	if n, _ := d.Uint32(); n != 0 {
		t.Errorf("beyond-tip headers = %d", n)
	}
	// The connection still works after all those errors.
	if _, err := cl.Call(network.KindHeight, nil); err != nil {
		t.Errorf("connection broken after errors: %v", err)
	}
}

func TestDecodeResultCorruption(t *testing.T) {
	fn := seededNode(t, 2, 3)
	addr, _ := fn.Serve("127.0.0.1:0")
	remote, err := node.DialNode(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	res, err := remote.SQL(`SELECT * FROM donate`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Truncated result payloads must error.
	for _, raw := range [][]byte{nil, {0xFF, 0xFF, 0xFF, 0xFF}, {0, 0, 0, 1}} {
		if _, err := node.DecodeResult(raw); err == nil {
			t.Errorf("DecodeResult(%v) accepted", raw)
		}
	}
}

func TestServeBadAddress(t *testing.T) {
	fn := seededNode(t, 1, 1)
	if _, err := fn.Serve("256.0.0.1:99999"); err == nil {
		t.Error("bad listen address accepted")
	}
}

func TestAuthRequestSystemColumnOverWire(t *testing.T) {
	fn := seededNode(t, 3, 6)
	addr, _ := fn.Serve("127.0.0.1:0")
	remote, err := node.DialNode(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	// Authenticated tracking on the system column tname, with a window.
	req := &node.AuthRequest{Table: "", Col: "tname",
		Lo: types.Str("donate"), Hi: types.Str("donate"),
		WinStart: 1000, WinEnd: 2000}
	ans, err := remote.AuthQuery(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Blocks) == 0 {
		t.Fatal("windowed tracking answer empty")
	}
	for _, b := range ans.Blocks {
		if b.Bid > 2 {
			t.Errorf("block %d outside window answered", b.Bid)
		}
	}
}

// TestAuthQueryBuildsItsCandidates: the MB-trees a node holds are those
// its verified queries touched. One AuthQuery builds exactly its
// candidate blocks' trees; asking again, or for the digest of the same
// query, builds none.
func TestAuthQueryBuildsItsCandidates(t *testing.T) {
	fn := seededNode(t, 8, 10)
	local := &node.Local{Node: fn, Name: "local"}
	v := fn.Engine.CurrentView()
	ali := v.AuthIndex("donate", "amount")
	if n := ali.TreesBuilt(); n != 0 {
		t.Fatalf("%d trees built before any query", n)
	}
	req := &node.AuthRequest{Table: "donate", Col: "amount", Lo: types.Dec(25), Hi: types.Dec(41)}
	ans, err := local.AuthQuery(req)
	if err != nil {
		t.Fatal(err)
	}
	cand := 0
	ali.CandidateBlocks(req.Lo, req.Hi).ForEach(func(bid int) bool {
		if uint64(bid) < ans.Height {
			cand++
		}
		return true
	})
	if cand == 0 || cand >= int(ans.Height)-2 {
		t.Fatalf("%d candidates of %d blocks: the query does not single any out", cand, ans.Height)
	}
	if got := ali.TreesBuilt(); got != cand || len(ans.Blocks) != cand {
		t.Errorf("built %d trees and answered %d blocks for %d candidates", got, len(ans.Blocks), cand)
	}
	req.Height = ans.Height
	if _, err := local.AuthQuery(req); err != nil {
		t.Fatal(err)
	}
	if _, err := local.AuthDigest(req); err != nil {
		t.Fatal(err)
	}
	if got := ali.TreesBuilt(); got != cand {
		t.Errorf("asking again built %d more trees", got-cand)
	}
}
