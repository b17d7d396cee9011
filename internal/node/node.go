// Package node assembles a SEBDB full node: the core engine and a TCP
// service answering peers (the replica package's block stream,
// height/block/header reads) and thin clients (SQL and the two-phase
// authenticated query protocol of §VI).
package node

import (
	"errors"
	"fmt"
	"net"

	"sebdb/internal/auth"
	"sebdb/internal/core"
	"sebdb/internal/index/bitmap"
	"sebdb/internal/network"
	"sebdb/internal/replica"
	"sebdb/internal/types"
)

// FullNode is one SEBDB participant.
type FullNode struct {
	Engine   *core.Engine
	server   *network.Server
	listener net.Listener

	// leader is the replication service (wire kind KindSubscribe); every
	// full node offers it, so any node can feed read replicas and
	// bootstrap fresh nodes.
	leader *replica.Leader
}

// New wraps an engine as a full node.
func New(engine *core.Engine) *FullNode {
	n := &FullNode{Engine: engine}
	n.server = network.NewServer()
	n.server.Handle(network.KindHeight, n.handleHeight)
	n.server.Handle(network.KindHeaders, n.handleHeaders)
	n.server.Handle(network.KindAuthQuery, n.handleAuthQuery)
	n.server.Handle(network.KindAuthDigest, n.handleAuthDigest)
	n.server.Handle(network.KindSQL, n.handleSQL)
	n.leader = replica.NewLeader(engine, engine.EventLog())
	n.leader.Register(n.server)
	return n
}

// Replication returns the node's replication subscription service
// (tests shrink its heartbeat through it).
func (n *FullNode) Replication() *replica.Leader { return n.leader }

// Serve starts answering on addr (e.g. "127.0.0.1:0") and returns the
// bound address.
func (n *FullNode) Serve(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	n.listener = ln
	go n.server.Serve(ln)
	return ln.Addr().String(), nil
}

// Close stops serving, reporting listener teardown errors. The
// replication service closes first: subscription sessions run inside
// the wire server's connection goroutines, and Server.Close joins them.
func (n *FullNode) Close() error {
	if n.leader != nil {
		n.leader.Close()
	}
	if n.listener != nil {
		return n.server.Close()
	}
	return nil
}

func (n *FullNode) handleHeight([]byte) ([]byte, error) {
	e := types.NewEncoder(8)
	e.Uint64(n.Engine.Height())
	return e.Bytes(), nil
}

func (n *FullNode) handleHeaders(payload []byte) ([]byte, error) {
	from, err := types.NewDecoder(payload).Uint64()
	if err != nil {
		return nil, err
	}
	hs := n.Engine.Headers()
	if from > uint64(len(hs)) {
		from = uint64(len(hs))
	}
	hs = hs[from:]
	e := types.NewEncoder(64 * len(hs))
	e.Count(len(hs))
	for i := range hs {
		hs[i].Encode(e)
	}
	return e.Bytes(), nil
}

// AuthRequest is the wire form of a §VI phase-one/phase-two query.
type AuthRequest struct {
	// Table and Col name the ALI ("" table = system column).
	Table, Col string
	// Lo and Hi bound the range (equal for point/tracking queries).
	Lo, Hi types.Value
	// WinStart/WinEnd restrict blocks by time; both zero = no window.
	WinStart, WinEnd int64
	// Height pins the snapshot for phase two; zero = server's height.
	Height uint64
}

func (r *AuthRequest) encode() []byte {
	e := types.NewEncoder(128)
	e.Str(r.Table)
	e.Str(r.Col)
	e.Value(r.Lo)
	e.Value(r.Hi)
	e.Int64(r.WinStart)
	e.Int64(r.WinEnd)
	e.Uint64(r.Height)
	return e.Bytes()
}

func decodeAuthRequest(buf []byte) (*AuthRequest, error) {
	d := types.NewDecoder(buf)
	r := &AuthRequest{}
	var err error
	if r.Table, err = d.Str(); err != nil {
		return nil, err
	}
	if r.Col, err = d.Str(); err != nil {
		return nil, err
	}
	if r.Lo, err = d.Value(); err != nil {
		return nil, err
	}
	if r.Hi, err = d.Value(); err != nil {
		return nil, err
	}
	if r.WinStart, err = d.Int64(); err != nil {
		return nil, err
	}
	if r.WinEnd, err = d.Int64(); err != nil {
		return nil, err
	}
	if r.Height, err = d.Uint64(); err != nil {
		return nil, err
	}
	return r, nil
}

// ErrAheadOfView refuses an authenticated request pinned to a height
// this node has not published yet. A lagging auxiliary must say "I am
// not there yet": were it to answer, its digest would cover a shorter
// candidate set than the one the client verified and read as a mismatch.
var ErrAheadOfView = errors.New("node: snapshot height beyond this node's view")

// resolve returns the ALI, eligible-block bitmap and snapshot height of
// a request. Everything comes from one pinned view, so VO generation
// never takes the engine lock and the default height, the window
// bitmap and the ALI all describe the same instant — a commit racing
// the request cannot leave the VO anchored at a height the bitmap has
// already outgrown.
func (n *FullNode) resolve(r *AuthRequest) (*auth.ALI, *bitmap.Bitmap, uint64, error) {
	v := n.Engine.CurrentView()
	ali := v.AuthIndex(r.Table, r.Col)
	if ali == nil {
		return nil, nil, 0, fmt.Errorf("node: no authenticated index on %q.%q", r.Table, r.Col)
	}
	if r.Height > v.Height() {
		return nil, nil, 0, fmt.Errorf("%w: asked %d, at %d", ErrAheadOfView, r.Height, v.Height())
	}
	var eligible *bitmap.Bitmap
	if r.WinStart != 0 || r.WinEnd != 0 {
		eligible = v.BlockIdx().TimeWindow(r.WinStart, r.WinEnd)
	}
	height := r.Height
	if height == 0 {
		height = v.Height()
	}
	return ali, eligible, height, nil
}

func (n *FullNode) handleAuthQuery(payload []byte) ([]byte, error) {
	r, err := decodeAuthRequest(payload)
	if err != nil {
		return nil, err
	}
	ali, eligible, height, err := n.resolve(r)
	if err != nil {
		return nil, err
	}
	ans, err := auth.ServeStrict(ali, height, eligible, r.Lo, r.Hi)
	if err != nil {
		return nil, err
	}
	return ans.Wire(), nil
}

func (n *FullNode) handleAuthDigest(payload []byte) ([]byte, error) {
	r, err := decodeAuthRequest(payload)
	if err != nil {
		return nil, err
	}
	ali, eligible, height, err := n.resolve(r)
	if err != nil {
		return nil, err
	}
	d, err := auth.DigestStrict(ali, height, eligible, r.Lo, r.Hi)
	if err != nil {
		return nil, err
	}
	return d[:], nil
}

func (n *FullNode) handleSQL(payload []byte) ([]byte, error) {
	res, err := n.Engine.Execute(string(payload))
	if err != nil {
		return nil, err
	}
	e := types.NewEncoder(1024)
	e.Count(len(res.Columns))
	for _, c := range res.Columns {
		e.Str(c)
	}
	e.Count(len(res.Rows))
	for _, row := range res.Rows {
		e.Values(row)
	}
	return e.Bytes(), nil
}

// DecodeResult parses the SQL response payload back into a result.
func DecodeResult(buf []byte) (*core.Result, error) {
	d := types.NewDecoder(buf)
	nc, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	if int(nc) > d.Remaining() {
		return nil, types.ErrCorrupt
	}
	res := &core.Result{}
	for i := uint32(0); i < nc; i++ {
		c, err := d.Str()
		if err != nil {
			return nil, err
		}
		res.Columns = append(res.Columns, c)
	}
	nr, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	if int(nr) > d.Remaining() {
		return nil, types.ErrCorrupt
	}
	for i := uint32(0); i < nr; i++ {
		row, err := d.Values()
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}
