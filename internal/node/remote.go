package node

import (
	"fmt"
	"time"

	"sebdb/internal/auth"
	"sebdb/internal/core"
	"sebdb/internal/network"
	"sebdb/internal/types"
)

// QueryNode is the surface thin clients and peers use to talk to a full
// node — implemented both in-process (*Local) and over TCP (*Remote).
type QueryNode interface {
	ID() string
	Height() (uint64, error)
	Headers(from uint64) ([]types.BlockHeader, error)
	AuthQuery(r *AuthRequest) (*auth.Answer, error)
	AuthDigest(r *AuthRequest) ([32]byte, error)
	SQL(query string) (*core.Result, error)
}

// Remote is a TCP client stub for a full node; it implements QueryNode.
type Remote struct {
	addr   string
	client *network.Client
}

// DialNode connects to a full node at addr.
func DialNode(addr string) (*Remote, error) {
	cl, err := network.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &Remote{addr: addr, client: cl}, nil
}

// Close closes the connection.
func (r *Remote) Close() error { return r.client.Close() }

// TuneCalls passes deadline and retry settings to the underlying wire
// client: timeout bounds each request/response exchange, retries bounds
// redial-and-resend attempts after transport failures, backoff is the
// pause before each retry. Zero timeout removes the bound.
func (r *Remote) TuneCalls(timeout time.Duration, retries int, backoff time.Duration) {
	r.client.SetTimeout(timeout)
	r.client.SetRetry(retries, backoff)
}

// ID returns the node's address as its identity.
func (r *Remote) ID() string { return r.addr }

// Height fetches the peer's chain height.
func (r *Remote) Height() (uint64, error) {
	resp, err := r.client.Call(network.KindHeight, nil)
	if err != nil {
		return 0, err
	}
	return types.NewDecoder(resp).Uint64()
}

// Headers fetches headers starting at height from.
func (r *Remote) Headers(from uint64) ([]types.BlockHeader, error) {
	e := types.NewEncoder(8)
	e.Uint64(from)
	resp, err := r.client.Call(network.KindHeaders, e.Bytes())
	if err != nil {
		return nil, err
	}
	d := types.NewDecoder(resp)
	cnt, err := d.Uint32()
	if err != nil {
		return nil, err
	}
	if int(cnt) > d.Remaining() {
		return nil, types.ErrCorrupt
	}
	out := make([]types.BlockHeader, cnt)
	for i := range out {
		if out[i], err = types.DecodeBlockHeader(d); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// AuthQuery runs phase one of the §VI protocol.
func (r *Remote) AuthQuery(req *AuthRequest) (*auth.Answer, error) {
	resp, err := r.client.Call(network.KindAuthQuery, req.encode())
	if err != nil {
		return nil, err
	}
	return auth.DecodeAnswer(resp)
}

// AuthDigest runs phase two.
func (r *Remote) AuthDigest(req *AuthRequest) ([32]byte, error) {
	var out [32]byte
	resp, err := r.client.Call(network.KindAuthDigest, req.encode())
	if err != nil {
		return out, err
	}
	if len(resp) != 32 {
		return out, fmt.Errorf("node: digest of %d bytes", len(resp))
	}
	copy(out[:], resp)
	return out, nil
}

// SQL runs a SQL-like statement on the remote node.
func (r *Remote) SQL(query string) (*core.Result, error) {
	resp, err := r.client.Call(network.KindSQL, []byte(query))
	if err != nil {
		return nil, err
	}
	return DecodeResult(resp)
}

// Local adapts a FullNode to QueryNode without a network hop —
// simulations and benchmarks use it to avoid socket noise.
type Local struct {
	Node *FullNode
	Name string
}

// ID returns the node name.
func (l *Local) ID() string { return l.Name }

// Height returns the local chain height.
func (l *Local) Height() (uint64, error) { return l.Node.Engine.Height(), nil }

// Headers returns local headers from the given height.
func (l *Local) Headers(from uint64) ([]types.BlockHeader, error) {
	hs := l.Node.Engine.Headers()
	if from > uint64(len(hs)) {
		from = uint64(len(hs))
	}
	return hs[from:], nil
}

// AuthQuery serves phase one locally.
func (l *Local) AuthQuery(r *AuthRequest) (*auth.Answer, error) {
	ali, eligible, height, err := l.Node.resolve(r)
	if err != nil {
		return nil, err
	}
	return auth.ServeStrict(ali, height, eligible, r.Lo, r.Hi)
}

// AuthDigest serves phase two locally.
func (l *Local) AuthDigest(r *AuthRequest) ([32]byte, error) {
	ali, eligible, height, err := l.Node.resolve(r)
	if err != nil {
		return [32]byte{}, err
	}
	return auth.DigestStrict(ali, height, eligible, r.Lo, r.Hi)
}

// SQL executes locally.
func (l *Local) SQL(query string) (*core.Result, error) {
	return l.Node.Engine.Execute(query)
}

var (
	_ QueryNode = (*Remote)(nil)
	_ QueryNode = (*Local)(nil)
)
