// Package thinclient implements SEBDB's thin client (paper §VI): a
// participant that stores only block headers and verifies query answers
// from untrusted full nodes. Simple membership checks use Merkle proofs
// against the stored headers (SPV-style); rich queries use the 2-phase
// authenticated protocol — a VO from one full node, digests from n
// sampled auxiliary nodes, accepted once m identical digests match,
// with the residual risk given by Equation 6.
package thinclient

import (
	"errors"
	"fmt"
	"math/rand/v2"

	"sebdb/internal/auth"
	"sebdb/internal/merkle"
	"sebdb/internal/node"
	"sebdb/internal/obs"
	"sebdb/internal/types"
)

// Client is a header-only participant.
type Client struct {
	headers []types.BlockHeader
	rng     *rand.Rand
}

// New returns an empty thin client; seed fixes the auxiliary-node
// sampling for reproducible tests.
func New(seed int64) *Client {
	return &Client{rng: rand.New(rand.NewPCG(uint64(seed), 0))}
}

// Height returns the number of synced headers.
func (c *Client) Height() uint64 { return uint64(len(c.headers)) }

// Header returns the header at the given height.
func (c *Client) Header(h uint64) (types.BlockHeader, error) {
	if h >= uint64(len(c.headers)) {
		return types.BlockHeader{}, fmt.Errorf("thinclient: no header %d", h)
	}
	return c.headers[h], nil
}

// SyncHeaders pulls headers the client is missing from a full node,
// checking chain linkage as it appends — a header that does not extend
// the verified prefix is rejected. A client that holds headers asks from
// its tip, and the node must return that very header first: a node on
// another chain, forked at or below the client's height, is refused
// rather than read as having nothing new.
func (c *Client) SyncHeaders(n node.QueryNode) error {
	from := uint64(len(c.headers))
	if from > 0 {
		from--
	}
	hs, err := n.Headers(from)
	if err != nil {
		return err
	}
	if len(c.headers) > 0 {
		if len(hs) == 0 || hs[0].Hash() != c.headers[from].Hash() {
			nh, err := n.Height()
			if err != nil {
				return fmt.Errorf("thinclient: node lacks the client's tip %d: %w", from, err)
			}
			return fmt.Errorf("thinclient: node at height %d does not hold the client's tip (client at height %d)", nh, len(c.headers))
		}
		hs = hs[1:]
	}
	for _, h := range hs {
		if len(c.headers) > 0 {
			tip := c.headers[len(c.headers)-1]
			if h.Height != tip.Height+1 || h.PrevHash != tip.Hash() {
				return fmt.Errorf("thinclient: header %d does not link", h.Height)
			}
		} else if h.Height != 0 {
			return fmt.Errorf("thinclient: first header has height %d", h.Height)
		}
		c.headers = append(c.headers, h)
	}
	return nil
}

// VerifyMembership checks a transaction's Merkle proof against the
// stored header of its block — the simple SPV-style authenticated query
// existing blockchains stop at. The leaf is hashed over a fresh encoding
// of tx: EncodeBytes may return a seal cached under the same Tid and Ts,
// which a copy of a committed transaction carries whatever its fields
// now say.
func (c *Client) VerifyMembership(tx *types.Transaction, blockHeight uint64, proof merkle.Proof) bool {
	if blockHeight >= uint64(len(c.headers)) {
		return false
	}
	e := types.NewEncoder(96 + 16*len(tx.Args))
	tx.Encode(e)
	leaf := merkle.HashLeaf(e.Bytes())
	return merkle.Verify(leaf, proof, c.headers[blockHeight].TransRoot)
}

// Options tunes the 2-phase protocol's sampling.
type Options struct {
	// N is how many auxiliary nodes to ask; M how many identical digests
	// to require. Defaults: N = len(auxiliaries), M = majority.
	N, M int
	// ByzantineRatio p and MaxByzantine feed Equation 6 for the reported
	// residual risk.
	ByzantineRatio float64
	MaxByzantine   int
}

// Stats reports the verification-cost metrics of §VII-F.
type Stats struct {
	// VOSize is the phase-one answer size in bytes (Fig. 17).
	VOSize int
	// BlocksInAnswer is how many block VOs the answer carried.
	BlocksInAnswer int
	// AuxAsked and Identical describe the phase-two sample.
	AuxAsked  int
	Identical int
	// Theta is Equation 6's wrong-digest probability for the accepted
	// answer.
	Theta float64
}

// auxReply is one auxiliary's phase-two answer; ok is false when it
// errored and its digest does not count.
type auxReply struct {
	digest [32]byte
	ok     bool
}

// ErrNoQuorum is returned when fewer than M auxiliary digests match the
// reconstructed one.
var ErrNoQuorum = errors.New("thinclient: not enough matching auxiliary digests")

// AuthQuery runs the full 2-phase protocol: fetch a VO from full,
// reconstruct and locally verify it, and sample auxiliaries for digests
// until M identical matches confirm the snapshot. Phase two needs only
// the answer's height, so it starts the moment the answer is decoded
// and its round trips run while the VO is being verified. On success
// the returned transactions are sound and complete for [req.Lo,
// req.Hi] at the answer's snapshot height.
func (c *Client) AuthQuery(full node.QueryNode, auxiliaries []node.QueryNode,
	req *node.AuthRequest, opt Options) ([]*types.Transaction, Stats, error) {
	var st Stats
	if opt.N == 0 || opt.N > len(auxiliaries) {
		opt.N = len(auxiliaries)
	}
	if opt.M == 0 {
		opt.M = opt.N/2 + 1
	}
	if opt.MaxByzantine == 0 {
		opt.MaxByzantine = len(auxiliaries)
	}

	// Phase one.
	ans, err := full.AuthQuery(req)
	if err != nil {
		return nil, st, err
	}
	st.VOSize = ans.Size()
	st.BlocksInAnswer = len(ans.Blocks)
	mQueriesAuth.Inc()
	mVOBytesAuth.Add(uint64(st.VOSize))

	// Phase two: same query and the answer's snapshot height to N
	// randomly selected auxiliary nodes, asked in order until M of them
	// return the digest the answer commits to. While that digest is
	// still being computed the asking runs ahead as far as it safely
	// can: until some digest has come back M times, the sequential rule
	// would have kept asking whatever the local digest turns out to be.
	req2 := *req
	req2.Height = ans.Height
	order := c.rng.Perm(len(auxiliaries))[:opt.N]
	ask := func(i int) auxReply {
		d, err := auxiliaries[i].AuthDigest(&req2)
		return auxReply{digest: d, ok: err == nil}
	}
	var early []auxReply
	asked := make(chan struct{})
	go func() {
		defer close(asked)
		seen := make(map[[32]byte]int, 1)
		for _, i := range order {
			r := ask(i)
			early = append(early, r)
			if r.ok {
				if seen[r.digest]++; seen[r.digest] >= opt.M {
					return
				}
			}
		}
	}()
	verifyStart := obs.Default.Now()
	digest, txs, err := auth.VerifyAnswer(ans, req.Lo, req.Hi)
	mVerifyMicros.Observe(obs.Default.Now() - verifyStart)
	<-asked
	if err != nil {
		st.AuxAsked = len(early)
		return nil, st, err
	}
	matching := 0
	for k, i := range order {
		var r auxReply
		if k < len(early) {
			r = early[k]
		} else {
			r = ask(i)
		}
		st.AuxAsked++
		if r.ok && r.digest == digest {
			matching++
			if matching >= opt.M {
				break
			}
		}
	}
	st.Identical = matching
	if matching < opt.M {
		return nil, st, fmt.Errorf("%w: %d of %d", ErrNoQuorum, matching, opt.M)
	}
	st.Theta = auth.WrongDigestProbability(opt.ByzantineRatio, opt.N, matching, opt.MaxByzantine)

	// Residual transaction-level window filter (block granularity was
	// applied server-side).
	if req.WinStart != 0 || req.WinEnd != 0 {
		filtered := txs[:0]
		for _, tx := range txs {
			if tx.Ts >= req.WinStart && (req.WinEnd == 0 || tx.Ts <= req.WinEnd) {
				filtered = append(filtered, tx)
			}
		}
		txs = filtered
	}
	return txs, st, nil
}

// AuthTrack runs an authenticated track-trace query (paper §VI's
// Example 4 generalised to both dimensions): the operator dimension is
// answered through the ALI on SenID with full soundness and
// completeness; when an operation is also given, the client projects
// the verified result on Tname — a client-side filter over an already
// sound-and-complete set, so the final answer inherits both
// guarantees. The servers must maintain CreateAuthIndex("", "senid").
func (c *Client) AuthTrack(full node.QueryNode, auxiliaries []node.QueryNode,
	operator, operation string, winStart, winEnd int64, opt Options) ([]*types.Transaction, Stats, error) {
	req := &node.AuthRequest{
		Table: "", Col: "senid",
		Lo: types.Str(operator), Hi: types.Str(operator),
		WinStart: winStart, WinEnd: winEnd,
	}
	txs, st, err := c.AuthQuery(full, auxiliaries, req, opt)
	if err != nil {
		return nil, st, err
	}
	if operation == "" {
		return txs, st, nil
	}
	filtered := txs[:0]
	for _, tx := range txs {
		if tx.Tname == operation {
			filtered = append(filtered, tx)
		}
	}
	return filtered, st, nil
}
