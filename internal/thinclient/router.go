package thinclient

import (
	"strings"
	"sync/atomic"

	"sebdb/internal/core"
	"sebdb/internal/node"
	"sebdb/internal/obs"
)

var (
	mRouteReplica  = obs.Default.Counter(`sebdb_router_statements_total{target="replica"}`)
	mRouteLeader   = obs.Default.Counter(`sebdb_router_statements_total{target="leader"}`)
	mRouteFallback = obs.Default.Counter("sebdb_router_fallbacks_total")
)

// Router fans statements across a read-replica fleet: read statements
// (SELECT/TRACE/EXPLAIN/GET BLOCK/SHOW TRACES) round-robin over the
// replicas with leader fallback when a replica errors; everything else —
// DDL, INSERT, anything unrecognised — goes to the leader, the only
// node that accepts writes. With no replicas configured it degrades to a
// plain leader connection.
//
// Replica answers are bounded-stale, not wrong: a follower serves from
// its own height-pinned view of the same verified chain, so a read may
// lag the leader by the replication lag but can never reflect
// unverified or forked state. Clients that need read-your-writes ask
// the leader directly.
type Router struct {
	leader   node.QueryNode
	replicas []node.QueryNode
	next     atomic.Uint64
}

// NewRouter builds a router over a leader and zero or more replicas.
func NewRouter(leader node.QueryNode, replicas ...node.QueryNode) *Router {
	return &Router{leader: leader, replicas: replicas}
}

// Leader returns the write target.
func (r *Router) Leader() node.QueryNode { return r.leader }

// readVerbs are the statement-leading keywords the executor serves from
// a read view; everything else mutates chain or catalog state.
var readVerbs = map[string]bool{
	"select":  true,
	"trace":   true,
	"explain": true,
	"get":     true, // GET BLOCK
	"show":    true, // SHOW TRACES
}

// IsRead classifies a statement by its leading keyword, mirroring the
// parser's dispatch.
func IsRead(query string) bool {
	f := strings.Fields(query)
	if len(f) == 0 {
		return false
	}
	return readVerbs[strings.ToLower(f[0])]
}

// SQL routes one statement: reads fan over the replicas (each tried
// once, starting from the round-robin cursor) with the leader as final
// fallback; writes go straight to the leader.
func (r *Router) SQL(query string) (*core.Result, error) {
	if !IsRead(query) || len(r.replicas) == 0 {
		mRouteLeader.Inc()
		return r.leader.SQL(query)
	}
	start := int(r.next.Add(1) - 1)
	var lastErr error
	for i := range r.replicas {
		rep := r.replicas[(start+i)%len(r.replicas)]
		res, err := rep.SQL(query)
		if err == nil {
			mRouteReplica.Inc()
			return res, nil
		}
		lastErr = err
	}
	_ = lastErr // the leader answer (or its error) supersedes replica failures
	mRouteFallback.Inc()
	mRouteLeader.Inc()
	return r.leader.SQL(query)
}

// AuthTargets picks the full node for phase one of the 2-phase
// authenticated protocol (the next replica, or the leader when the
// fleet is empty) and the auxiliary set for phase two (every other
// node, leader included). Spreading phase one over replicas scales VO
// generation; keeping the leader among the auxiliaries means a lying
// replica cannot assemble a quorum alone.
func (r *Router) AuthTargets() (full node.QueryNode, aux []node.QueryNode) {
	if len(r.replicas) == 0 {
		return r.leader, nil
	}
	i := int(r.next.Add(1)-1) % len(r.replicas)
	full = r.replicas[i]
	aux = make([]node.QueryNode, 0, len(r.replicas))
	aux = append(aux, r.leader)
	for j, rep := range r.replicas {
		if j != i {
			aux = append(aux, rep)
		}
	}
	return full, aux
}
