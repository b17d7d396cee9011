// Package replica is the one path by which a peer's sealed blocks enter
// an engine (§III-B): a subscription service every full node offers,
// pushing sealed blocks as they commit, and one session that tails the
// stream, re-verifies every block against the signed header chain and
// applies it through the engine's ApplyBlock pipeline. A Follower runs
// that session forever; CatchUp runs it until the node is level with
// the height its peer advertised, which is also how a fresh node
// bootstraps.
//
// A node NEVER installs peer state. Every pushed block must carry a
// valid packager signature (BlockHeader.VerifySig) and extend the
// node's locally verified chain (height + PrevHash linkage, enforced
// again by the store on append), and all derived state — tables,
// contracts, index definitions, bitmaps, layered indexes, ALIs — is
// rebuilt locally by ApplyBlock, which also Merkle-checks the body
// against the header and holds every definition record to the tables
// the chain defines. A peer that lies can only stall a node, never
// corrupt it.
//
// The wire protocol is one KindSubscribe request frame carrying a uint64
// height cursor ("I have blocks [0, cursor)"), answered by an open-ended
// stream of KindBlockPush frames: uint64 leader height + length-prefixed
// block bytes, with an empty blob serving as a heartbeat so followers
// can detect a dead leader and measure lag while idle. The first frame
// of every session is a heartbeat, so a subscriber learns the leader's
// height at once.
package replica

import (
	"fmt"
	"net"
	"sync"
	"time"

	"sebdb/internal/clock"
	"sebdb/internal/core"
	"sebdb/internal/network"
	"sebdb/internal/obs"
	"sebdb/internal/types"
)

// Leader tuning defaults: heartbeats keep idle subscriptions verifiably
// alive; the write deadline bounds how long a stalled follower can pin a
// session goroutine.
const (
	DefaultHeartbeat    = 1 * time.Second
	DefaultWriteTimeout = 10 * time.Second
)

// Leader is the subscription service a full node registers on its wire
// server. Each KindSubscribe frame turns its connection into a push
// stream: the leader drains blocks from the subscriber's cursor to the
// current height, then waits on the engine's height signal and streams
// every new block as it commits.
type Leader struct {
	eng          *core.Engine
	log          *obs.Logger
	heartbeat    time.Duration
	writeTimeout time.Duration

	// stopOnce/stop end every session when the node shuts down; sessions
	// run inside the wire server's connection goroutines, which
	// Server.Close joins, so Close here must fire first (FullNode.Close
	// orders it that way).
	stopOnce sync.Once
	stop     chan struct{}

	gSessions   *obs.Gauge
	cPushed     *obs.Counter
	cHeartbeats *obs.Counter
	cResumes    *obs.Counter
}

// NewLeader builds the subscription service over an engine. The logger
// may be nil; metrics land in the engine's registry
// (sebdb_replica_sessions, sebdb_replica_pushed_blocks_total,
// sebdb_replica_heartbeats_total, sebdb_replica_resumed_sessions_total).
func NewLeader(eng *core.Engine, log *obs.Logger) *Leader {
	reg := eng.Obs()
	return &Leader{
		eng:          eng,
		log:          log.With("replica"),
		heartbeat:    DefaultHeartbeat,
		writeTimeout: DefaultWriteTimeout,
		stop:         make(chan struct{}),
		gSessions:    reg.Gauge("sebdb_replica_sessions"),
		cPushed:      reg.Counter("sebdb_replica_pushed_blocks_total"),
		cHeartbeats:  reg.Counter("sebdb_replica_heartbeats_total"),
		cResumes:     reg.Counter("sebdb_replica_resumed_sessions_total"),
	}
}

// SetHeartbeat tunes the idle-session heartbeat interval (tests shrink
// it). Call before Register.
func (l *Leader) SetHeartbeat(d time.Duration) {
	if d > 0 {
		l.heartbeat = d
	}
}

// Register installs the KindSubscribe stream handler on the wire
// server.
func (l *Leader) Register(srv *network.Server) {
	srv.HandleStream(network.KindSubscribe, l.serve)
}

// Close ends every subscription session. Idempotent.
func (l *Leader) Close() {
	l.stopOnce.Do(func() { close(l.stop) })
}

// serve runs one subscription session; it owns conn until it returns.
// The payload is the subscriber's height cursor — peer-controlled, so it
// is range-checked and only ever compared against local heights.
func (l *Leader) serve(payload []byte, conn net.Conn) {
	cursor, err := types.NewDecoder(payload).Uint64()
	if err != nil {
		l.refuse(conn, "replica: malformed subscribe cursor")
		return
	}
	// The session streams what the engine has published, not what it
	// has appended: the store's count moves ahead of index and ALI
	// maintenance, and a follower must never hold (and serve VOs at) a
	// height this node cannot yet confirm from its own view.
	h := l.eng.CurrentView().Height()
	if cursor > h {
		// A cursor past our height means the follower tracked a different
		// (or wiped) leader; refusing is the only safe answer.
		l.refuse(conn, fmt.Sprintf("replica: cursor %d beyond leader height %d", cursor, h))
		return
	}
	if cursor > 0 {
		l.cResumes.Inc()
	}
	// next walks the chain from the validated cursor; bounded by the
	// published height h on every lap, never by the wire value itself.
	next := cursor
	l.gSessions.Add(1)
	defer l.gSessions.Add(-1)
	l.log.Info("subscription started",
		"peer", conn.RemoteAddr().String(), "cursor", cursor, "height", h)
	// Advertise the height first: a subscriber that is already level
	// learns it now, not one heartbeat interval later.
	if err := l.push(conn, h, nil); err != nil {
		return
	}
	l.cHeartbeats.Inc()

	ticker := time.NewTicker(l.heartbeat)
	defer ticker.Stop()
	for {
		// Drain everything the subscriber is missing. Block reads go
		// through the engine's lock-free store/cache path.
		for next < h {
			b, err := l.eng.Block(next)
			if err != nil {
				l.log.Error("subscription read failed", "height", next, "err", err.Error())
				return
			}
			if err := l.push(conn, h, b.EncodeBytes()); err != nil {
				l.log.Info("subscription ended", "peer", conn.RemoteAddr().String(),
					"cursor", next, "err", err.Error())
				return
			}
			next++
			l.cPushed.Inc()
		}
		// Height signal protocol: grab the channel, then re-check the
		// height — publish closes-and-replaces the channel, so checking
		// first would race a commit landing in between.
		sig := l.eng.HeightSignal()
		if nh := l.eng.CurrentView().Height(); nh > h {
			h = nh
			continue
		}
		select {
		case <-l.stop:
			return
		case <-sig:
			h = l.eng.CurrentView().Height()
		case <-ticker.C:
			if err := l.push(conn, h, nil); err != nil {
				l.log.Info("subscription ended", "peer", conn.RemoteAddr().String(),
					"cursor", next, "err", err.Error())
				return
			}
			l.cHeartbeats.Inc()
		}
	}
}

// push writes one KindBlockPush frame: leader height + block bytes (nil
// = heartbeat), under the session write deadline.
func (l *Leader) push(conn net.Conn, height uint64, blockBytes []byte) error {
	if l.writeTimeout > 0 {
		// Deadlines need absolute wall time; clock.Wall is the audited
		// exception to the injected-clock rule.
		if err := conn.SetWriteDeadline(clock.Wall().Add(l.writeTimeout)); err != nil {
			return err
		}
	}
	e := types.NewEncoder(12 + len(blockBytes))
	e.Uint64(height)
	e.Blob(blockBytes)
	return network.WriteFrame(conn, network.KindBlockPush, e.Bytes())
}

// refuse answers a bad subscribe request with a KindError frame.
func (l *Leader) refuse(conn net.Conn, msg string) {
	l.log.Warn("subscription refused", "peer", conn.RemoteAddr().String(), "reason", msg)
	if l.writeTimeout > 0 {
		if err := conn.SetWriteDeadline(clock.Wall().Add(l.writeTimeout)); err != nil {
			return
		}
	}
	if err := network.WriteFrame(conn, network.KindError, []byte(msg)); err != nil {
		l.log.Debug("refusal write failed", "err", err.Error())
	}
}
