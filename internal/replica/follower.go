package replica

import (
	"errors"
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

// Follower tuning defaults. The read deadline is a multiple of the
// leader heartbeat: three missed heartbeats mean the leader (or the
// path to it) is gone and the follower should redial.
const (
	DefaultBackoff      = 200 * time.Millisecond
	DefaultMaxBackoff   = 5 * time.Second
	heartbeatGraceRatio = 3
)

// FollowerConfig configures a tail-following replica.
type FollowerConfig struct {
	// Leader is the leader node's wire address.
	Leader string
	// Heartbeat is the leader's heartbeat interval; the follower's read
	// deadline is heartbeatGraceRatio times it. Defaults to
	// DefaultHeartbeat.
	Heartbeat time.Duration
	// Backoff/MaxBackoff bound the reconnect loop's exponential pause.
	// Unset values default to DefaultBackoff/DefaultMaxBackoff, and a
	// MaxBackoff below Backoff is raised to it.
	Backoff    time.Duration
	MaxBackoff time.Duration
	// Log receives subscribe/resume/lag/rejection events; nil is fine.
	Log *obs.Logger
}

func (c *FollowerConfig) fill() {
	if c.Heartbeat <= 0 {
		c.Heartbeat = DefaultHeartbeat
	}
	if c.Backoff <= 0 {
		c.Backoff = DefaultBackoff
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = DefaultMaxBackoff
	}
	if c.MaxBackoff < c.Backoff {
		c.MaxBackoff = c.Backoff
	}
}

// Follower tails a leader's block stream and applies every pushed block
// to its local engine after re-verifying it. Reads (SELECT/TRACE/VO)
// are served by the engine's own height-pinned views and never touch
// the replication path; staleness is bounded by the stream and measured
// as sebdb_replica_lag_blocks.
type Follower struct {
	eng *core.Engine
	cfg FollowerConfig
	log *obs.Logger
	reg *obs.Registry

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}

	// connMu guards the live connection pointer only (never held across
	// I/O); Stop closes the conn through it to unblock a pending read.
	connMu sync.Mutex
	conn   net.Conn

	gLag        *obs.Gauge
	hApply      *obs.Histogram
	cApplied    *obs.Counter
	cRejected   *obs.Counter
	cReconnects *obs.Counter
}

// StartFollower spawns the tail loop over an engine already switched to
// follower mode (core.Engine.SetFollower) and returns immediately. The
// loop takes its cursor from the engine height and survives leader
// restarts by redialing with exponential backoff and resuming from the
// cursor.
func StartFollower(eng *core.Engine, cfg FollowerConfig) *Follower {
	f := newFollower(eng, cfg)
	go f.run()
	return f
}

// newFollower builds the session state without starting the loop.
func newFollower(eng *core.Engine, cfg FollowerConfig) *Follower {
	cfg.fill()
	reg := eng.Obs()
	return &Follower{
		eng:         eng,
		cfg:         cfg,
		log:         cfg.Log.With("replica"),
		reg:         reg,
		stop:        make(chan struct{}),
		done:        make(chan struct{}),
		gLag:        reg.Gauge("sebdb_replica_lag_blocks"),
		hApply:      reg.Histogram("sebdb_replica_apply_micros"),
		cApplied:    reg.Counter("sebdb_replica_applied_blocks_total"),
		cRejected:   reg.Counter("sebdb_replica_rejected_blocks_total"),
		cReconnects: reg.Counter("sebdb_replica_reconnects_total"),
	}
}

// Stop ends the tail loop and waits for it to exit. Idempotent.
func (f *Follower) Stop() {
	f.stopOnce.Do(func() {
		close(f.stop)
		f.connMu.Lock()
		conn := f.conn
		f.connMu.Unlock()
		if conn != nil {
			conn.Close() //sebdb:ignore-err best-effort unblock of the tail read
		}
	})
	<-f.done
}

// run is the reconnect loop: each tail session ends with an error
// (stream severed, verification failure, leader gone) and the loop
// redials with exponential backoff, resuming from the engine height.
func (f *Follower) run() {
	defer close(f.done)
	backoff := f.cfg.Backoff
	for {
		progressed, err := f.tail(nil)
		select {
		case <-f.stop:
			return
		default:
		}
		if progressed {
			backoff = f.cfg.Backoff
		}
		if err != nil {
			f.log.Warn("stream ended; reconnecting",
				"leader", f.cfg.Leader, "cursor", f.eng.Height(),
				"backoff_ms", int64(backoff/time.Millisecond), "err", err.Error())
		}
		f.cReconnects.Inc()
		select {
		case <-f.stop:
			return
		case <-time.After(backoff):
		}
		backoff *= 2
		if backoff > f.cfg.MaxBackoff {
			backoff = f.cfg.MaxBackoff
		}
	}
}

// setConn publishes the live session connection for Stop to close; a
// racing Stop closes it here.
func (f *Follower) setConn(conn net.Conn) (stopped bool) {
	f.connMu.Lock()
	f.conn = conn
	f.connMu.Unlock()
	select {
	case <-f.stop:
		if conn != nil {
			conn.Close() //sebdb:ignore-err already stopping; conn is being discarded
		}
		return true
	default:
		return false
	}
}

// tail runs one subscription session: dial, subscribe from the current
// engine height, then verify+apply pushed blocks until the stream ends
// or, after a frame, level (when not nil) reports the session done given
// the leader height that frame advertised. progressed reports whether
// the session received at least one frame (used to reset the reconnect
// backoff).
func (f *Follower) tail(level func(leaderH uint64) bool) (progressed bool, err error) {
	conn, err := net.Dial("tcp", f.cfg.Leader)
	if err != nil {
		return false, err
	}
	defer conn.Close() //sebdb:ignore-err best-effort teardown of a finished session
	if f.setConn(conn) {
		return false, nil
	}
	defer f.setConn(nil)

	cursor := f.eng.Height()
	e := types.NewEncoder(8)
	e.Uint64(cursor)
	if derr := conn.SetWriteDeadline(clock.Wall().Add(DefaultWriteTimeout)); derr != nil {
		return false, derr
	}
	if werr := network.WriteFrame(conn, network.KindSubscribe, e.Bytes()); werr != nil {
		return false, werr
	}
	f.log.Info("subscribed", "leader", f.cfg.Leader, "cursor", cursor)

	readDeadline := f.cfg.Heartbeat * heartbeatGraceRatio
	for {
		if derr := conn.SetReadDeadline(clock.Wall().Add(readDeadline)); derr != nil {
			return progressed, derr
		}
		kind, payload, rerr := network.ReadFrame(conn)
		if rerr != nil {
			return progressed, rerr
		}
		progressed = true
		switch kind {
		case network.KindError:
			return progressed, fmt.Errorf("replica: leader refused: %s", string(payload))
		case network.KindBlockPush:
		default:
			return progressed, fmt.Errorf("replica: unexpected frame kind %d on stream", kind)
		}
		leaderH, blockBytes, perr := decodePush(payload)
		if perr != nil {
			f.cRejected.Inc()
			return progressed, perr
		}
		if blockBytes != nil { // nil is a heartbeat
			if aerr := f.applyPushed(blockBytes); aerr != nil {
				// Reconnecting re-requests from the cursor: a tampered or
				// out-of-order block never advances the chain.
				f.cRejected.Inc()
				f.log.Warn("pushed block rejected", "height", f.eng.Height(), "err", aerr.Error())
				return progressed, aerr
			}
		}
		f.observeLag(leaderH)
		if level != nil && level(leaderH) {
			return progressed, nil
		}
	}
}

// decodePush splits a KindBlockPush payload into the leader height and
// the block bytes; nil bytes mean a heartbeat.
func decodePush(payload []byte) (leaderH uint64, blockBytes []byte, err error) {
	d := types.NewDecoder(payload)
	if leaderH, err = d.Uint64(); err != nil {
		return 0, nil, fmt.Errorf("replica: malformed push frame: %w", err)
	}
	if blockBytes, err = d.Blob(); err != nil {
		return 0, nil, fmt.Errorf("replica: malformed push frame: %w", err)
	}
	if len(blockBytes) == 0 {
		return leaderH, nil, nil
	}
	return leaderH, blockBytes, nil
}

// applyPushed verifies one pushed block against the local chain and
// applies it: the header must carry a valid packager signature and
// extend the local chain (height + PrevHash against our verified tip);
// ApplyBlock then Merkle-checks the body against the header and the
// store re-enforces linkage on append. Nothing from the wire reaches
// any state sink except through ApplyBlock.
func (f *Follower) applyPushed(blockBytes []byte) error {
	b, err := types.DecodeBlock(types.NewDecoder(blockBytes))
	if err != nil {
		return fmt.Errorf("replica: undecodable block: %w", err)
	}
	h := f.eng.Height()
	if b.Header.Height != h {
		return fmt.Errorf("replica: pushed block height %d, want %d", b.Header.Height, h)
	}
	if !b.Header.VerifySig() {
		return errors.New("replica: pushed block has invalid packager signature")
	}
	if tip := f.eng.CurrentView().Tip(); tip != nil {
		if b.Header.PrevHash != tip.Hash() {
			return errors.New("replica: pushed block does not link to local tip")
		}
	} else if b.Header.PrevHash != (types.Hash{}) {
		return errors.New("replica: genesis push carries a non-zero prev hash")
	}
	start := f.reg.Now()
	if err := f.eng.ApplyBlock(b); err != nil {
		return fmt.Errorf("replica: apply failed: %w", err)
	}
	f.hApply.Observe(f.reg.Now() - start)
	f.cApplied.Inc()
	return nil
}

// observeLag updates sebdb_replica_lag_blocks from the leader height a
// push frame advertised.
func (f *Follower) observeLag(leaderH uint64) {
	local := f.eng.Height()
	lag := int64(0)
	if leaderH > local {
		lag = int64(leaderH - local)
	}
	f.gLag.Set(lag)
	if lag > 0 {
		f.log.Debug("replica lag", "leader_height", leaderH, "local_height", local, "lag", lag)
	}
}
