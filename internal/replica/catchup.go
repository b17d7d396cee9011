package replica

import (
	"fmt"

	"sebdb/internal/core"
	"sebdb/internal/network"
)

// CatchUp runs one replication session against the node at addr until
// the local height reaches the height the peer advertised in the
// session's first frame. Blocks pass the same checks a Follower applies;
// a refused, forged or severed stream ends the session with its error,
// having applied nothing unverified, and a later call resumes from the
// local height.
func CatchUp(eng *core.Engine, addr string) error {
	f := newFollower(eng, FollowerConfig{Leader: addr})
	var target uint64
	known := false
	_, err := f.tail(func(leaderH uint64) bool {
		if !known {
			target, known = leaderH, true
		}
		return eng.Height() >= target
	})
	return err
}

// Bootstrap brings a node level with the peer at addr: CatchUp from the
// local height (0 on a fresh node), then one KindIndexDefs request. The
// peer's definitions are validated against the tables the verified
// chain just built (core.Engine.ParseIndexDefs) and registered with
// their histogram bounds bit for bit, so both nodes bucket alike and
// serve equal ALI digests. A node with Config.CheckpointInterval set
// cut its own checkpoints while applying, so its next Open replays only
// a suffix.
func Bootstrap(eng *core.Engine, addr string) error {
	if err := CatchUp(eng, addr); err != nil {
		return err
	}
	cl, err := network.Dial(addr)
	if err != nil {
		return err
	}
	cl.SetTimeout(DefaultWriteTimeout)
	raw, err := cl.Call(network.KindIndexDefs, nil)
	if cerr := cl.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("replica: index definitions from %s: %w", addr, err)
	}
	defs, err := eng.ParseIndexDefs(raw)
	if err != nil {
		return err
	}
	return eng.AdoptIndexDefs(defs)
}
