package replica

import "sebdb/internal/core"

// CatchUp runs one replication session against the node at addr until
// the local height reaches the height the peer advertised in the
// session's first frame. Blocks pass the same checks a Follower applies;
// a refused, forged or severed stream ends the session with its error,
// having applied nothing unverified, and a later call resumes from the
// local height. It is also how a fresh node bootstraps: the source's
// index definitions arrive as records, bounds bit for bit.
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
