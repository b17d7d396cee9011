package snapshot

import "sebdb/internal/obs"

// Checkpoint lifecycle metrics, reported to the default registry.
// Loads are split by outcome so operators can see a node silently
// degrading to full replay ("miss" = no checkpoint, "corrupt" = CRC or
// structural failure discarded by design, "truncated" = a bad frame
// ended the usable log prefix early and replay covers the rest).
// Write bytes are the bytes appended to the log: the per-interval cost.
var (
	mWrites        = obs.Default.Counter("sebdb_snapshot_writes_total")
	mWriteBytes    = obs.Default.Counter("sebdb_snapshot_write_bytes_total")
	mLoadOK        = obs.Default.Counter(`sebdb_snapshot_loads_total{result="ok"}`)
	mLoadMiss      = obs.Default.Counter(`sebdb_snapshot_loads_total{result="miss"}`)
	mLoadCorrupt   = obs.Default.Counter(`sebdb_snapshot_loads_total{result="corrupt"}`)
	mLoadTruncated = obs.Default.Counter(`sebdb_snapshot_loads_total{result="truncated"}`)
	mLoadBytes     = obs.Default.Counter("sebdb_snapshot_load_bytes_total")
)
