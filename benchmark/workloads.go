package main

// The workload table. Everything that distinguishes one workload from
// another is on this page: the server flags it pins (anything not listed
// is the server's default, so a changed default shows up as a measured
// change), the read mix, who writes, and the fixed offered load of the
// open-loop phase.

// Workload is one row of the table.
type Workload struct {
	Name string
	Why  string

	// LeaderFlags are passed to the leader's sebdb-server verbatim.
	// A follower, when present, gets FollowerFlags plus -follow.
	LeaderFlags   []string
	Follower      bool
	FollowerFlags []string

	// Auth and Compress shape the prepared data directory: with Auth the
	// ALI on donate.amount exists before the server starts; with Compress
	// every sealed segment of the base chain sits in the cold tier.
	Auth, Compress bool

	Mix      Mix
	PoolSize int // distinct statements; the stream cycles through them
	Conns    int // reader connections (the load generator never uses more than two at once)

	// WriterRate, when above zero, adds connection A: the generated
	// INSERT stream paced at this many statements per second, from the
	// warm-up to the end of the open loop.
	WriterRate float64

	// Thin routes reads through thinclient.Router and the thin client's
	// authenticated protocol instead of one plain connection each.
	Thin bool

	// RateOpsS is the open-loop offered load, frozen at about a third of
	// the closed-loop throughput measured at the commit that introduced
	// the benchmark. A third, not half: the box's speed drifts by half
	// again over an hour, and a fixed rate near saturation turns p50_ms
	// into a measurement of that drift. It is a constant so that parent
	// and change are offered the identical load; never derive it at run
	// time.
	RateOpsS float64
}

// hotMix is the cache-resident point-read mix; mixed_ingest reuses it
// for its reader.
var hotMix = Mix{{NarrowQ4, 50}, {GetBlock, 30}, {Trace2D, 20}}

// Workloads is the fixed list. Shrink phase lengths if time is short,
// never this list.
var Workloads = []*Workload{
	{
		Name:        "hot_point",
		Why:         "cache-resident point reads: wire, parse, plan, view pin, index probe, cache get and result codec do the work, storage almost none",
		LeaderFlags: []string{"-auth", "donate.amount"},
		Auth:        true,
		Mix:         hotMix,
		PoolSize:    1024,
		Conns:       2,
		RateOpsS:    2000,
	},
	{
		Name:        "cold_scan",
		Why:         "cache off over the compressed tier: segment read, inflate, block/tx decode and the parallel fan-out dominate; wire and parse are noise",
		LeaderFlags: []string{"-cache", "none"},
		Compress:    true,
		Mix:         Mix{{WideQ4, 60}, {DonorScan, 30}, {JoinQ5, 10}},
		PoolSize:    512,
		Conns:       2,
		RateOpsS:    120,
	},
	{
		Name:        "mixed_ingest",
		Why:         "synced INSERT stream with checkpoints beside point reads: commit pipeline, index and ALI maintenance, append+fsync and snapshot cycles, with readers on pinned views",
		LeaderFlags: []string{"-sync", "-checkpoint-interval", "100", "-auth", "donate.amount"},
		Auth:        true,
		Mix:         hotMix,
		PoolSize:    1024,
		Conns:       1,
		WriterRate:  30 * blockTxs,
		RateOpsS:    800,
	},
	{
		Name:          "follow_verified",
		Why:           "leader plus follower, thin-client verified range reads while blocks stream in: replica apply, MB-tree VO build, VO bytes on the wire and client-side verification carry the latency",
		LeaderFlags:   []string{"-sync", "-auth", "donate.amount"},
		Follower:      true,
		FollowerFlags: []string{"-auth", "donate.amount"},
		Auth:          true,
		Mix:           Mix{{AuthRange, 70}, {NarrowQ4, 30}},
		PoolSize:      512,
		Conns:         1,
		WriterRate:    10 * blockTxs,
		Thin:          true,
		RateOpsS:      300,
	},
}

func workloadByName(name string) *Workload {
	for _, w := range Workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// Phase lengths as shares of the measured seconds: warm-up (discarded;
// caches fill), closed loop (saturation throughput, CPU per op), open
// loop (latency at the fixed offered load).
const (
	warmShare   = 0.1
	closedShare = 0.4
	openShare   = 0.5
)

// setupRounds is how many times a run sets the workload up from
// nothing; setup_s is the median, and the last set-up is the one the
// phases then run on.
const setupRounds = 3

// restartRounds is how many times a run kills and restarts the leader;
// restart_s is the median.
const restartRounds = 3

// The INSERT burst every read-only workload ends with, which is where
// its commit_p50_ms comes from: six blocks per measured second (60 in a
// ten-second run), at the pace of mixed_ingest's writer.
const (
	probeBlocksPerSecond = 6
	probeRate            = 30 * blockTxs
)

// rateWindow is the window, in seconds, of the closed loop's
// median-of-windows throughput.
const rateWindow = 0.5
