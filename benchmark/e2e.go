package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"sebdb/internal/node"
)

// The end-to-end run of one workload: set up from nothing, warm up,
// closed loop, open loop, then the commit probe, the chain checks and
// the kill-and-restart. Tracing is off here; see tracerun.go.

// Metric is one reported number.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the number of samples behind the value (0 when the value is a
	// single reading); Q1/Q3 are the sample quartiles of timed metrics.
	N  int     `json:"n,omitempty"`
	Q1 float64 `json:"q1,omitempty"`
	Q3 float64 `json:"q3,omitempty"`
}

// Result is everything one run of one workload produced.
type Result struct {
	Workload  string
	Attempted int
	Failed    int
	Metrics   map[string]Metric
	// Diagnostics are reported beside the metrics but never bounded:
	// numbers too noisy on a shared two-core box to gate a change.
	Diagnostics map[string]Metric
	Notes       []string
}

func (r *Result) fail(n int, format string, args ...any) {
	r.Failed += n
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// proc is one running node: a spawned sebdb-server (server.go) or, in
// the package's own tests, a node inside the test process.
type proc interface {
	Address() string
	Kill()
	cpuSeconds() (float64, error)
	rssMB() (float64, error)
}

// launcher starts a node on a data directory with sebdb-server flags.
type launcher func(dataDir, logPath string, flags []string) (proc, error)

// RunOptions are the knobs of one end-to-end run; the command line sets
// only Seconds, the tests shrink the rest.
type RunOptions struct {
	Seconds       float64
	Size          Size
	SetupRounds   int // set-ups per run; setup_s is their median
	RestartRounds int // kill-and-restart cycles per run; restart_s is their median
	Launch        launcher
	Scratch       string
	// Tamper, when set, edits the generated statements after the oracle
	// has answered them; the tests use it to show that a wrong expected
	// answer is counted as a failure.
	Tamper func([]Stmt)
}

// env is one set-up workload: prepared directories, live servers and
// the generator's connections.
type env struct {
	w      *Workload
	seed   int64
	root   string // this set-up's scratch directory
	launch launcher
	ds     *Dataset
	stream *Stream

	leader, follower proc
	remotes          []*node.Remote
	targets          []*Target
	writer           *Writer
	control          *node.Remote // leader connection for Height and header checks
	followerCtl      *node.Remote
}

const callTimeout = 30 * time.Second

func (e *env) dial(addr string) (*node.Remote, error) {
	r, err := node.DialNode(addr)
	if err != nil {
		return nil, err
	}
	// A hung server must fail the request, not hang the benchmark; a
	// resend after a transport error could double an INSERT.
	r.TuneCalls(callTimeout, 0, 0)
	e.remotes = append(e.remotes, r)
	return r, nil
}

func (e *env) leaderDir() string   { return filepath.Join(e.root, "leader") }
func (e *env) followerDir() string { return filepath.Join(e.root, "follower") }

func (e *env) startLeader() error {
	s, err := e.launch(e.leaderDir(), filepath.Join(e.root, "leader.log"), e.w.LeaderFlags)
	e.leader = s
	return err
}

// setUp prepares the workload from nothing and returns once every
// reader connection has had one correct reply (and the follower, if
// any, has caught up with the leader).
func setUp(w *Workload, seed int64, o RunOptions, root string) (*env, error) {
	size, launch := o.Size, o.Launch
	e := &env{w: w, seed: seed, root: root, launch: launch}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	e.ds = Generate(seed, size)
	if err := e.ds.Build(e.leaderDir(), BuildOptions{Auth: w.Auth, Compress: w.Compress}); err != nil {
		return e, err
	}
	oracle, err := NewOracle(e.ds)
	if err != nil {
		return e, err
	}
	pool, err := oracle.Pool(w.Mix, w.PoolSize, seed)
	if err != nil {
		return e, err
	}
	if o.Tamper != nil {
		o.Tamper(pool)
	}
	e.stream = &Stream{pool: pool}
	if w.Follower {
		// The follower starts from a copy of the prepared chain and
		// tails the leader from there, as a restarted replica would.
		if err := copyDir(e.leaderDir(), e.followerDir()); err != nil {
			return e, err
		}
	}
	if err := e.startLeader(); err != nil {
		return e, err
	}
	if e.control, err = e.dial(e.leader.Address()); err != nil {
		return e, err
	}
	if w.Follower {
		flags := append([]string{"-follow", e.leader.Address()}, w.FollowerFlags...)
		e.follower, err = launch(e.followerDir(), filepath.Join(root, "follower.log"), flags)
		if err != nil {
			return e, err
		}
		if e.followerCtl, err = e.dial(e.follower.Address()); err != nil {
			return e, err
		}
	}
	for i := 0; i < w.Conns; i++ {
		t, err := e.newTarget()
		if err != nil {
			return e, err
		}
		e.targets = append(e.targets, t)
	}
	if w.WriterRate > 0 {
		conn, err := e.dial(e.leader.Address())
		if err != nil {
			return e, err
		}
		e.writer = newWriter(conn.SQL, seed)
	}
	for i, t := range e.targets {
		if err := t.Do(&pool[(i+1)%len(pool)]); err != nil {
			return e, fmt.Errorf("first reply: %w", err)
		}
	}
	if w.Follower {
		if err := e.waitFollower(10 * time.Second); err != nil {
			return e, err
		}
	}
	return e, nil
}

func (e *env) newTarget() (*Target, error) {
	leader, err := e.dial(e.leader.Address())
	if err != nil {
		return nil, err
	}
	if !e.w.Thin {
		return &Target{SQL: leader.SQL}, nil
	}
	follower, err := e.dial(e.follower.Address())
	if err != nil {
		return nil, err
	}
	return thinTarget(leader, follower, e.seed), nil
}

// waitFollower polls until the follower's height equals the leader's.
func (e *env) waitFollower(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		lh, err := e.control.Height()
		if err != nil {
			return err
		}
		fh, err := e.followerCtl.Height()
		if err != nil {
			return err
		}
		if fh == lh {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("follower at height %d, leader at %d after %v", fh, lh, limit)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// tearDown closes connections, kills servers and removes the scratch
// directory. Safe on a partly set-up env.
func (e *env) tearDown() {
	for _, r := range e.remotes {
		r.Close() //sebdb:ignore-err closing a benchmark connection at teardown
	}
	e.remotes = nil
	if e.follower != nil {
		e.follower.Kill()
	}
	if e.leader != nil {
		e.leader.Kill()
	}
	os.RemoveAll(e.root) //sebdb:ignore-err scratch cleanup; the run directory is removed again at exit
}

func (e *env) servers() []proc {
	if e.follower != nil {
		return []proc{e.leader, e.follower}
	}
	return []proc{e.leader}
}

func (e *env) cpuSeconds() (float64, error) {
	var total float64
	for _, s := range e.servers() {
		c, err := s.cpuSeconds()
		if err != nil {
			return 0, err
		}
		total += c
	}
	return total, nil
}

// sampleRSS reads the largest server's resident set every 100 ms until
// stop closes. The median of these samples repeats between runs; the
// high-water mark does not, because it catches whichever moment a
// collection happened to be furthest behind a checkpoint's garbage.
func (e *env) sampleRSS(stop <-chan struct{}, out *[]float64, done chan<- struct{}) {
	defer close(done)
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			var largest float64
			for _, s := range e.servers() {
				if mb, err := s.rssMB(); err == nil && mb > largest {
					largest = mb
				}
			}
			*out = append(*out, largest)
		}
	}
}

// runE2E measures one workload end to end.
func runE2E(w *Workload, seed int64, o RunOptions) (*Result, error) {
	res := &Result{Workload: w.Name, Metrics: map[string]Metric{}, Diagnostics: map[string]Metric{}}

	var e *env
	var setups []float64
	for round := 0; round < o.SetupRounds; round++ {
		if e != nil {
			e.tearDown()
		}
		t0 := time.Now()
		var err error
		e, err = setUp(w, seed, o, filepath.Join(o.Scratch, fmt.Sprintf("%s-%d", w.Name, round)))
		if err != nil {
			if e != nil {
				e.tearDown()
			}
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer e.tearDown()
	res.Metrics["setup_s"] = timed(setups, "s")

	phase := func(share float64) time.Duration {
		return time.Duration(o.Seconds * share * float64(time.Second))
	}
	if e.writer != nil {
		e.writer.Start(w.WriterRate)
	}
	phases := []PhaseResult{runClosed(e.targets, e.stream, phase(warmShare), nil)}

	// Closed-loop phase: throughput and server CPU per correct op. Beside
	// a writer whose leader checkpoints, the phase is cut in blocks, not
	// seconds: from one checkpoint boundary over a whole number of
	// checkpoint intervals, so every run covers the same ingest work and
	// the same number of checkpoints.
	var until <-chan struct{}
	length := phase(closedShare)
	if iv := checkpointInterval(w.LeaderFlags); iv > 0 && e.writer != nil {
		base := e.ds.Size.Blocks + 1
		from := (base+e.writer.Blocks())/iv*iv + iv - base
		span := int(length.Seconds()*w.WriterRate/blockTxs+float64(iv)/2) / iv * iv
		if span == 0 {
			span = iv
		}
		align, done := make(chan struct{}), make(chan struct{})
		go func() {
			e.writer.waitBlocks(from)
			close(align)
			e.writer.waitBlocks(from + span)
			close(done)
		}()
		length = time.Minute // the writer, not the clock, ends these reads
		phases = append(phases, runClosed(e.targets, e.stream, length, align))
		until = done
	}
	var rss []float64
	rssStop, rssDone := make(chan struct{}), make(chan struct{})
	go e.sampleRSS(rssStop, &rss, rssDone)
	acked0 := 0
	if e.writer != nil {
		acked0 = e.writer.Acked()
	}
	cpu0, err := e.cpuSeconds()
	if err != nil {
		return nil, err
	}
	closed := runClosed(e.targets, e.stream, length, until)
	cpu1, err := e.cpuSeconds()
	if err != nil {
		return nil, err
	}
	ops := float64(closed.Correct())
	if e.writer != nil {
		ops += float64(e.writer.Acked() - acked0)
	}
	res.Metrics["throughput_ops_s"] = Metric{Value: closed.WindowedRate(rateWindow), Unit: "ops/s", N: closed.Correct()}
	res.Metrics["server_cpu_ms_per_op"] = Metric{Value: (cpu1 - cpu0) * 1000 / ops, Unit: "ms", N: int(ops)}

	// Open-loop phase: latency from the due time at the fixed rate.
	open := runOpen(e.targets, e.stream, Schedule(w.RateOpsS, phase(openShare), seed), nil)
	close(rssStop)
	<-rssDone
	res.Metrics["server_rss_mb"] = timed(rss, "MB")
	phases = append(phases, closed, open)
	lat := sortedCopy(open.LatencyMS)
	if len(lat) == 0 {
		return nil, fmt.Errorf("open-loop phase had no correct reply: %v", open.FirstErr)
	}
	q1, q3 := Quartiles(lat)
	res.Metrics["p50_ms"] = Metric{Value: Median(lat), Unit: "ms", N: len(lat), Q1: q1, Q3: q3}
	for name, q := range map[string]float64{"p95_ms": 0.95, "p99_ms": 0.99} {
		v, ok := Percentile(lat, q)
		res.Diagnostics[name] = Metric{Value: v, Unit: "ms", N: len(lat)}
		if !ok {
			res.Notes = append(res.Notes, fmt.Sprintf("%s rests on fewer than %d samples beyond it (n=%d)", name, minBeyond, len(lat)))
		}
	}
	lateP99, _ := Percentile(sortedCopy(open.LateMS), 0.99)
	res.Diagnostics["gen.late_ms_p99"] = Metric{Value: lateP99, Unit: "ms", N: len(open.LateMS)}

	if e.writer != nil {
		e.writer.Stop()
		if iv := checkpointInterval(w.LeaderFlags); iv > 0 {
			// Leave the chain half an interval past a checkpoint, so the
			// restart below always replays the same length of suffix.
			h := e.ds.Size.Blocks + 1 + e.writer.Blocks()
			e.writer.WriteBlocks((iv/2 - h%iv + iv) % iv)
		}
	} else {
		// Read-only workloads end with a short paced INSERT burst on one
		// more connection, so commit latency is known on every server
		// configuration, and the restart below has blocks to recover. The
		// readers go on meanwhile at their open-loop rate. Timed on an idle
		// box a cut measures how long the cores take to wake up, and beside
		// saturating readers how long it waits for a core; either way its
		// median moved by a third between runs.
		conn, err := e.dial(e.leader.Address())
		if err != nil {
			return nil, err
		}
		e.writer = newWriter(conn.SQL, seed)
		probed, beside := make(chan struct{}), make(chan PhaseResult)
		go func() {
			beside <- runOpen(e.targets, e.stream, Schedule(w.RateOpsS, time.Minute, seed+1), probed)
		}()
		e.writer.Start(probeRate)
		e.writer.waitBlocks(int(probeBlocksPerSecond*o.Seconds + 0.5))
		e.writer.Stop()
		close(probed)
		phases = append(phases, <-beside)
	}
	res.Metrics["commit_p50_ms"] = timed(e.writer.cutMS, "ms")

	for _, p := range phases {
		res.Attempted += p.Attempted
		res.Failed += p.Failed
		if p.FirstErr != nil {
			res.Notes = append(res.Notes, "read: "+p.FirstErr.Error())
		}
	}
	res.Attempted += e.writer.sent + e.writer.failed
	if e.writer.failed > 0 {
		res.fail(e.writer.failed, "insert: %v", e.writer.firstErr)
	}

	if err := e.checkChain(res); err != nil {
		return nil, err
	}
	if err := e.restart(res, o.RestartRounds); err != nil {
		return nil, err
	}
	return res, nil
}

// checkpointInterval reads -checkpoint-interval out of pinned flags.
func checkpointInterval(flags []string) int {
	for i, f := range flags {
		if f == "-checkpoint-interval" && i+1 < len(flags) {
			n, _ := strconv.Atoi(flags[i+1]) //sebdb:ignore-err a flag table typo shows up as interval 0
			return n
		}
	}
	return 0
}

// timed summarises a sample of timings as its median with quartiles.
func timed(sample []float64, unit string) Metric {
	s := sortedCopy(sample)
	q1, q3 := Quartiles(s)
	return Metric{Value: Median(s), Unit: unit, N: len(s), Q1: q1, Q3: q3}
}

// checkChain confirms every acknowledged block is on the leader's
// chain and that the follower (if any) converges to the same tip.
func (e *env) checkChain(res *Result) error {
	base := uint64(e.ds.Size.Blocks + 1)
	want := base + uint64(e.writer.Blocks())
	h, err := e.control.Height()
	if err != nil {
		return err
	}
	if h < want {
		res.fail(int(want-h)*blockTxs, "leader height %d, but %d blocks were acknowledged", h, want)
	}
	if e.follower != nil {
		t0 := time.Now()
		if err := e.waitFollower(10 * time.Second); err != nil {
			res.fail(1, "%v", err)
		} else {
			res.Diagnostics["replica.catch_up_ms"] = Metric{Value: time.Since(t0).Seconds() * 1000, Unit: "ms"}
			lt, err1 := e.control.Headers(h - 1)
			ft, err2 := e.followerCtl.Headers(h - 1)
			if err1 != nil || err2 != nil || len(lt) == 0 || len(ft) == 0 || lt[0].Hash() != ft[0].Hash() {
				res.fail(1, "leader and follower chains differ at height %d", h)
			}
		}
	}
	return nil
}

// restart SIGKILLs the leader, starts it again on the same directory
// and times the way back to a correct reply, rounds times over. Under
// -sync every acknowledged block must still be there. (A process kill
// keeps the operating system's cache, so this checks the recovery
// logic, not the device.) It ends with every server stopped and
// measures the space the leader's directory takes.
func (e *env) restart(res *Result, rounds int) error {
	want := uint64(e.ds.Size.Blocks+1) + uint64(e.writer.Blocks())
	synced := false
	for _, f := range e.w.LeaderFlags {
		synced = synced || f == "-sync"
	}
	var took []float64
	for round := 0; round < rounds; round++ {
		e.leader.Kill()
		t0 := time.Now()
		if err := e.startLeader(); err != nil {
			return fmt.Errorf("restart: %w", err)
		}
		conn, err := e.dial(e.leader.Address())
		if err != nil {
			return err
		}
		probe := &Target{SQL: conn.SQL}
		res.Attempted++
		if err := probe.Do(e.firstSQLStmt()); err != nil {
			res.fail(1, "after restart: %v", err)
		}
		took = append(took, time.Since(t0).Seconds())
		h, err := conn.Height()
		if err != nil {
			return err
		}
		if synced && h < want {
			res.fail(int(want-h)*blockTxs, "after SIGKILL the leader recovered %d blocks of %d acknowledged under -sync", h, want)
		}
	}
	res.Metrics["restart_s"] = timed(took, "s")
	for _, s := range e.servers() {
		s.Kill()
	}
	disk, err := dirBytes(e.leaderDir())
	if err != nil {
		return err
	}
	user := e.ds.ArgBytes + int64(e.writer.sent)*insertArgBytes(e.seed)
	res.Metrics["disk_bytes_per_user_byte"] = Metric{Value: float64(disk) / float64(user), Unit: "ratio"}
	return nil
}

// firstSQLStmt is a pool statement a plain connection can run.
func (e *env) firstSQLStmt() *Stmt {
	for i := range e.stream.pool {
		if e.stream.pool[i].Kind != AuthRange {
			return &e.stream.pool[i]
		}
	}
	return &e.stream.pool[0]
}

func sortedNames(m map[string]Metric) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
