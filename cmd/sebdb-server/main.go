// Command sebdb-server runs one SEBDB full node: the engine over a
// local data directory and a TCP service for peers and thin clients.
// Every node serves the replica package's verified block stream, so any
// node can feed followers and bootstrap fresh nodes.
//
// Usage:
//
//	sebdb-server -dir ./data -listen 127.0.0.1:7070 \
//	    [-signer node0] [-auth table.col]... \
//	    [-parallel N] [-sync] [-checkpoint-interval N] \
//	    [-mmap] [-compress-after N] [-follow host:port] \
//	    [-trace-sample N] [-slow-query-micros N] [-log-level info]
//
// A standalone node packages its own blocks (submit transactions via
// the SQL interface, e.g. from sebdb-cli). With -checkpoint-interval
// the node checkpoints its derived state every N blocks so restarts
// replay only the post-checkpoint suffix.
//
// With -follow the node runs as a read replica: an empty node first
// catches up with the leader (replica.CatchUp), then subscribes to the
// leader's block stream, re-verifies and applies every pushed block
// locally, and serves SELECT/TRACE and authenticated queries from its
// own height-pinned views at bounded staleness (sebdb_replica_lag_blocks
// on /metrics). Local writes are rejected with core.ErrFollower; point
// sebdb-cli's -replica routing or writes at the leader instead. Index
// definitions ride the chain: -auth on a leader commits one unless the
// chain holds it, and a follower only takes the leader's.
//
// Diagnostics are structured JSON events on stderr (-log-level selects
// the floor); the flight recorder keeps the last sampled statement
// traces and every statement slower than -slow-query-micros, browsable
// via `SHOW [SLOW] TRACES` or /debug/traces behind -metrics-addr.
package main

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"sebdb/internal/core"
	"sebdb/internal/node"
	"sebdb/internal/obs"
	"sebdb/internal/replica"
)

type listFlag []string

// String renders the accumulated values for flag's usage output.
func (l *listFlag) String() string { return strings.Join(*l, ",") }

// Set appends one occurrence of the repeatable flag.
func (l *listFlag) Set(v string) error {
	*l = append(*l, v)
	return nil
}

func main() {
	dir := flag.String("dir", "./sebdb-data", "data directory")
	listen := flag.String("listen", "127.0.0.1:7070", "listen address")
	signer := flag.String("signer", "node0", "block signer identity")
	cacheMode := flag.String("cache", "tx", "cache policy: none | block | tx")
	par := flag.Int("parallel", 0, "worker count for the read pipeline (scans, replay, backfill) and the commit pipeline (tx hashing, index fan-out) (0 = GOMAXPROCS, 1 = sequential)")
	sync := flag.Bool("sync", false, "fsync block segments on commit; batched commits (consensus, flush) sync once per batch")
	mmap := flag.Bool("mmap", false, "serve reads from sealed block segments through memory maps (the active tail always uses pread; unsupported platforms fall back transparently)")
	compressAfter := flag.Int("compress-after", 0, "recompress sealed block segments at least N segments behind the active tail in the background (0 = disabled)")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /debug/vars, /debug/traces, /debug/log and /debug/pprof on this address (empty = disabled)")
	ckptInterval := flag.Int("checkpoint-interval", 0, "write a derived-state checkpoint every N blocks (0 = disabled)")
	traceSample := flag.Int("trace-sample", 1, "trace one statement in every N (1 = every statement)")
	slowMicros := flag.Int64("slow-query-micros", 100_000, "capture any statement at or above this latency into the slow-query ring regardless of sampling (0 = disabled)")
	logLevel := flag.String("log-level", "info", "structured event log floor: debug | info | warn | error")
	follow := flag.String("follow", "", "run as a read replica tailing this leader address; local writes are rejected and the chain advances only through the verified block stream")
	var authIdx listFlag
	flag.Var(&authIdx, "auth", "authenticated index to maintain, as table.col or .systemcol (repeatable)")
	flag.Parse()

	logger := obs.NewLogger(obs.Default, os.Stderr, obs.ParseLevel(*logLevel))
	log := logger.With("server")
	recorder := obs.NewRecorder(obs.RecorderConfig{
		Registry:    obs.Default,
		SampleEvery: *traceSample,
		SlowMicros:  *slowMicros,
	})

	mode := core.CacheTxs
	switch *cacheMode {
	case "none":
		mode = core.CacheNone
	case "block":
		mode = core.CacheBlocks
	case "tx":
	default:
		log.Error("unknown cache policy", "policy", *cacheMode)
		os.Exit(2)
	}

	engine, err := core.Open(core.Config{Dir: *dir, Signer: *signer, CacheMode: mode, Parallelism: *par,
		Sync: *sync, CheckpointInterval: *ckptInterval, Mmap: *mmap, CompressAfter: *compressAfter,
		Recorder: recorder, Log: logger})
	if err != nil {
		log.Error("engine open failed", "dir", *dir, "err", err)
		os.Exit(1)
	}
	defer func() {
		if err := engine.Close(); err != nil {
			log.Error("engine close failed", "err", err)
		}
	}()

	if *follow != "" {
		// Follower mode: reject local writes (the leader is the only
		// write target). An empty node first catches up with the leader;
		// a failed catch-up leaves what it verified in place, and the
		// stream below carries the node on from there.
		engine.SetFollower(true)
		if engine.Height() == 0 {
			if err := replica.CatchUp(engine, *follow); err != nil {
				log.Warn("bootstrap failed", "leader", *follow, "err", err)
			} else {
				fmt.Printf("sebdb-server: bootstrapped to height %d from %s\n", engine.Height(), *follow)
			}
		}
	}

	for _, spec := range authIdx {
		i := strings.LastIndex(spec, ".")
		if i < 0 {
			log.Error("bad -auth spec (want table.col)", "spec", spec)
			os.Exit(2)
		}
		if err := engine.CreateAuthIndex(spec[:i], spec[i+1:]); err != nil {
			// A table created later (DDL rides the chain) cannot be
			// indexed yet, and a follower's chain may not define the
			// index yet; warn and continue. Re-run the leader with -auth
			// once the table is on chain.
			log.Warn("auth index deferred", "spec", spec, "err", err)
		}
	}

	if *metricsAddr != "" {
		registerEngineMetrics(obs.Default, engine)
		ml, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			log.Error("metrics listen failed", "addr", *metricsAddr, "err", err)
			os.Exit(1)
		}
		srv := &http.Server{Handler: metricsMux(obs.Default, recorder, logger)}
		go func() {
			if err := srv.Serve(ml); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Error("metrics serve failed", "err", err)
			}
		}()
		defer srv.Close() //sebdb:ignore-err best-effort teardown of the metrics listener at exit
		fmt.Printf("sebdb-server: metrics on http://%s/metrics\n", ml.Addr())
	}

	n := node.New(engine)
	defer func() {
		if err := n.Close(); err != nil {
			log.Error("node close failed", "err", err)
		}
	}()
	addr, err := n.Serve(*listen)
	if err != nil {
		log.Error("listen failed", "addr", *listen, "err", err)
		os.Exit(1)
	}
	fmt.Printf("sebdb-server: %s serving on %s, height %d\n", *signer, addr, engine.Height())

	if *follow != "" {
		// Tail the leader's block stream, re-verifying and applying every
		// pushed block. Reads keep being served from this node's own
		// height-pinned views.
		f := replica.StartFollower(engine, replica.FollowerConfig{
			Leader: *follow,
			Log:    logger,
		})
		defer f.Stop()
		fmt.Printf("sebdb-server: following leader %s from height %d\n", *follow, engine.Height())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	fmt.Println("sebdb-server: shutting down")
}
