package main

import (
	"net/http"
	"net/http/pprof"

	"sebdb/internal/core"
	"sebdb/internal/obs"
)

// metricsMux builds the observability HTTP surface served behind
// -metrics-addr:
//
//	/metrics       Prometheus text exposition
//	/debug/vars    the same registry as indented JSON (with quantiles)
//	/debug/traces  the flight recorder's recent + slow rings
//	               (?ring=slow, ?stage=, ?min_micros=, ?n=)
//	/debug/log     the structured event ring (?level=, ?n=)
//	/debug/pprof/  the runtime profiles
//
// rec and log may be nil; the trace and log endpoints then serve empty
// lists.
func metricsMux(reg *obs.Registry, rec *obs.Recorder, log *obs.Logger) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", obs.Handler(reg))
	mux.Handle("/debug/vars", obs.VarsHandler(reg))
	mux.Handle("/debug/traces", obs.TracesHandler(rec))
	mux.Handle("/debug/log", obs.LogHandler(log))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// registerEngineMetrics exposes the engine's point-in-time state as
// function-backed gauges; they are read at scrape time, so /metrics
// always reports the live height and cache occupancy.
func registerEngineMetrics(reg *obs.Registry, e *core.Engine) {
	reg.RegisterFunc("sebdb_chain_height", obs.TypeGauge,
		func() int64 { return int64(e.Height()) })
	reg.RegisterFunc("sebdb_parallelism", obs.TypeGauge,
		func() int64 { return int64(e.Parallelism()) })
	reg.RegisterFunc("sebdb_cache_hits_total", obs.TypeCounter,
		func() int64 { return int64(e.CacheStats().Hits) })
	reg.RegisterFunc("sebdb_cache_misses_total", obs.TypeCounter,
		func() int64 { return int64(e.CacheStats().Misses) })
	reg.RegisterFunc("sebdb_cache_evictions_total", obs.TypeCounter,
		func() int64 { return int64(e.CacheStats().Evictions) })
	reg.RegisterFunc("sebdb_cache_bytes", obs.TypeGauge,
		func() int64 { return e.CacheStats().Bytes })
	reg.RegisterFunc("sebdb_cache_entries", obs.TypeGauge,
		func() int64 { return int64(e.CacheStats().Entries) })
	reg.RegisterFunc("sebdb_cache_shard_contention_total", obs.TypeCounter,
		func() int64 { return int64(e.CacheStats().Contention) })
}
