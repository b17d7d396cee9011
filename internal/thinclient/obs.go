package thinclient

import "sebdb/internal/obs"

// Thin-client metrics, reported to the default registry. VO bytes are
// the answer sizes the client shipped (Fig. 17's axis); verify time
// covers the client-side VO reconstruction.
var (
	mVOBytesAuth  = obs.Default.Counter(`sebdb_thinclient_vo_bytes_total{proto="auth"}`)
	mQueriesAuth  = obs.Default.Counter(`sebdb_thinclient_queries_total{proto="auth"}`)
	mVerifyMicros = obs.Default.Histogram("sebdb_thinclient_verify_micros")
)
