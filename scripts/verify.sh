#!/usr/bin/env bash
# verify.sh — the single gate every SEBDB change must pass.
#
# Runs formatting, go vet, the project's own sebdb-vet analyzers, the
# build, the full test suite, and a race pass over the short tests.
# Everything is stdlib Go; no network or external tools needed.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l . | grep -v '^internal/lint/testdata/' || true)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== sebdb-vet =="
go run ./cmd/sebdb-vet ./...

echo "== sebdb-vet self-test (fixture expected-findings diff) =="
# The lint fixtures seed one violation per analyzer (lockio/trusttaint/
# rawlog included); these tests diff sebdb-vet's findings against the
# fixtures' want-comments and the CLI golden file, so analyzer
# regressions fail the gate like any other bug.
go test -count=1 ./internal/lint/... ./cmd/sebdb-vet

echo "== go build =="
go build ./...

echo "== go test =="
go test ./...

echo "== go test -race -short =="
go test -race -short ./...

echo "== obs race pass =="
go test -race ./internal/obs/... ./internal/parallel/...

echo "== faultfs crash matrix (-race) =="
go test -race -run 'Injector|CrashMatrix|RestartEquivalence' \
    ./internal/faultfs ./internal/snapshot ./internal/core

echo "== write pipeline stress (-race) =="
go test -race -run 'CommitPipeline|GroupFsync|RequireSigs' \
    ./internal/core ./internal/storage \
    ./internal/consensus/kafka ./internal/consensus/pbft

echo "== read view stress (-race) =="
go test -race -run 'TestView|TestCreateRollsBack|TestCreateKept|TestDeployContractRollsBack' \
    ./internal/core

echo "== metrics + flight-recorder endpoint smoke =="
# TestTraceLogEndpoints scrapes /debug/traces (recent + slow rings,
# filters) and /debug/log over a live engine; TestMetricsEndpoints
# covers /metrics, /debug/vars and the nil recorder/logger paths.
go test -race -run 'TestMetricsEndpoints|TestTraceLogEndpoints' ./cmd/sebdb-server

echo "== storage tier stress (-race) =="
# Mmap-vs-pread byte equivalence, the recompression crash matrix,
# sharded-cache stripe semantics, and readers racing recompression and
# commits across the storage, cache and core layers.
go test -race -run 'Tier|Compress|Sharded|HandleCache|MmapFallback' \
    ./internal/storage ./internal/cache ./internal/core

echo "== replication stress (-race) =="
# Follower tail-verify-apply vs concurrent pushes and reads, cursor
# resume across restarts, tampered/forged push rejection, and the
# client's stream/retry/timeout plumbing underneath it all.
go test -race -run 'Replica|Follower|Tampered|Forged|Stream|Call' \
    ./internal/replica ./internal/network ./internal/thinclient

echo "== benchmark module =="
# benchmark/ is its own module (replace sebdb => ../), so the root
# ./... patterns above never reach it: without this step an internal/
# signature change can break the measuring stick unnoticed.
go -C benchmark vet ./... && go -C benchmark test -short ./...

echo "== bchainbench -json smoke =="
json_out=$(mktemp)
trap 'rm -f "$json_out"' EXIT
go run ./cmd/bchainbench -fig 12 -scale 0.01 -json "$json_out" >/dev/null
if ! grep -q '"figure"' "$json_out"; then
    echo "bchainbench -json produced no figure data" >&2
    exit 1
fi
go run ./cmd/bchainbench -fig 7 -scale 0.01 -json "$json_out" >/dev/null
if ! grep -q '"figure"' "$json_out"; then
    echo "bchainbench -fig 7 -json produced no figure data" >&2
    exit 1
fi
go run ./cmd/bchainbench -fig readview -scale 0.01 -json "$json_out" >/dev/null
if ! grep -q '"figure"' "$json_out"; then
    echo "bchainbench -fig readview -json produced no figure data" >&2
    exit 1
fi
go run ./cmd/bchainbench -fig replicas -scale 0.01 -json "$json_out" >/dev/null
if ! grep -q '"figure"' "$json_out"; then
    echo "bchainbench -fig replicas -json produced no figure data" >&2
    exit 1
fi
# fig storage errors out internally if the four tier variants' scan
# digests diverge, so this smoke doubles as a cross-tier equivalence
# check on a real chain.
go run ./cmd/bchainbench -fig storage -scale 0.01 -json "$json_out" >/dev/null
if ! grep -q '"figure"' "$json_out"; then
    echo "bchainbench -fig storage -json produced no figure data" >&2
    exit 1
fi

echo "verify: all gates passed"
