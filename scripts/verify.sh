#!/usr/bin/env bash
# verify.sh — the single gate every SEBDB change must pass.
#
# Runs formatting, go vet, the project's own sebdb-vet analyzers, the
# build, the full test suite, the full suite again under -race, the
# nested benchmark module's vet + short tests, every figure once through
# the testing.B driver, the MB-tree fan-out ablation, ten seconds of
# fuzzing per target and two bchainbench -json smokes. Everything is
# stdlib Go; no network or external tools needed.
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
# fixtures' want-comments and the CLI golden file, and check that every
# function named in an analyzer's curated list still exists in the real
# module, so analyzer regressions — a renamed entry point included —
# fail the gate like any other bug.
go test -count=1 ./internal/lint/... ./cmd/sebdb-vet

echo "== go build =="
go build ./...

echo "== go test =="
go test ./...

echo "== go test -race =="
# One race pass over everything: the crash matrices, the write-pipeline,
# read-view, storage-tier and replication stress tests and the metrics
# endpoint smoke all run here by virtue of existing, not because a
# -run regex happens to still match their names.
go test -race ./...

echo "== benchmark module =="
# benchmark/ is its own module (replace sebdb => ../), so the root
# ./... patterns above never reach it: without this step an internal/
# signature change can break the measuring stick unnoticed.
go -C benchmark vet ./... && go -C benchmark test -short ./...

echo "== go test -bench Figures (every figure, one iteration per cell) =="
# go test ./... compiles the root benchmarks but never runs them; this
# runs every registered figure through the testing.B driver — the same
# definitions, loaders and result-count checks bchainbench uses.
go test -run '^$' -bench Figures -benchtime 1x .

echo "== go test -bench AblationMBTreeFanout (the table behind mbtree.DefaultFanout) =="
# DESIGN.md's fan-out table is this benchmark's output; one iteration
# per fan-out keeps it reproducible (VO bytes and tree bytes are exact
# at any iteration count).
go test -run '^$' -bench AblationMBTreeFanout -benchtime 1x .

echo "== fuzz (10 s per target) =="
# go test ./... only replays each target's seed corpus. The decoders of
# peer-supplied bytes get a short real run: the two VO verifiers (never
# panic, allocation bounded by input length, accept => the rows are a
# brute-force filter of the chain), the compressed-record reader and the
# checkpoint log decoder (same bounds, decode∘encode identity, a log
# that does not tile the chain refused). The layered index's per-block
# run gets the same treatment against a brute-force stable sort: every
# second-level read equals it, and neither first level drops a block
# the second level matches. The transaction skip walk the block store
# takes its offsets from is held to the full decoder: same accept/refuse,
# same bytes consumed; so is the filtered block read the scans use, which
# decodes into an aliasing scratch: same accept/refuse with the store's
# offsets, never an accept the full decoder refuses, and exactly the
# full decoder's transactions that pass the filter. The cold tier's
# DEFLATE decoder is held to compress/flate's reader on arbitrary chunks:
# same accept/refuse under exact fill and exact consume, same bytes, no
# write past its output. The block-level index is a bisection over the
# pinned header prefix, correct only while the headers keep their order:
# random chains (empty blocks, timestamp gaps) are held to a linear scan
# of the headers at every pin height. The layered run's numeric column
# bisects order-preserving machine words instead of calling
# types.Compare, so it is correct only while the word transform and the
# mapping of every query bound onto a word order exactly as Compare does:
# float and integer edges (-0, NaN, infinities, subnormals, Ints past
# 2^53), Timestamps, Bools, strings and exec's open-range sentinels are
# held to Compare's sign, and every key must come back bit for bit.
# Every peer block enters through one decoder, the replica stream's push
# frame and the block decoder behind it, so that pair gets the same
# bounds and decode∘encode identity on arbitrary bytes.
# Minimization is off: the engine's minimizer stalls on multi-KB inputs.
go test -run '^$' -fuzz '^FuzzDecodeVerifyVO$' -fuzztime 10s -fuzzminimizetime 0 ./internal/mbtree
go test -run '^$' -fuzz '^FuzzVerifyAnswer$' -fuzztime 10s -fuzzminimizetime 0 ./internal/auth
go test -run '^$' -fuzz '^FuzzInflateRecord$' -fuzztime 10s -fuzzminimizetime 0 ./internal/storage
go test -run '^$' -fuzz '^FuzzInflateChunk$' -fuzztime 10s -fuzzminimizetime 0 ./internal/storage
go test -run '^$' -fuzz '^FuzzDecodeCheckpointLog$' -fuzztime 10s -fuzzminimizetime 0 ./internal/snapshot
go test -run '^$' -fuzz '^FuzzLayeredBlock$' -fuzztime 10s -fuzzminimizetime 0 ./internal/index/layered
go test -run '^$' -fuzz '^FuzzSkipTransaction$' -fuzztime 10s -fuzzminimizetime 0 ./internal/types
go test -run '^$' -fuzz '^FuzzFilterBlock$' -fuzztime 10s -fuzzminimizetime 0 ./internal/types
go test -run '^$' -fuzz '^FuzzBlockIndex$' -fuzztime 10s -fuzzminimizetime 0 ./internal/index/blockindex
go test -run '^$' -fuzz '^FuzzRunKeyOrder$' -fuzztime 10s -fuzzminimizetime 0 ./internal/index/layered
go test -run '^$' -fuzz '^FuzzDecodePush$' -fuzztime 10s -fuzzminimizetime 0 ./internal/replica

echo "== bchainbench -json smoke =="
# The table driver end to end: fig 12 for the JSON output, fig storage
# because it errors out internally if the four tier variants' scan
# digests diverge, so its smoke doubles as a cross-tier equivalence
# check on a real chain. The figure engines run on a fixed clock, so
# that chain is a function of its seed alone: a second run of fig
# storage must print the same digest column.
json_out=$(mktemp)
table_out=$(mktemp)
trap 'rm -f "$json_out" "$table_out"' EXIT
for fig in 12 storage; do
    go run ./cmd/bchainbench -fig "$fig" -scale 0.01 -json "$json_out" >"$table_out"
    if ! grep -q '"figure"' "$json_out"; then
        echo "bchainbench -fig $fig -json produced no figure data" >&2
        exit 1
    fi
done
digests() { awk '$1 ~ /\/(plain|compressed)$/ {print $1, $NF}'; }
first=$(digests <"$table_out")
second=$(go run ./cmd/bchainbench -fig storage -scale 0.01 | digests)
if [ -z "$first" ] || [ "$first" != "$second" ]; then
    printf 'bchainbench -fig storage digests differ between two runs:\n%s\n--\n%s\n' "$first" "$second" >&2
    exit 1
fi

echo "verify: all gates passed"
