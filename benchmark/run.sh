#!/usr/bin/env bash
# Builds the benchmark and runs it. Every build product, the go tool's
# cache included, stays under .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
mkdir -p .bench_build/bin
export GOCACHE="$root/.bench_build/gocache"
export GOTOOLCHAIN=local
go -C benchmark build -o "$root/.bench_build/bin/sebdb-benchmark" .
exec "$root/.bench_build/bin/sebdb-benchmark" "$@"
