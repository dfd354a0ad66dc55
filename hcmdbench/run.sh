#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# from the root of a checkout:
#
#   bash hcmdbench/run.sh --workload campaign --seed 1 --seconds 40 --trace 0
#   bash hcmdbench/run.sh --workload all --seconds 40 --trace 1
#
# Everything it builds or writes stays under $CARGO_TARGET_DIR (default
# .bench_build) in the checkout: the Go build cache, the binary, and the
# spans and CPU profiles of traced runs.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$build"
build=$(cd "$build" && pwd)

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" XDG_CONFIG_HOME="$build/config"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd "$here" && go build -o "$build/hcmdbench" .)
exec "$build/hcmdbench" --out "$build/hcmdbench-out" "$@"
