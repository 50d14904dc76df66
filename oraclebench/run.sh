#!/usr/bin/env bash
# Builds the oracle benchmark from this checkout's sources and runs it:
#
#   bash oraclebench/run.sh --workload serve-zipf --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays inside the checkout, under
# ${CARGO_TARGET_DIR:-.bench_build}: the Go build cache, the binary, the
# generated graph files and the trace files.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOTOOLCHAIN=local GOENV=off GOFLAGS= GOWORK=off
(cd "$root/oraclebench" && go build -o "$out/oraclebench" .) >&2
exec "$out/oraclebench" -workdir "$out/oraclebench-work" "$@"
