#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with
# the given flags. Run from the repository root:
#
#   bash perfbench/run.sh --workload mqtt-wire --seed 1 --seconds 10 --trace 0
#
# Every build product (binary, Go build cache, temp files) stays under
# .bench_build/ in the current directory.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOENV=off GOFLAGS="-mod=readonly -buildvcs=false" GOWORK=off GOTOOLCHAIN=local GOPROXY=off
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" -out "$out" "$@"
