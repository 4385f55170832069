#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ and runs it with the given
# arguments. Run from the repository root, e.g.
#   bash rmsbench/run.sh --workload sweep-case3 --seed 1 --seconds 20 --trace 0
# The Go build cache stays under .bench_build/ too, and nothing is
# downloaded: the benchmark module needs only the standard library and
# the repository's own module.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
go -C rmsbench build -o "$out/" . ./setupprobe
exec "$out/rmsbench" "$@"
