#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it with
# the given arguments, e.g.
#
#   bash perfbench/run.sh --workload solve --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Every build product, the Go build cache
# and the benchmark's scratch files stay under .bench_build/ in the
# current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" \
	GOPATH="$out/gopath" GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOENV=off
(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" -workdir "$out" "$@"
