#!/usr/bin/env bash
# Builds the Orion benchmark program from the checkout's sources and runs it
# with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload paper-suite --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Every build product, the Go build cache and
# temporary files stay under .bench_build in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
