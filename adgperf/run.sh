#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#
#   bash adgperf/run.sh --workload scan_offload --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Every build and run artefact stays under
# .bench_build/ there (Go build cache included).
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOENV=off GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off

bin="$out/adgperf/bin/adgperf"
(cd "$root/adgperf" && go build -o "$bin" .)
exec "$bin" "$@"
