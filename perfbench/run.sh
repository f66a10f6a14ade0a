#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# given arguments (--workload, --seed, --seconds, --trace). Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload solar-write --seed 1 --seconds 30 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the checkout:
# the Go build cache and temporary files, the binary, and the runs' spans,
# profiles and determinism fingerprints.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
# The go command and pprof keep telemetry counters and other state under
# the home and config directories; point those into the checkout too.
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" GOPATH="$build/home/go"
unset XDG_CACHE_HOME
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd "$root/perfbench" && go build -trimpath -o "$build/perfbench" .)
exec "$build/perfbench" -out "$build/perfbench-out" "$@"
