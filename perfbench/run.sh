#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it.
#
#   bash perfbench/run.sh --workload bulk|rpc|vip|city --seed N --seconds S --trace 0|1
#
# Run from the root of the checkout. Everything the build and the runs
# leave behind goes under .bench_build/ and .bench_out/ there; the go
# command's cache, temporary files, environment and telemetry files are
# pointed there too.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod GOPROXY=off

go -C "$root/perfbench" build -o "$build/psdperf" . >&2
exec "$build/psdperf" -out "$root/.bench_out" "$@"
