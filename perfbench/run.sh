#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# from the root of a checkout:
#
#   bash perfbench/run.sh --workload plain-adhoc --seed 1 --seconds 30 --trace 0
#
# Build products, the Go build cache and run outputs stay under
# .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
# The Go command's config directory (its env file and local telemetry)
# moves there too, so nothing outside the checkout is written.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOSUMDB=off
go -C "$root/perfbench" build -o "$build/perfbench-bin" . >&2
exec "$build/perfbench-bin" "$@"
