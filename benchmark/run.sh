#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it there with the arguments given. Everything the
# build and the run write -- Go's build cache, telemetry counters and temp
# files, the binary, results, journals -- stays inside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
mkdir -p "$root/.bench_build/tmp"
export GOCACHE="$root/.bench_build/gocache"
export GOTMPDIR="$root/.bench_build/tmp"
export TMPDIR="$root/.bench_build/tmp"
export XDG_CONFIG_HOME="$root/.bench_build/config" # go's telemetry counters
export GOPATH="$root/.bench_build/gopath"
export GOENV=off GOFLAGS=-mod=readonly GOWORK=off GOTOOLCHAIN=local GOPROXY=off
go build -C benchmark -o "$root/.bench_build/oblidb-benchmark" .
exec "$root/.bench_build/oblidb-benchmark" "$@"
