#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the arguments given. Run from the repository root:
#
#   bash benchmark/run.sh --workload kv-ba --seed 1 --seconds 15 --trace 0
#
# Everything the Go toolchain writes (build cache, temp files, the
# binary) goes under .bench_build in the checkout; nothing is fetched.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOENV=off GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off GOWORK=off
# Load comes from one process on two CPUs, default GOGC.
export GOMAXPROCS=2

(cd "$root/benchmark" && go build -o "$build/benchmark" .)
exec "$build/benchmark" "$@"
