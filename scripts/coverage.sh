#!/usr/bin/env bash
# Artifact coverage gate. Builds every artifact with coverage, runs each
# one (bench2b all, crash, fuzz, fleet, fleet-smoke and wal-life with
# -metrics and -timeline, probe with -trace and a CSV timeline, one
# crash-smoke point replayed with -trace, walsim
# in every mode, the five examples, the benchmark's four workloads and
# its probes), lists the functions no run reached and compares that list
# with COVERAGE.json (scripts/coverage.py). Run from the repository
# root:
#
#   bash scripts/coverage.sh [work dir]
#
# The work dir (a fresh temporary directory by default) receives the
# binaries, the coverage counters and the run outputs; nothing is
# written in the checkout. Exits non-zero when a function that
# COVERAGE.json does not list reads 0 %, or a listed one is reached or
# gone.
set -euo pipefail

root=$(pwd)
work=${1:-$(mktemp -d)}
mkdir -p "$work/bin" "$work/data" "$work/run"
rm -f "$work"/data/*

go build -cover -coverpkg=twobssd/... -o "$work/bin/" ./cmd/bench2b ./cmd/walsim ./examples/...
(cd benchmark && go build -cover -coverpkg=twobssd/...,twobssd/benchmark -o "$work/bin/benchmark" .)

export GOCOVERDIR="$work/data"
bin=$work/bin
cd "$work/run"
"$bin/bench2b" -j 2 -metrics m.json -timeline tl.json all crash fuzz fleet fleet-smoke wal-life > bench2b.txt
"$bin/bench2b" -trace trace.json -timeline tl.csv probe > /dev/null
"$bin/bench2b" -trace point.trace.json crash-smoke/walseg/3 > /dev/null
for m in sync async ba; do
	"$bin/walsim" -mode "$m" > /dev/null
	"$bin/walsim" -mode "$m" -ring 4 > /dev/null
done
for e in crashrecovery dualpath fsjournal kvlog quickstart; do
	"$bin/$e" > /dev/null
done
for w in kv-ba kv-block blk-mixed fleet-failover; do
	"$bin/benchmark" --workload "$w" --seconds 2 --trace 0 > /dev/null
done
"$bin/benchmark" probes > /dev/null
go tool covdata func -i="$work/data" > "$work/func.txt"
cd "$root"
python3 scripts/coverage.py COVERAGE.json "$work/func.txt"
