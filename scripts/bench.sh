#!/bin/sh
# Runs the hot-path micro-benchmarks (GC trace without and with page
# touching, page-table lookup, heap build via Alloc/AddRef, mutator
# object access at recycled IDs, fleetd
# per-job service overhead, the zram store/load round trip) plus the
# end-to-end per-policy device-tick bench, one cold relaunch of a killed
# app on a warm device and the population campaign's per-device cost,
# and writes the raw `go test -json` stream to $BENCH_OUT (default
# BENCH_5.json) at the repo root.
#
# Usage: [BENCH_OUT=out.json] [BENCH_COUNT=N] scripts/bench.sh [extra go-test args]
#
# BENCH_COUNT repeats every benchmark N times (go test -count); diffing
# tools average the repetitions, so N>1 smooths scheduler noise.
# Compare two streams with: go run ./scripts old.json new.json
set -eu

cd "$(dirname "$0")/.."

out=${BENCH_OUT:-BENCH_5.json}
count=${BENCH_COUNT:-1}
go test -run '^$' -bench 'TraceHotPath|TraceTouchPass|PageLookup|PageRangeWalk|HeapBuild|HeapAccess|ServiceJob|DeviceTick|Relaunch|ZramSwapOut' \
	-benchmem -count "$count" -json \
	"$@" ./internal/gc ./internal/mem ./internal/vmem ./internal/heap ./internal/service ./internal/core ./internal/android ./internal/population | tee "$out" | \
	grep -o '"Output":"Benchmark[^"]*' | sed 's/"Output":"//; s/\\t/\t/g; s/\\n//' || true

echo "wrote $out"
