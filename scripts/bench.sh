#!/usr/bin/env bash
# Regenerates BENCH_hotpath.json: runs the tracked hot-path microbenchmarks
# and times the full small sweep, then rewrites the JSON file at the repo
# root. The sweep's "before" number defaults to the previous recording's
# "after" (so each regeneration shifts the window forward); override it with
# BEFORE_SECONDS=<sec> when measuring a specific older commit on the same
# machine. BENCHTIME overrides the per-benchmark time (default 1s).
set -euo pipefail
cd "$(dirname "$0")/.."

out=BENCH_hotpath.json
benchtime=${BENCHTIME:-1s}

# run_bench <pkg> <regex>: emits "pkg<TAB>name<TAB>ns_per_op" per benchmark.
run_bench() {
    go test -run '^$' -bench "$2" -benchtime "$benchtime" "./$1/" |
        awk -v pkg="$1" '/^Benchmark/ {
            name = $1; sub(/-[0-9]+$/, "", name)
            printf "%s\t%s\t%s\n", pkg, name, $3
        }'
}

echo "bench.sh: running microbenchmarks (benchtime $benchtime)" >&2
bench_lines=$(
    run_bench internal/sim 'Yield|DeliverRecv|Handoff|ParallelSweep'
    run_bench internal/core 'SharedAccess|SharedReadRange'
    run_bench internal/apps/sor 'SORSmallSequential'
)

before=${BEFORE_SECONDS:-$(awk -F'[:,]' '/"after_seconds"/ {gsub(/[ \t]/,"",$2); print $2}' "$out" 2>/dev/null || true)}
before=${before:-0}

echo "bench.sh: timing the full small sweep (-jobs 1)" >&2
go build -o /tmp/dsmbench.benchsh ./cmd/dsmbench
# -strict makes any failed sweep cell exit nonzero, which aborts this script
# (set -e) before it can overwrite $out with partial numbers.
start_ns=$(date +%s%N)
/tmp/dsmbench.benchsh -all -size small -jobs 1 -progress=false -strict >/dev/null
end_ns=$(date +%s%N)
after=$(awk -v s="$start_ns" -v e="$end_ns" 'BEGIN {printf "%.1f", (e - s) / 1e9}')

echo "bench.sh: timing the interconnect sweep (-netsweep, -jobs 1)" >&2
ns_start_ns=$(date +%s%N)
/tmp/dsmbench.benchsh -netsweep -size small -jobs 1 -progress=false -strict >/dev/null
ns_end_ns=$(date +%s%N)
netsweep_after=$(awk -v s="$ns_start_ns" -v e="$ns_end_ns" 'BEGIN {printf "%.1f", (e - s) / 1e9}')

cpu=$(awk -F': ' '/model name/ {print $2; exit}' /proc/cpuinfo 2>/dev/null || true)
cpu=${cpu:-unknown}

{
    printf '{\n'
    printf '  "schema": "dsmbench-hotpath-bench/v3",\n'
    printf '  "date": "%s",\n' "$(date -u +%Y-%m-%d)"
    printf '  "goos": "%s",\n' "$(go env GOOS)"
    printf '  "goarch": "%s",\n' "$(go env GOARCH)"
    printf '  "cpu": "%s",\n' "$cpu"
    printf '  "note": "Tracked hot-path numbers; regenerate with scripts/bench.sh. BenchmarkYield ping-pongs two processors (one coroutine baton pass per op); BenchmarkHandoff is the same ping-pong pinned to GOMAXPROCS 1 and to NumCPU, whose ratio is the idle-P penalty (~1.0); BenchmarkYieldSlowPath is the same workload with fast paths disabled; BenchmarkYieldElided is a lone processor whose yields all elide. BenchmarkSharedReadRange covers 1024 elements per op, so its ns_per_element field (ns_per_op/1024) is the number comparable to element-at-a-time BenchmarkSharedAccess. BenchmarkParallelSweep runs one cross-node messaging workload on the sequential and the node-parallel engine. The sweep section times dsmbench -all -size small -jobs 1; before is the previous recording (or BEFORE_SECONDS). The netsweep section times the interconnect x node-count sweep (dsmbench -netsweep); both sweeps run under -strict so a failed cell aborts the script instead of recording partial numbers.",\n'
    printf '  "benchmarks": [\n'
    first=1
    while IFS=$'\t' read -r pkg name ns; do
        [ -n "$pkg" ] || continue
        [ $first -eq 1 ] || printf ',\n'
        first=0
        extra=""
        if [ "$name" = "BenchmarkSharedReadRange" ]; then
            extra=$(awk -v n="$ns" 'BEGIN {printf ", \"elements_per_op\": 1024, \"ns_per_element\": %.3f", n / 1024}')
        fi
        printf '    {"pkg": "%s", "name": "%s", "ns_per_op": %s%s}' "$pkg" "$name" "$ns" "$extra"
    done <<<"$bench_lines"
    printf '\n  ],\n'
    printf '  "sweep": {\n'
    printf '    "command": "dsmbench -all -size small -jobs 1 -strict",\n'
    printf '    "before_seconds": %s,\n' "$before"
    printf '    "after_seconds": %s,\n' "$after"
    awk -v b="$before" -v a="$after" 'BEGIN {
        pct = (b > 0) ? (b - a) / b * 100 : 0
        printf "    \"improvement_percent\": %.1f\n", pct
    }'
    printf '  },\n'
    printf '  "netsweep": {\n'
    printf '    "command": "dsmbench -netsweep -size small -jobs 1 -strict",\n'
    printf '    "interconnects": ["memchan", "rdma", "switched"],\n'
    printf '    "nodes": [8, 16, 32, 64],\n'
    printf '    "seconds": %s\n' "$netsweep_after"
    printf '  }\n'
    printf '}\n'
} >"$out"

echo "bench.sh: wrote $out (sweep ${before}s -> ${after}s)" >&2
