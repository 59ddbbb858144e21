#!/usr/bin/env bash
# Regenerates every file under results/ from the dsmbench CLI, so the
# committed outputs are what the code at this commit produces and nothing
# else (they had drifted: tables edited by hand-run subsets, a JSON file whose
# spec keys predated a key change). Run it in any change that moves a
# simulated number, then re-splice the tables into EXPERIMENTS.md:
#
#   table1.txt table2.txt fig5_<App>.txt fig6.txt table3.txt ablations.txt
#       the paper's evaluation at -size default, one section per file;
#   netsweep_small.{txt,json}
#       the interconnect x node-count sweep at -size small;
#   dsmbench_small_subset.json
#       the machine-readable result set results_test.go consumes.
#
# Every invocation shares one throwaway -cache-dir, so a spec that several
# sections name (the sequential baselines, Figure 6's and Table 3's 32-processor
# cells) is simulated once. About four minutes on two cores.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/dsmbench" ./cmd/dsmbench
run() { "$tmp/dsmbench" -cache-dir "$tmp/cache" -progress=false "$@"; }

run -costs -table1 >results/table1.txt
run -table2 >results/table2.txt
for app in SOR LU Water TSP Gauss Ilink Em3d Barnes; do
    run -fig5 -apps "$app" >"results/fig5_$app.txt"
done
run -fig6 >results/fig6.txt
run -table3 >results/table3.txt
run -ablations >results/ablations.txt
run -netsweep -size small -json -json-out results/netsweep_small.json >results/netsweep_small.txt
run -all -size small -apps SOR,Water -procs 1,4,8 -json -json-out results/dsmbench_small_subset.json >/dev/null

echo "results/ regenerated"
