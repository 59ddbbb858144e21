#!/usr/bin/env bash
# Two-second perfbench smoke of one workload, run by CI's perfbench job:
#
#   1. the run must report "failed":0 and oracle_mismatches 0 (the sweep's
#      oracle is not strict inside the frozen benchmark, so its mismatches
#      are required to be zero here, by name);
#   2. its results_sha256 and sim_ms_total must equal the workload's pins in
#      scripts/perfbench_pins.txt, so "every simulated byte identical" is
#      checked, not claimed.
#
# Usage: scripts/perfbench_smoke.sh <workload>
set -euo pipefail
cd "$(dirname "$0")/.."

w=${1:?usage: scripts/perfbench_smoke.sh <workload>}
pin=$(awk -v w="$w" '$1 == w { print $2, $3 }' scripts/perfbench_pins.txt)
if [ -z "$pin" ]; then
    echo "no pin for workload $w in scripts/perfbench_pins.txt" >&2
    exit 1
fi

status=0
out=$(bash perfbench/run.sh --workload "$w" --seconds 2 --trace 0) || status=$?
echo "$out"
[ "$status" -eq 0 ] || exit "$status"
got="$(sed -n 's/^results_sha256 //p' <<<"$out") $(sed -n 's/^sim_ms_total //p' <<<"$out")"

tail -n 1 <<<"$out" | grep -q '"failed":0,' || { echo "$w: failed runs" >&2; exit 1; }
grep -Eq '^runs_attempted [0-9]+ failed_runs 0 oracle_mismatches 0$' <<<"$out" ||
    { echo "$w: oracle mismatches" >&2; exit 1; }
if [ "$got" != "$pin" ]; then
    echo "$w: results_sha256 sim_ms_total = $got, pinned $pin" >&2
    echo "(a deliberate model change re-pins scripts/perfbench_pins.txt with the goldens)" >&2
    exit 1
fi
echo "$w: matches its pin"
