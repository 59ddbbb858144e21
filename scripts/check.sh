#!/usr/bin/env bash
# Schedule-space exploration smoke, run by CI's dsmcheck job next to lint.sh:
#
#   1. the dsmcheck sweep — the memory-model litmus suite (MP/SB/LB/IRIW,
#      with and without acquire/release sync) and the fuzz-corpus
#      differential checker, all six protocol variants, fixed seeds so the
#      run is reproducible;
#   2. the self-test — arms the injected TreadMarks diff-loss bug
#      (treadmarks.Config.TestDropDiffRuns) and verifies the harness catches
#      it and shrinks the failure to <= 2 rounds on <= 2 processors.
#
# On a sweep failure the minimized repro lands in dsmcheck_repro.json (CI
# uploads it as an artifact); replay it with `dsmcheck -replay`.
set -euo pipefail
cd "$(dirname "$0")/.."

schedules=${DSMCHECK_SCHEDULES:-200}
diff_schedules=${DSMCHECK_DIFF_SCHEDULES:-25}
seed=${DSMCHECK_SEED:-1}
repro=${DSMCHECK_REPRO:-dsmcheck_repro.json}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/dsmcheck" ./cmd/dsmcheck

echo "== dsmcheck sweep (schedules $schedules, diff $diff_schedules, seed $seed) =="
"$tmp/dsmcheck" -schedules "$schedules" -diff-schedules "$diff_schedules" \
    -seed "$seed" -repro "$repro"

echo "== dsmcheck selftest (injected diff-loss bug) =="
"$tmp/dsmcheck" -selftest -diff-schedules "$diff_schedules" \
    -repro /tmp/dsmcheck_selftest_repro.json

echo "check OK"
