#!/usr/bin/env bash
# Lists the functions under internal/ that no real run executes. The traffic
# is what users, CI and the benchmark run:
#
#   dsmbench -all -size small        the pinned 430-spec small sweep, with
#                                    the JSON document its sha256 pins
#   dsmbench -netsweep -size small   the interconnect x node-count sweep
#   dsmrun                           both pinned report layouts
#   go test ./internal/check         the litmus sweep, FuzzSchedule's seed
#                                    corpus and the injected-fault self-test
#   perfbench                        one traced pass of every workload
#
# Every binary is built with -cover over internal/ and its own main package
# (without the main package it writes no counters), and the check tests run
# with -cover over internal/, so each run adds its counters to one
# GOCOVERDIR, and the merged profile's internal/ functions at
# 0.0 % are printed. A printed function is either deleted or kept for a reason
# DESIGN.md §7a records. It is not a CI gate: error paths and the
# SIM_NO_FASTPATH reference path are expected in the list.
#
# Usage: scripts/deadcode.sh        (about a minute on two cores)
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
for c in dsmbench dsmrun; do
    go build -cover -coverpkg="./internal/...,./cmd/$c" -o "$tmp/$c" "./cmd/$c"
done
(cd perfbench && GOFLAGS=-mod=mod GOWORK=off go build -cover -coverpkg=repro/internal/...,repro/perfbench -o "$tmp/perfbench" .)

export GOCOVERDIR="$tmp/cov"
mkdir -p "$GOCOVERDIR"
"$tmp/dsmbench" -all -size small -progress=false -json -json-out "$tmp/small.json" >/dev/null
"$tmp/dsmbench" -netsweep -size small -progress=false >/dev/null
"$tmp/dsmrun" -app SOR -size small -procs 8 -variant csm_poll >/dev/null
"$tmp/dsmrun" -app SOR -size small -procs 8 -variant csm_poll,tmk_mc_poll >/dev/null
go test -count=1 -cover -coverpkg=./internal/... ./internal/check -args -test.gocoverdir="$GOCOVERDIR" >/dev/null
for w in access_path sync_storm protocol_mix sweep_parallel; do
    "$tmp/perfbench" -workload "$w" -seconds 0 -trace 1 >/dev/null
done

go tool covdata textfmt -i="$GOCOVERDIR" -pkg=repro/internal/... -o "$tmp/profile.txt"
go tool cover -func="$tmp/profile.txt" | awk '$NF == "0.0%" { sub(/^repro\//, "", $1); print $1, $2 }'
