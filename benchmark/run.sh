#!/usr/bin/env bash
# Builds the benchmark and runs it, one workload per process.
#
#   benchmark/run.sh [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--smoke]
#
# Run from the repository root. Without --workload every workload runs in
# turn. --trace alone means --trace 1. The build lives in
# $CARGO_TARGET_DIR/cmake (default .bench_build/cmake), results and
# TRACE_<workload>.json files in $CARGO_TARGET_DIR/results. Each run prints
# "workload metric value unit" lines and, last, one JSON object with the
# fields correct, attempted, failed and metrics. The exit code is nonzero
# when a build step, an iteration or a correctness check fails.
set -euo pipefail

workloads=(campaign_1m_adaptive campaign_skew_steal fault_storm host_transplant)
workload=""
seed=1
seconds=10
trace=0
smoke=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace)
      if [[ $# -gt 1 && ( "$2" == 0 || "$2" == 1 ) ]]; then
        trace="$2"; shift 2
      else
        trace=1; shift
      fi ;;
    --smoke) smoke=(--smoke); shift ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done

root="${CARGO_TARGET_DIR:-.bench_build}"
build="$root/cmake"
results="$root/results"
mkdir -p "$build" "$results"
if [[ ! -f "$build/Makefile" ]]; then
  cmake -S benchmark -B "$build" -G "Unix Makefiles" -DCMAKE_BUILD_TYPE=RelWithDebInfo >&2
fi
cmake --build "$build" --target hypertp_bench -j 4 >&2

if [[ -n "$workload" ]]; then
  workloads=("$workload")
fi
status=0
for w in "${workloads[@]}"; do
  "$build/hypertp_bench" --workload "$w" --seed "$seed" --seconds "$seconds" \
    --trace "$trace" --out "$results" "${smoke[@]}" || status=1
done
exit "$status"
