#!/usr/bin/env bash
# Sanitizer gate for the benchmark: builds this directory's CMake project
# (simulator libraries included) under ASan+UBSan and under TSan, then runs
# every workload at --smoke size, untraced and traced. Every untraced run
# also replays its inputs at a second thread count, so each workload runs
# on 4 real threads at least once under TSan. Any sanitizer report, failed
# check or nonzero exit fails the script.
#
#   benchmark/check.sh            # from the repository root
set -euo pipefail

root="${CARGO_TARGET_DIR:-.bench_build}"
workloads=(campaign_1m_adaptive campaign_skew_steal fault_storm host_transplant)
export ASAN_OPTIONS="halt_on_error=1:abort_on_error=1"
export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"
export TSAN_OPTIONS="halt_on_error=1"

for sanitizer in "address,undefined" "thread"; do
  build="$root/check-${sanitizer//,/-}"
  results="$build/results"
  flags=""
  if [[ "$sanitizer" == *undefined* ]]; then
    flags="-fno-sanitize-recover=undefined"
  fi
  mkdir -p "$results"
  cmake -S benchmark -B "$build" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DBENCH_SANITIZE="$sanitizer" -DCMAKE_CXX_FLAGS="$flags" >&2
  cmake --build "$build" --target hypertp_bench -j 4 >&2
  for w in "${workloads[@]}"; do
    for trace in 0 1; do
      echo "== $sanitizer: $w --trace $trace" >&2
      "$build/hypertp_bench" --workload "$w" --seed 1 --seconds 1 --trace "$trace" \
        --smoke --out "$results" | tail -n 1
    done
  done
done
echo "check.sh: all smoke runs clean under ASan+UBSan and TSan" >&2
