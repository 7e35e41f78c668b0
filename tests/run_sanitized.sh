#!/usr/bin/env bash
# Builds the whole tree with AddressSanitizer + UndefinedBehaviorSanitizer and
# runs the full test suite under them. Use before merging changes that touch
# the recovery paths (fault injection exercises a lot of error-path cleanup
# code that a normal run never reaches with leak checking enabled).
#
# A second ThreadSanitizer stage then rebuilds the targets that spawn real
# threads (worker pool, pipeline, campaigns) and runs them with
# HYPERTP_PARALLEL > 1 so the encode/decode fan-out actually races if it can.
#
# Usage: tests/run_sanitized.sh [build-dir]   (default: build-sanitized;
#        the TSan stage uses <build-dir>-tsan)

set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-${repo_root}/build-sanitized}"
tsan_dir="${build_dir}-tsan"

# GCC's -fsanitize=undefined leaves out float-cast-overflow: a double cast to
# an integer it cannot represent (an exponential gap drawn from a vanishing
# rate, say) would pass silently.
cmake -B "${build_dir}" -S "${repo_root}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DHYPERTP_SANITIZE="address;undefined;float-cast-overflow"
cmake --build "${build_dir}" -j "$(nproc)"

# halt_on_error so UBSan findings fail the suite instead of scrolling past.
export ASAN_OPTIONS="detect_leaks=1:strict_string_checks=1"
export UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1"

ctest --test-dir "${build_dir}" --output-on-failure -j "$(nproc)"

# ParsePram is the decoder every in-place boot runs, and it builds the
# scrubber's preservation list in the same walk: run its layout fuzz (round
# trip plus the differential check of that list) at 1 000 seeds, not ten.
HYPERTP_PRAM_FUZZ_SEEDS=1000 "${build_dir}/tests/pram_fuzz_test" --gtest_brief=1 \
  --gtest_filter='Seeds/PramFuzzTest.*'
# The resealed PRAM mutator (counts, chain pointers, entry type and order
# bits, name lengths, entry counts, single bits; each page's CRC recomputed)
# at 200 seeds, 12 800 cases, so the walk is checked past the page CRC.
HYPERTP_PRAM_FUZZ_SEEDS=200 "${build_dir}/tests/pram_fuzz_test" --gtest_brief=1 \
  --gtest_filter='PramFuzzTest.ResealedMutationsParseOrFail'
# Checkpoints arrive from outside the host: run the resealed-mutation fuzz
# (page count, UISR length prefix, version, truncations) at 200 seeds, over
# 10^4 cases, so every length the parser trusts is checked under ASan/UBSan.
HYPERTP_CHECKPOINT_FUZZ_SEEDS=200 "${build_dir}/tests/checkpoint_test" --gtest_brief=1
# UISR blobs cross the micro-reboot and arrive from migration peers: run the
# resealed section mutator (length fields, types, dropped, duplicated and
# swapped sections, payload bit flips, boundary truncations) at 200 seeds,
# 12 827 cases, so the section parser is checked under ASan/UBSan past the CRC.
HYPERTP_UISR_FUZZ_SEEDS=200 "${build_dir}/tests/uisr_test" --gtest_brief=1

# Smoke-run one bench with tracing enabled under the sanitizers: the Chrome
# trace / BENCH JSON export paths only execute in the bench binaries, so the
# test suite alone never covers them.
bench_out="$(mktemp -d)"
trap 'rm -rf "${bench_out}"' EXIT
HYPERTP_TRACE=1 HYPERTP_BENCH_DIR="${bench_out}" \
  "${build_dir}/bench/bench_fig6_breakdown" > /dev/null
for artifact in BENCH_fig6_breakdown.json TRACE_fig6_M1.json TRACE_fig6_M2.json; do
  test -s "${bench_out}/${artifact}" || { echo "missing ${artifact}" >&2; exit 1; }
done
# A traced mini-campaign: the sharded control plane exercises per-shard
# executors, the SLO governor and the exposure stream — error paths the unit
# tests reach only at small scale. The skewed-DC section runs rack
# work-stealing (DetachDomain/AdoptHosts re-homing with travelling RNG
# streams) and the adaptive epoch stride under the sanitizers too.
HYPERTP_BENCH_DIR="${bench_out}" \
  "${build_dir}/bench/bench_campaign" --smoke > /dev/null
test -s "${bench_out}/BENCH_campaign_smoke.json" \
  || { echo "missing BENCH_campaign_smoke.json" >&2; exit 1; }
# The fault-storm bench drives crash strikes, unplanned recoveries and the
# re-exposure path — cleanup-heavy branches (torn ledgers, lost hosts,
# recovery-retry exhaustion) the fault-free benches never reach.
HYPERTP_BENCH_DIR="${bench_out}" \
  "${build_dir}/bench/bench_fault_storm" --smoke > /dev/null
test -s "${bench_out}/BENCH_fault_storm_smoke.json" \
  || { echo "missing BENCH_fault_storm_smoke.json" >&2; exit 1; }
# The micro-primitives bench drives the zero-copy encode-to-PRAM path
# (PramFrameWriter + SpanWriter) and the sliced CRC against raw buffers —
# exactly the pointer arithmetic ASan/UBSan exist to check.
HYPERTP_BENCH_DIR="${bench_out}" \
  "${build_dir}/bench/bench_micro_primitives" --smoke > /dev/null
test -s "${bench_out}/BENCH_micro_primitives.json" \
  || { echo "missing BENCH_micro_primitives.json" >&2; exit 1; }
# The adaptive-year bench runs the fixed-vs-adaptive mechanism-policy replay
# through the event-driven fleet path — per-host plans, refusal bookkeeping
# and the policy JSON/metrics surfaces the fault-free unit tests cover only
# at toy scale.
HYPERTP_BENCH_DIR="${bench_out}" \
  "${build_dir}/bench/bench_operational_year" --smoke > /dev/null
test -s "${bench_out}/BENCH_operational_year_smoke.json" \
  || { echo "missing BENCH_operational_year_smoke.json" >&2; exit 1; }
echo "sanitized bench smoke-run OK (${bench_out})"

# --- ThreadSanitizer stage -------------------------------------------------
# TSan is incompatible with ASan, so it needs its own build tree. Only the
# worker-pool and pipeline targets spawn real threads; building just those
# keeps the stage cheap. HYPERTP_PARALLEL=4 makes the threaded encode/decode
# paths run multi-threaded even where a test defaults to serial.
cmake -B "${tsan_dir}" -S "${repo_root}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DHYPERTP_SANITIZE=thread
cmake --build "${tsan_dir}" -j "$(nproc)" \
  --target worker_pool_test pipeline_test pretranslate_test core_test campaign_test \
  fault_storm_test policy_test emission_golden_test bench_pipeline_scaling

export TSAN_OPTIONS="halt_on_error=1"
HYPERTP_PARALLEL=4 "${tsan_dir}/tests/worker_pool_test"
# pipeline_test includes the batched zero-copy encode (EncodeVmStatesIntoPram)
# parity test at 4 threads: each worker encodes into its own pre-mapped PRAM
# frame span, so TSan proves the spans really are disjoint.
HYPERTP_PARALLEL=4 "${tsan_dir}/tests/pipeline_test"
# Pre-translation runs Extract+UisrEncode on the real worker pool while the
# transplant bookkeeping continues on the caller thread — race it too.
HYPERTP_PARALLEL=4 "${tsan_dir}/tests/pretranslate_test"
# Whole InPlaceTP runs: the pool-side pre-translation encode fills kUisr
# extents the caller thread allocated, and the restore-side decode fans out after the
# reboot — race both inside real transplants, not just the pipeline units.
HYPERTP_PARALLEL=4 "${tsan_dir}/tests/core_test"
# Campaigns run one shard per worker-pool task between barriers; TSan with
# real threads proves the byte-identical-across-thread-counts contract holds
# because the shards genuinely share no mutable state mid-epoch. The steal
# byte-identity tests race the coordinator-side rack re-homing (detach on the
# donor shard, adopt on the thief) against the per-shard epoch tasks.
HYPERTP_PARALLEL=4 "${tsan_dir}/tests/campaign_test"
# Fault storms add crash/recovery traffic inside each shard's epoch slice —
# the storm RNG, recovery queue and exposure re-feeds must all stay
# shard-private for the determinism contract to survive real threads.
HYPERTP_PARALLEL=4 "${tsan_dir}/tests/fault_storm_test"
# Policy decisions are pure functions consumed by campaign shards on real
# threads; campaign_test's adaptive byte-identity tests race them above, and
# policy_test pins the decision table itself under TSan's instrumented build.
HYPERTP_PARALLEL=4 "${tsan_dir}/tests/policy_test"
# The emission pins run every campaign case at 1 and 4 real threads, so the
# counters, spans and exposure writes are raced while their bytes are checked.
HYPERTP_PARALLEL=4 "${tsan_dir}/tests/emission_golden_test"
HYPERTP_PARALLEL=4 HYPERTP_TRACE=1 HYPERTP_BENCH_DIR="${bench_out}" \
  "${tsan_dir}/bench/bench_pipeline_scaling" > /dev/null
test -s "${bench_out}/BENCH_pipeline_scaling.json" \
  || { echo "missing BENCH_pipeline_scaling.json" >&2; exit 1; }
echo "tsan stage OK (${tsan_dir})"
