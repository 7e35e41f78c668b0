// The benchmark program: one workload per process, closed loop, one client.
//
//   hypertp_bench --workload W --seed N --seconds S --trace 0|1 [--smoke]
//                 [--out DIR]
//
// Untraced (--trace 0): warm up, then run setup + timed call + checks back
// to back for S seconds and report the end-to-end metrics, followed by a
// replica at another real-thread count that must reproduce the first
// iteration's bytes.
// Traced (--trace 1): alternate plain and instrumented iterations for S
// seconds (their p50 ratio is the tracing overhead), then run the per-layer
// ladder, and write TRACE_<workload>.json.
//
// Every metric prints as "workload metric value unit"; the results land in
// <out>/<workload>-seed<N>[-smoke][-trace].json; the last stdout line is one JSON
// object {"correct","attempted","failed","metrics"} holding the gated
// end-to-end metrics (untraced) or the per-layer metrics (traced).

#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "benchmark/harness.h"
#include "benchmark/workloads.h"

namespace hypertp::perf {
namespace {

// Warm-up: at least this many iterations and this much wall time, so lazy
// allocations and caches settle before anything is timed.
constexpr int kWarmupIterations = 2;
constexpr double kWarmupMs = 1000.0;
// Fewest timed iterations per side, whatever --seconds says.
constexpr int kMinTimed = 5;
constexpr int kMinTracedPerSide = 3;

struct Tally {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::string first_error;

  void Fail(const std::string& what) {
    ++failed;
    if (first_error.empty()) {
      first_error = what;
    }
  }
};

struct IterationTimes {
  double setup_ms = 0.0;
  double run_ms = 0.0;
};

// One closed-loop iteration: setup, the timed call, then the checks.
IterationTimes Iterate(Workload& workload, bool instrumented, WallTrace& trace, int64_t id,
                       Tally& tally) {
  IterationTimes times;
  double check_ms = 0.0;
  ++tally.attempted;
  const SpanId span = trace.Begin("iteration", 0, id);
  Result<void> status =
      trace.Time("setup", span, id, &times.setup_ms, [&] { return workload.Setup(); });
  if (status.ok()) {
    status = trace.Time("run", span, id, &times.run_ms,
                        [&] { return workload.Run(instrumented); });
  }
  if (status.ok()) {
    status = trace.Time("check", span, id, &check_ms, [&] { return workload.Check(); });
  }
  trace.End(span);
  if (!status.ok()) {
    tally.Fail(status.error().ToString());
  }
  return times;
}

bool WriteFile(const std::string& path, const std::string& contents) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  const bool ok = std::fwrite(contents.data(), 1, contents.size(), f) == contents.size();
  return std::fclose(f) == 0 && ok;
}

// JSON number with every significant digit (JsonWriter rounds to 6).
std::string Number(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string MetricsJson(const MetricSet& metrics, const MetricKind* only) {
  std::string json = "{";
  for (const Metric& m : metrics.all()) {
    if (only != nullptr && m.kind != *only) {
      continue;
    }
    if (json.size() > 1) {
      json += ", ";
    }
    json += "\"" + m.name + "\": {\"value\": " + Number(m.value) + ", \"unit\": \"" + m.unit + "\"";
    if (only == nullptr) {
      json += ", \"kind\": \"" + std::string(MetricKindName(m.kind)) + "\"";
    }
    json += "}";
  }
  return json + "}";
}

int Main(const Options& options) {
  std::unique_ptr<Workload> workload = options.workload == "host_transplant"
                                           ? MakeHostWorkload(options)
                                           : MakeCampaignWorkload(options.workload, options);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
    return 2;
  }
  WallTrace trace(options.trace);
  WallTrace untraced(false);
  Tally tally;
  MetricSet metrics;
  int64_t id = 0;

  const double warmup_start = NowMs();
  for (int i = 0; i < kWarmupIterations || NowMs() - warmup_start < kWarmupMs; ++i) {
    Iterate(*workload, false, untraced, id++, tally);
  }

  std::vector<double> setup_ms;
  std::vector<double> plain_ms;
  std::vector<double> traced_ms;
  const double start = NowMs();
  if (!options.trace) {
    while (NowMs() - start < options.seconds * 1e3 ||
           static_cast<int>(plain_ms.size()) < kMinTimed) {
      const IterationTimes t = Iterate(*workload, false, untraced, id++, tally);
      setup_ms.push_back(t.setup_ms);
      plain_ms.push_back(t.run_ms);
    }
    // Every iteration does identical work, so the fastest one is the code's
    // cost with the least interference from the shared machine; the median
    // drifts with neighbours' load (README.md, "Why the gate is the minimum").
    const double best = Quantile(plain_ms, 0.0);
    metrics.Set("wall_min_ms", best, "ms", MetricKind::kGated);
    metrics.Set("work_per_s", workload->vms() / (best / 1e3), "VMs/s", MetricKind::kGated);
    metrics.Set("peak_rss_mb", PeakRssBytes() / (1024.0 * 1024.0), "MB", MetricKind::kGated);
    metrics.Set("setup_s", Quantile(setup_ms, 0.5) / 1e3, "s", MetricKind::kGated);
    metrics.Set("wall_p50_ms", Quantile(plain_ms, 0.5), "ms", MetricKind::kInfo);
    metrics.Set("wall_p90_ms", Quantile(plain_ms, 0.9), "ms", MetricKind::kInfo);
    metrics.Set("wall_samples", static_cast<double>(plain_ms.size()), "count", MetricKind::kInfo);
    workload->SimMetrics(metrics);
    ++tally.attempted;
    if (Result<void> replica = workload->CheckReplica(); !replica.ok()) {
      tally.Fail(replica.error().ToString());
    }
  } else {
    while (NowMs() - start < options.seconds * 1e3 ||
           static_cast<int>(traced_ms.size()) < kMinTracedPerSide) {
      plain_ms.push_back(Iterate(*workload, false, untraced, id++, tally).run_ms);
      traced_ms.push_back(Iterate(*workload, true, trace, id++, tally).run_ms);
    }
    const double plain_p50 = Quantile(plain_ms, 0.5);
    const double traced_p50 = Quantile(traced_ms, 0.5);
    metrics.Set("untraced_wall_p50_ms", plain_p50, "ms", MetricKind::kInfo);
    metrics.Set("traced_wall_p50_ms", traced_p50, "ms", MetricKind::kInfo);
    LadderEnv env;
    env.seed = options.seed;
    env.threads = workload->threads();
    env.smoke = options.smoke;
    env.trace = &trace;
    env.iteration = id++;
    env.peak_rss_bytes = PeakRssBytes();
    env.parent = trace.Begin("ladder", 0, env.iteration);
    ++tally.attempted;
    if (Result<void> ladder = workload->Ladder(env, metrics); !ladder.ok()) {
      tally.Fail("ladder: " + ladder.error().ToString());
    }
    trace.End(env.parent);
    metrics.Set("obs.trace_overhead_frac", traced_p50 / plain_p50 - 1.0, "fraction");
  }
  metrics.Set("failed_ops_frac",
              static_cast<double>(tally.failed) / static_cast<double>(tally.attempted), "fraction",
              MetricKind::kExact);

  for (const Metric& m : metrics.all()) {
    std::printf("%s %s %.17g %s\n", options.workload.c_str(), m.name.c_str(), m.value,
                m.unit.c_str());
  }
  const bool correct = tally.failed == 0;
  if (!correct) {
    std::fprintf(stderr, "%s: %" PRId64 " of %" PRId64 " iterations failed; first: %s\n",
                 options.workload.c_str(), tally.failed, tally.attempted,
                 tally.first_error.c_str());
  }

  const std::string stem = options.out_dir + "/" + options.workload + "-seed" +
                           std::to_string(options.seed) + (options.smoke ? "-smoke" : "") +
                           (options.trace ? "-trace" : "");
  const std::string results =
      "{\"workload\": \"" + options.workload + "\", \"seed\": " + std::to_string(options.seed) +
      ", \"trace\": " + (options.trace ? "true" : "false") +
      ", \"smoke\": " + (options.smoke ? "true" : "false") +
      ", \"seconds\": " + Number(options.seconds) + ", \"threads\": " +
      std::to_string(workload->threads()) + ", \"correct\": " + (correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(tally.attempted) +
      ", \"failed\": " + std::to_string(tally.failed) + ", \"metrics\": " +
      MetricsJson(metrics, nullptr) + "}\n";
  bool written = WriteFile(stem + ".json", results);
  if (options.trace) {
    written &= WriteFile(options.out_dir + "/TRACE_" + options.workload + ".json",
                         trace.ToChromeJson());
  }

  const MetricKind reported = options.trace ? MetricKind::kLayer : MetricKind::kGated;
  std::printf("{\"correct\": %s, \"attempted\": %" PRId64 ", \"failed\": %" PRId64
              ", \"metrics\": %s}\n",
              correct ? "true" : "false", tally.attempted, tally.failed,
              MetricsJson(metrics, &reported).c_str());
  std::fflush(stdout);
  return correct && written ? 0 : 1;
}

}  // namespace
}  // namespace hypertp::perf

int main(int argc, char** argv) {
  hypertp::Result<hypertp::perf::Options> options = hypertp::perf::ParseOptions(argc, argv);
  if (!options.ok()) {
    std::fprintf(stderr, "%s\n", options.error().ToString().c_str());
    return 2;
  }
  return hypertp::perf::Main(*options);
}
