// Plumbing shared by the benchmark program: command-line options, the wall
// clock, quantiles, the metric set a run prints, and the wall-clock span
// recorder behind --trace.

#ifndef HYPERTP_BENCHMARK_HARNESS_H_
#define HYPERTP_BENCHMARK_HARNESS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/result.h"
#include "src/obs/trace.h"

namespace hypertp::perf {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string out_dir = ".";
};

// --workload W --seed N --seconds S --trace 0|1 [--smoke] [--out DIR].
// Unknown flags and malformed values are errors.
Result<Options> ParseOptions(int argc, char** argv);

// Monotonic wall clock in milliseconds since the first call.
double NowMs();

// Linear-interpolated quantile of `values` (q in [0, 1]); 0 when empty.
double Quantile(std::vector<double> values, double q);

// Peak resident set size of this process, in bytes.
double PeakRssBytes();

// Calls `fn` back to back until at least `min_ms` of wall time has passed
// (and at least once); returns the mean milliseconds per call. Used for
// layer calls too short to time one at a time.
template <typename Fn>
double MeanCallMs(double min_ms, Fn&& fn) {
  const double start = NowMs();
  int64_t calls = 0;
  double elapsed = 0.0;
  do {
    fn();
    ++calls;
    elapsed = NowMs() - start;
  } while (elapsed < min_ms);
  return elapsed / static_cast<double>(calls);
}

// How compare.py treats a metric. kGated: host-time end-to-end metric with a
// bound in BENCHMARK.json. kExact: simulated-time result or failure share,
// which must match exactly for the same seed. kInfo: printed, not compared.
// kLayer: per-layer metric of the --trace run.
enum class MetricKind : uint8_t { kGated, kExact, kInfo, kLayer };

std::string_view MetricKindName(MetricKind kind);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  MetricKind kind = MetricKind::kInfo;
};

// Metrics in insertion order; setting a name twice overwrites it.
class MetricSet {
 public:
  void Set(std::string_view name, double value, std::string_view unit,
           MetricKind kind = MetricKind::kLayer);
  const std::vector<Metric>& all() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

// Wall-clock spans recorded from the benchmark's own code around each call
// into a layer. Spans live on an obs::Tracer whose timeline is wall
// nanoseconds since the first NowMs() call, stay in memory, and are written
// once as Chrome trace JSON. Every span carries the id of the iteration it
// belongs to. Disabled, it records nothing but still times.
class WallTrace {
 public:
  explicit WallTrace(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  SpanId Begin(std::string_view name, SpanId parent, int64_t iteration);
  void End(SpanId id);

  // Runs `fn` as one span, adds its wall milliseconds to `*ms` and returns
  // what `fn` returns.
  template <typename Fn>
  decltype(auto) Time(std::string_view name, SpanId parent, int64_t iteration, double* ms,
                      Fn&& fn) {
    struct Closer {
      WallTrace* trace;
      SpanId id;
      double start;
      double* ms;
      ~Closer() {
        *ms += NowMs() - start;
        trace->End(id);
      }
    } closer{this, Begin(name, parent, iteration), NowMs(), ms};
    return fn();
  }

  std::string ToChromeJson() const { return tracer_.ToChromeTraceJson(); }

 private:
  bool enabled_;
  Tracer tracer_;
};

}  // namespace hypertp::perf

#endif  // HYPERTP_BENCHMARK_HARNESS_H_
