#include "benchmark/harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstring>

namespace hypertp::perf {
namespace {

std::chrono::steady_clock::time_point Epoch() {
  static const std::chrono::steady_clock::time_point epoch = std::chrono::steady_clock::now();
  return epoch;
}

SimTime NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                              Epoch())
      .count();
}

template <typename T>
Result<T> ParseNumber(std::string_view flag, std::string_view text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) {
    return InvalidArgumentError(std::string(flag) + ": malformed value '" + std::string(text) +
                                "'");
  }
  return value;
}

}  // namespace

Result<Options> ParseOptions(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (flag == "--smoke") {
      options.smoke = true;
      continue;
    }
    if (i + 1 >= argc) {
      return InvalidArgumentError(std::string(flag) + ": missing value");
    }
    const std::string_view value = argv[++i];
    if (flag == "--workload") {
      options.workload = std::string(value);
    } else if (flag == "--seed") {
      HYPERTP_ASSIGN_OR_RETURN(options.seed, ParseNumber<uint64_t>(flag, value));
    } else if (flag == "--seconds") {
      HYPERTP_ASSIGN_OR_RETURN(options.seconds, ParseNumber<double>(flag, value));
      if (!(options.seconds > 0.0 && options.seconds <= 600.0)) {
        return InvalidArgumentError("--seconds must be in (0, 600]");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        return InvalidArgumentError("--trace takes 0 or 1");
      }
      options.trace = value == "1";
    } else if (flag == "--out") {
      options.out_dir = std::string(value);
    } else {
      return InvalidArgumentError("unknown flag " + std::string(flag));
    }
  }
  if (options.workload.empty()) {
    return InvalidArgumentError("--workload is required");
  }
  return options;
}

double NowMs() { return static_cast<double>(NowNs()) / 1e6; }

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double PeakRssBytes() {
  // VmHWM is this address space's high-water mark. getrusage's ru_maxrss
  // would do, except that Linux carries it across execve, so it can report
  // the launching shell's footprint instead of ours.
  if (std::FILE* status = std::fopen("/proc/self/status", "r"); status != nullptr) {
    char line[256];
    long kib = -1;
    while (std::fgets(line, sizeof(line), status) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) {
        break;
      }
    }
    std::fclose(status);
    if (kib >= 0) {
      return static_cast<double>(kib) * 1024.0;
    }
  }
  rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0;  // Linux reports KiB.
}

std::string_view MetricKindName(MetricKind kind) {
  switch (kind) {
    case MetricKind::kGated:
      return "gated";
    case MetricKind::kExact:
      return "exact";
    case MetricKind::kInfo:
      return "info";
    case MetricKind::kLayer:
      return "layer";
  }
  return "info";
}

void MetricSet::Set(std::string_view name, double value, std::string_view unit,
                    MetricKind kind) {
  for (Metric& metric : metrics_) {
    if (metric.name == name) {
      metric.value = value;
      metric.unit = std::string(unit);
      metric.kind = kind;
      return;
    }
  }
  metrics_.push_back(Metric{std::string(name), value, std::string(unit), kind});
}

SpanId WallTrace::Begin(std::string_view name, SpanId parent, int64_t iteration) {
  if (!enabled_) {
    return 0;
  }
  const SpanId id = tracer_.BeginSpan(name, NowNs(), parent, "benchmark");
  tracer_.SetAttribute(id, "iteration", iteration);
  return id;
}

void WallTrace::End(SpanId id) {
  if (enabled_) {
    tracer_.EndSpan(id, NowNs());
  }
}

}  // namespace hypertp::perf
