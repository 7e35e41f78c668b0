#include "src/sim/stats.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>

namespace hypertp {

std::string BoxplotSummary::ToString() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "min=%.3f q1=%.3f med=%.3f q3=%.3f max=%.3f (n=%zu)", min, q1,
                median, q3, max, count);
  return buf;
}

double SampleSet::mean() const {
  if (samples_.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (double s : samples_) {
    sum += s;
  }
  return sum / static_cast<double>(samples_.size());
}

double SampleSet::stddev() const {
  if (samples_.size() < 2) {
    return 0.0;
  }
  const double m = mean();
  double m2 = 0.0;
  for (double s : samples_) {
    m2 += (s - m) * (s - m);
  }
  return std::sqrt(m2 / static_cast<double>(samples_.size() - 1));
}

double SampleSet::min() const {
  return samples_.empty() ? 0.0 : *std::min_element(samples_.begin(), samples_.end());
}

double SampleSet::max() const {
  return samples_.empty() ? 0.0 : *std::max_element(samples_.begin(), samples_.end());
}

const std::vector<double>& SampleSet::Sorted() const {
  if (!sorted_valid_) {
    sorted_ = samples_;
    std::sort(sorted_.begin(), sorted_.end());
    sorted_valid_ = true;
  }
  return sorted_;
}

double SampleSet::Percentile(double p) const {
  assert(p >= 0.0 && p <= 100.0);
  if (samples_.empty()) {
    return 0.0;
  }
  const std::vector<double>& sorted = Sorted();
  if (sorted.size() == 1) {
    return sorted[0];
  }
  const double rank = (p / 100.0) * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

BoxplotSummary SampleSet::Boxplot() const {
  BoxplotSummary box;
  box.count = samples_.size();
  if (samples_.empty()) {
    return box;
  }
  box.min = min();
  box.q1 = Percentile(25.0);
  box.median = Percentile(50.0);
  box.q3 = Percentile(75.0);
  box.max = max();
  return box;
}

}  // namespace hypertp
