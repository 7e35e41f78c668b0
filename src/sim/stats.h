// Sample statistics used by the benchmark harness to report results the way
// the paper does: averages when deviation is low, box plots otherwise.

#ifndef HYPERTP_SRC_SIM_STATS_H_
#define HYPERTP_SRC_SIM_STATS_H_

#include <cstddef>
#include <string>
#include <vector>

namespace hypertp {

// Five-number summary for box plots (Fig. 8/9 style reporting).
struct BoxplotSummary {
  double min = 0.0;
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
  double max = 0.0;
  size_t count = 0;

  std::string ToString() const;
};

// Holds raw samples; computes percentiles and box plots.
class SampleSet {
 public:
  void Add(double x) {
    samples_.push_back(x);
    sorted_valid_ = false;
  }
  void Reserve(size_t n) { samples_.reserve(n); }

  size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }
  double mean() const;
  double stddev() const;
  double min() const;
  double max() const;
  // p in [0, 100]; linear interpolation between closest ranks.
  double Percentile(double p) const;
  BoxplotSummary Boxplot() const;

  const std::vector<double>& samples() const { return samples_; }

 private:
  // Sorted view, built lazily on the first Percentile/Boxplot after an Add.
  // Percentile used to copy + sort per call — quadratic when a report asks
  // for several percentiles of a large set.
  const std::vector<double>& Sorted() const;

  std::vector<double> samples_;
  mutable std::vector<double> sorted_;
  mutable bool sorted_valid_ = false;
};

}  // namespace hypertp

#endif  // HYPERTP_SRC_SIM_STATS_H_
