#include "src/campaign/delta_merge.h"

#include <algorithm>

namespace hypertp {

void ShardDeltaMerger::AddRun(int shard, std::span<const ExposureDelta> deltas) {
  if (bounds_.empty()) {
    merged_.clear();
    bounds_.push_back(0);
  }
  for (const ExposureDelta& delta : deltas) {
    if (delta.hosts != 0) {
      merged_.push_back(ShardDelta{delta.time, shard, delta.hosts});
    }
  }
  if (merged_.size() > bounds_.back()) {
    bounds_.push_back(merged_.size());
  }
}

const std::vector<ShardDelta>& ShardDeltaMerger::Merge() {
  if (bounds_.empty()) {
    merged_.clear();
    return merged_;
  }
  // Each round merges runs 2k and 2k + 1. On equal times std::merge takes
  // the left run's element first, and every left run holds lower shard ids
  // than its right neighbour: that is the shard-id tie-break.
  const auto earlier = [](const ShardDelta& a, const ShardDelta& b) { return a.time < b.time; };
  while (bounds_.size() > 2) {
    scratch_.resize(merged_.size());
    next_bounds_.assign(1, 0);
    size_t r = 0;
    for (; r + 2 < bounds_.size(); r += 2) {
      const auto first = merged_.begin();
      std::merge(first + static_cast<std::ptrdiff_t>(bounds_[r]),
                 first + static_cast<std::ptrdiff_t>(bounds_[r + 1]),
                 first + static_cast<std::ptrdiff_t>(bounds_[r + 1]),
                 first + static_cast<std::ptrdiff_t>(bounds_[r + 2]),
                 scratch_.begin() + static_cast<std::ptrdiff_t>(bounds_[r]), earlier);
      next_bounds_.push_back(bounds_[r + 2]);
    }
    if (r + 1 < bounds_.size()) {  // An odd run out carries over as it is.
      std::copy(merged_.begin() + static_cast<std::ptrdiff_t>(bounds_[r]),
                merged_.begin() + static_cast<std::ptrdiff_t>(bounds_[r + 1]),
                scratch_.begin() + static_cast<std::ptrdiff_t>(bounds_[r]));
      next_bounds_.push_back(bounds_[r + 1]);
    }
    merged_.swap(scratch_);
    bounds_.swap(next_bounds_);
  }
  bounds_.clear();
  return merged_;
}

}  // namespace hypertp
