// The campaign barrier's exposure merge: every shard's exposure changes since
// the last barrier, fed to the campaign's ExposureStream in (time, shard)
// order so the curve is identical for any thread count.

#ifndef HYPERTP_SRC_CAMPAIGN_DELTA_MERGE_H_
#define HYPERTP_SRC_CAMPAIGN_DELTA_MERGE_H_

#include <cstddef>
#include <span>
#include <vector>

#include "src/fleet/fleet_controller.h"
#include "src/sim/time.h"

namespace hypertp {

// One exposure change of one shard.
struct ShardDelta {
  SimTime time = 0;
  int shard = 0;
  int hosts = 0;
};

// Merges per-shard runs of exposure changes. Each shard's changes arrive
// strictly ascending in time (FleetController coalesces one instant into one
// entry), so instead of sorting them all, neighbouring runs merge pairwise:
// O(n log shards), on buffers reused from one barrier to the next.
class ShardDeltaMerger {
 public:
  // Adds one shard's changes as a run. Runs are added in ascending shard
  // order, each ascending in time. Zero-host changes are dropped.
  void AddRun(int shard, std::span<const ExposureDelta> deltas);

  // Merges the runs added since the last call into (time, shard) order —
  // exactly the order a stable sort of their concatenation by (time, shard)
  // gives — and starts over. The result stays valid until the next AddRun().
  const std::vector<ShardDelta>& Merge();

 private:
  std::vector<ShardDelta> merged_;
  std::vector<ShardDelta> scratch_;
  // Run boundaries in merged_ (runs + 1 entries); empty once merged.
  std::vector<size_t> bounds_;
  std::vector<size_t> next_bounds_;
};

}  // namespace hypertp

#endif  // HYPERTP_SRC_CAMPAIGN_DELTA_MERGE_H_
