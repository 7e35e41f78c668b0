// Cluster-scale orchestration of HyperTP (paper §5.4).
//
// A BtrPlace-like reconfiguration planner: to upgrade the whole cluster's
// hypervisor, hosts are taken offline in groups. VMs tagged
// InPlaceTP-compatible stay on their host through the micro-reboot; the rest
// are live-migrated to another host before their host's group goes offline.
// The planner produces the migration plan; the executor computes the
// resulting wall-clock, which reproduces Fig. 13: migrations (and total
// time) fall steeply as the InPlaceTP-compatible share grows.
//
// Tagging is the paper's: PaperCluster tags a fixed random fraction of VMs
// InPlaceTP-compatible, and the executor actuates migrations one at a time,
// as BtrPlace does.
// The executor's migration pricing itself delegates to the shared
// TransplantCostModel, so a costing change lands here and in the fleet and
// window-model layers at once.

#ifndef HYPERTP_SRC_CLUSTER_CLUSTER_H_
#define HYPERTP_SRC_CLUSTER_CLUSTER_H_

#include <string>
#include <vector>

#include "src/base/result.h"
#include "src/hv/hypervisor.h"
#include "src/policy/policy.h"
#include "src/sim/rng.h"
#include "src/sim/time.h"

namespace hypertp {

struct ClusterVm {
  uint64_t uid = 0;
  std::string name;
  uint32_t vcpus = 1;
  uint64_t memory_bytes = 4ull << 30;  // Paper: 1 vCPU / 4 GB per cluster VM.
  // What the VM is doing; sets its pre-copy dirty-rate inflation.
  policy::VmActivity activity = policy::VmActivity::kIdle;
  bool inplace_compatible = false;
  size_t host = 0;  // Index into ClusterModel::hosts.
};

struct ClusterHost {
  uint64_t id = 0;
  int guest_cpus = 30;                  // Threads available to guests.
  uint64_t guest_memory = 94ull << 30;  // RAM available to guests.
  HypervisorKind hypervisor = HypervisorKind::kXen;
  bool upgraded = false;
  std::vector<size_t> vms;  // Indices into ClusterModel::vms.
};

class ClusterModel {
 public:
  size_t AddHost(ClusterHost host);
  // Places the VM on `host`; fails when capacity would be exceeded.
  Result<size_t> AddVm(ClusterVm vm, size_t host);

  const std::vector<ClusterHost>& hosts() const { return hosts_; }
  const std::vector<ClusterVm>& vms() const { return vms_; }

  // Free capacity on a host.
  int FreeCpus(size_t host) const;
  uint64_t FreeMemory(size_t host) const;
  // Moves a VM between hosts (capacity-checked).
  Result<void> MoveVm(size_t vm, size_t to_host);
  void MarkUpgraded(size_t host) { hosts_[host].upgraded = true; }

  // The paper's evaluation cluster: 10 hosts, 10 VMs each (1 vCPU / 4 GB),
  // 30% streaming / 30% CPU+mem / 40% idle (policy::SyntheticVmSignals'
  // activity), with `inplace_fraction` of the VMs tagged InPlaceTP-compatible
  // (deterministic given `seed`).
  static ClusterModel PaperCluster(double inplace_fraction, uint64_t seed = 42);

 private:
  std::vector<ClusterHost> hosts_;
  std::vector<ClusterVm> vms_;
};

// One live migration in the plan.
struct MigrationOp {
  size_t vm = 0;
  size_t from_host = 0;
  size_t to_host = 0;
};

// One group's worth of work: evacuate, then upgrade the group in place.
struct UpgradeStep {
  std::vector<size_t> group;           // Hosts taken offline together.
  std::vector<MigrationOp> migrations; // Evacuations required first.
};

struct UpgradePlan {
  std::vector<UpgradeStep> steps;

  int total_migrations() const;
};

// Plans the full-cluster upgrade with hosts processed `group_size` at a
// time. Placement prefers already-upgraded hosts (avoiding double moves),
// then falls back to first-fit among remaining hosts — the cascading
// re-migrations this causes at low compatibility are exactly why pure
// MigrationTP scales poorly (paper §1, Alibaba's 15-day estimate).
// When `rebalance` is set (the default, matching BtrPlace's load-balancing
// constraints), a final phase evens out the placement skew the evacuations
// created, adding further migrations at low compatibility.
Result<UpgradePlan> PlanClusterUpgrade(const ClusterModel& cluster, int group_size,
                                       bool rebalance = true);

struct PlanExecutionStats {
  int migrations = 0;
  SimDuration migration_time = 0;  // Sum of individual migration durations.
  SimDuration inplace_time = 0;    // Sum of in-place host upgrades.
  SimDuration total_time = 0;      // End-to-end plan wall-clock.
};

// ExecuteClusterUpgrade rejects a non-finite or non-positive link and
// negative durations.
struct ClusterExecutionParams {
  double network_gbps = 10.0;
  // BtrPlace actuation overhead per migration (setup, suspend, bookkeeping).
  SimDuration per_migration_overhead = SecondsF(4.0);
  // In-place upgrade of one host (micro-reboot based); hosts in a group
  // upgrade in parallel.
  SimDuration inplace_upgrade_time = SecondsF(8.0);
};

// Executes (and mutates) the cluster per the plan, returning timing stats.
// A step's migrations run back to back, then its group micro-reboots, so
// total_time == migration_time + inplace_time.
Result<PlanExecutionStats> ExecuteClusterUpgrade(ClusterModel& cluster, const UpgradePlan& plan,
                                                 const ClusterExecutionParams& params);

// Cluster-upgrade execution stats as JSON: migrations, migration/inplace/
// total ms.
std::string PlanExecutionStatsToJson(const PlanExecutionStats& stats);

}  // namespace hypertp

#endif  // HYPERTP_SRC_CLUSTER_CLUSTER_H_
