// Mechanism policy engine: the one place that prices and picks InPlaceTP vs
// MigrationTP (paper §3 mechanisms, §5.4 orchestration).
//
// The paper chooses the mechanism statically per cluster; the repo produces
// every signal needed to choose per VM, per wave: StateGeneration churn from
// pre-translation (dirty fraction), pipeline stage costs, per-DC link
// bandwidth, host headroom, and rollback risk from the PRAM ledger.
// TransplantCostModel owns the pricing math with named inputs: pipeline
// stage costs (src/pipeline/conversion.h), the cluster executor's
// migration-link arithmetic (src/cluster/cluster.cc), the per-host
// conversion-share adjustment (MechanismPolicy::PlanHost) and the closed-form
// FleetTransplantTime (src/vulndb/window_model.h) all delegate here, so a
// costing change happens exactly once.
//
// Determinism contract: every decision is a pure function of (PolicyConfig,
// VmSignals, EnvSignals) — no RNG draws, no wall-clock, no mutable state.
// Per-host plans key on a *global* host id supplied by the caller (the
// campaign planner derives it from the datacenter rack layout), so a fleet
// partitioned into any number of shards reaches byte-identical decisions.
// With mode == kFixed the policy is inert: consumers keep their static
// tagging and constant timings.

#ifndef HYPERTP_SRC_POLICY_POLICY_H_
#define HYPERTP_SRC_POLICY_POLICY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/result.h"
#include "src/hv/hypervisor.h"
#include "src/hw/machine.h"
#include "src/sim/time.h"

namespace hypertp {
namespace policy {

// What the VM is doing, per the paper's cluster mix (30% streaming, 30%
// CPU+memory intensive, 40% idle). Mirrors ClusterVmRole; kept separate so
// the policy layer stays below the cluster layer.
enum class VmActivity : uint8_t { kIdle, kCpuMem, kStreaming };

// Pre-copy dirty-rate inflation for a live migration of this VM: streaming
// VMs rewrite buffers continuously and need extra pre-copy rounds. The
// values are the ones ExecuteClusterUpgrade always used (1.0 / 1.15 / 1.30);
// they now live here so cluster and policy price migrations identically.
double ActivityDirtyFactor(VmActivity activity);

// Share of the VM's platform/device state expected dirty at pause time under
// speculative pre-translation — the Hypervisor::StateGeneration delta signal.
// A dirty VM pays the full translate inside the pause window; a clean one
// only the generation check.
double ActivityDirtyFraction(VmActivity activity);

// Per-VM signals a decision consumes. Defaults describe the paper's §5.4
// cluster guest (1 vCPU / 4 GiB, idle).
struct VmSignals {
  uint64_t memory_bytes = 4ull << 30;
  uint32_t vcpus = 1;
  VmActivity activity = VmActivity::kIdle;
  // StateGeneration churn: probability the VM's state is dirty at pause time
  // (scales the translate cost paid inside the pause window).
  double dirty_fraction = 0.05;
  // Pre-copy inflation for migration pricing (ActivityDirtyFactor).
  double dirty_factor = 1.0;
};

// Heterogeneous per-datacenter timing: multiplicative factors a DC's hardware
// generation applies to the baseline per-host durations. `host_class` scales
// everything (older CPUs run the whole drain+micro-reboot slower),
// `reboot_cost` additionally scales the transplant leg (firmware / kexec
// latency of the host generation), and `link_generation` divides the drain
// leg (newer NICs evacuate faster). All-1.0 (the default) is the homogeneous
// fleet and leaves every duration unchanged.
struct DcTimingModel {
  double host_class = 1.0;
  double reboot_cost = 1.0;
  double link_generation = 1.0;
};

// Environment signals: what the datacenter around the VM looks like.
struct EnvSignals {
  double link_gbps = 10.0;       // Per-DC migration link bandwidth.
  double host_headroom = 0.5;    // Spare capacity fraction for evacuations.
  double rollback_risk = 0.0;    // Ledger-derived rollback probability [0,1].
  SimDuration migration_overhead = SecondsF(4.0);  // Per-migration actuation.
};

enum class Mechanism : uint8_t { kInPlaceTP, kMigrationTP, kRefuse };
enum class PolicyMode : uint8_t { kFixed, kAdaptive };

std::string_view MechanismName(Mechanism mechanism);

// Knobs of the adaptive policy. All defaults leave mode == kFixed, which
// every consumer treats as "keep the static tagging and constant timings".
struct PolicyConfig {
  PolicyMode mode = PolicyMode::kFixed;
  // Per-VM downtime budget for InPlaceTP: a VM whose risk-adjusted pause
  // exceeds it is migrated instead (or refused when migration is infeasible).
  SimDuration max_vm_pause = Millis(200);
  // Migration budget: evacuations longer than this are not worth the WAN
  // traffic; the VM is refused rather than migrated.
  SimDuration max_migration_duration = Seconds(300);
  // Migration is only feasible when the destination side has at least this
  // much spare capacity (fraction of a host).
  double min_migration_headroom = 0.05;
  // Environment defaults; the campaign planner overrides these per
  // datacenter (CampaignDatacenter::link_gbps / host_headroom).
  double link_gbps = 10.0;
  double host_headroom = 0.5;
  SimDuration migration_overhead = SecondsF(4.0);
  // Brownout charged to a migrated VM (final stop-and-copy switchover) when
  // the fleet layer tallies per-VM downtime.
  SimDuration migration_vm_downtime = Millis(300);
  // Guests per host for the synthetic per-host VM mix (SyntheticVmSignals).
  int vms_per_host = 10;
  // Concurrent evacuation streams per host when the per-host drain time is
  // derived from the migrating VMs' durations.
  int migration_streams = 1;

  bool adaptive() const { return mode == PolicyMode::kAdaptive; }
};

// Rejects out-of-range knobs (negative bandwidths/budgets/headroom,
// fractions outside [0, 1], non-positive counts) with errors naming
// `prefix` + field, e.g. "FleetConfig::policy.link_gbps must be >= 0".
Result<void> ValidatePolicyConfig(const PolicyConfig& config, const std::string& prefix);

// One VM's priced decision.
struct MechanismDecision {
  Mechanism mechanism = Mechanism::kInPlaceTP;
  // Expected pause of one InPlaceTP pass (risk-unadjusted; see risk_pause).
  SimDuration inplace_pause = 0;
  // inplace_pause * (1 + rollback_risk): what the budget check uses — a
  // rollback replays the pause, so risky fleets prefer migration earlier.
  SimDuration risk_pause = 0;
  SimDuration migration_duration = 0;  // 0 when migration is infeasible.
  bool migration_feasible = false;
};

// Unified transplant cost model over one HostCostProfile (C1, the paper's
// §5.1 cluster node, unless told otherwise). Wraps the pipeline stage costs
// and owns the migration-link and fleet-makespan arithmetic that used to be
// duplicated in cluster.cc, fleet_controller.cc and window_model.cc.
class TransplantCostModel {
 public:
  TransplantCostModel();  // C1 costs.
  explicit TransplantCostModel(HostCostProfile costs);

  const HostCostProfile& costs() const { return costs_; }

  // Usable bytes/second of a `link_gbps` migration link (94% goodput after
  // protocol overhead — the constant ExecuteClusterUpgrade always applied).
  static double LinkBytesPerSecond(double link_gbps);

  // Live-migration wall-clock of one VM: dirty-inflated memory copy over the
  // link plus the per-migration actuation overhead. Bit-identical to the
  // arithmetic ExecuteClusterUpgrade used inline.
  static SimDuration MigrationDuration(uint64_t memory_bytes, double dirty_factor,
                                       double link_gbps, SimDuration overhead);

  // Conversion cost (translate + restore under `target`) of one VM with the
  // dirty fraction applied: dirty share pays the full translate, the clean
  // share only the pre-translation generation check. This is also the VM's
  // expected InPlaceTP pause contribution.
  SimDuration VmConversionCost(const VmSignals& vm, HypervisorKind target) const;

  // Same, assuming the worst case (every byte dirty) — what the legacy
  // constants embed.
  SimDuration VmConversionCostAllDirty(const VmSignals& vm, HypervisorKind target) const;

  // Closed-form fleet makespan: ceil(hosts / parallel) waves of `per_host`.
  // FleetTransplantTime (window_model) delegates here.
  static SimDuration FleetMakespan(int hosts, int parallel_hosts, SimDuration per_host);

  // Heterogeneous-DC scaling of the baseline per-host durations (campaign
  // layer), truncated to whole nanoseconds. All-1.0 timing returns `base`
  // unchanged: an integer duration below 2^53 ns survives the round trip
  // through double exactly.
  static SimDuration ScaledTransplant(SimDuration base, const DcTimingModel& timing);
  static SimDuration ScaledDrain(SimDuration base, const DcTimingModel& timing);

  // Remaining-work estimate of a shard mid-rollout: the unstarted hosts'
  // aggregate (drain + transplant) cost spread over the shard's wave width —
  // the quantity the campaign StealPlanner balances across shards.
  static SimDuration RemainingEstimate(SimDuration pending_work, int parallel_hosts);

 private:
  HostCostProfile costs_;
};

// Ledger-derived rollback risk prior: the probability a transplant attempt
// strands the host past the point of no return *and* must replay through the
// PRAM ledger — the product of the per-attempt failure probability and the
// post-pause fraction, clamped to [0, 1].
double LedgerRollbackRisk(double failure_probability, double post_pause_fraction);

// Deterministic synthetic VM population: signals of global VM `index` in the
// paper's §5.4 mix (index % 10: 3 streaming, 3 CPU+mem, 4 idle), 1 vCPU /
// 4 GiB, except every 8th VM is a fat 4 vCPU / 16 GiB guest. Pure function
// of the index, so any partition of a fleet sees the same population.
VmSignals SyntheticVmSignals(int64_t global_vm_index);

// Aggregate plan for one host's guests under the policy.
struct HostPolicyPlan {
  int inplace_vms = 0;
  int migrate_vms = 0;
  int refused_vms = 0;
  // Adjusted per-host durations: transplant covers only the in-place guests'
  // pooled conversion; drain additionally covers the evacuations.
  SimDuration transplant_time = 0;
  SimDuration drain_time = 0;
  // Per-VM downtime one upgrade of this host charges: each in-place guest's
  // expected pause plus each migrated guest's switchover brownout.
  SimDuration vm_downtime = 0;

  // A host with any refused guest is never upgraded: it keeps serving the
  // vulnerable hypervisor (and keeps accruing exposure).
  bool refused() const { return refused_vms > 0; }
};

class MechanismPolicy {
 public:
  explicit MechanismPolicy(PolicyConfig config);
  MechanismPolicy(PolicyConfig config, HostCostProfile costs);

  const PolicyConfig& config() const { return config_; }

  // Environment signals from the config's defaults (rollback risk 0).
  EnvSignals DefaultEnv() const;

  // Prices both mechanisms for one VM and picks:
  //   1. InPlaceTP when the risk-adjusted pause fits max_vm_pause;
  //   2. else MigrationTP when feasible (headroom, live link) and within
  //      max_migration_duration;
  //   3. else kRefuse — neither mechanism meets its budget.
  MechanismDecision Decide(const VmSignals& vm, const EnvSignals& env,
                           HypervisorKind target = HypervisorKind::kKvm) const;

  // Decides every synthetic guest of global host `host_global_id` and folds
  // the outcomes into adjusted per-host timings: the transplant time swaps
  // the all-dirty serial conversion share embedded in `base_transplant` for
  // the in-place guests' pooled share over `conversion_workers`; the drain
  // time adds the migrating guests' LPT makespan over the configured
  // migration streams. A refused() plan carries zero timings and downtime —
  // the host is never touched.
  HostPolicyPlan PlanHost(int64_t host_global_id, const EnvSignals& env,
                          SimDuration base_transplant, SimDuration base_drain,
                          int conversion_workers,
                          HypervisorKind target = HypervisorKind::kKvm) const;

 private:
  PolicyConfig config_;
  TransplantCostModel model_;
};

}  // namespace policy
}  // namespace hypertp

#endif  // HYPERTP_SRC_POLICY_POLICY_H_
