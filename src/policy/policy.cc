#include "src/policy/policy.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "src/pipeline/conversion.h"
#include "src/sim/worker_pool.h"

namespace hypertp {
namespace policy {

double ActivityDirtyFactor(VmActivity activity) {
  switch (activity) {
    case VmActivity::kStreaming:
      return 1.30;
    case VmActivity::kCpuMem:
      return 1.15;
    case VmActivity::kIdle:
      return 1.0;
  }
  return 1.0;
}

double ActivityDirtyFraction(VmActivity activity) {
  switch (activity) {
    case VmActivity::kStreaming:
      return 0.9;
    case VmActivity::kCpuMem:
      return 0.5;
    case VmActivity::kIdle:
      return 0.05;
  }
  return 1.0;
}

std::string_view MechanismName(Mechanism mechanism) {
  switch (mechanism) {
    case Mechanism::kInPlaceTP:
      return "inplace";
    case Mechanism::kMigrationTP:
      return "migrate";
    case Mechanism::kRefuse:
      return "refuse";
  }
  return "unknown";
}

Result<void> ValidatePolicyConfig(const PolicyConfig& config, const std::string& prefix) {
  HYPERTP_RETURN_IF_ERROR(
      CheckDurations(prefix, {{"max_vm_pause", config.max_vm_pause},
                              {"max_migration_duration", config.max_migration_duration},
                              {"migration_overhead", config.migration_overhead},
                              {"migration_vm_downtime", config.migration_vm_downtime}}));
  HYPERTP_RETURN_IF_ERROR(
      CheckUnitRange(prefix, "fraction",
                     {{"min_migration_headroom", config.min_migration_headroom},
                      {"host_headroom", config.host_headroom}}));
  if (!(config.link_gbps >= 0.0) || !std::isfinite(config.link_gbps)) {
    return InvalidFieldError(prefix, "link_gbps", "finite and >= 0",
                             std::to_string(config.link_gbps));
  }
  return CheckPositive(prefix, {{"vms_per_host", config.vms_per_host},
                                {"migration_streams", config.migration_streams}});
}

TransplantCostModel::TransplantCostModel() : costs_(MachineProfile::C1().costs) {}

TransplantCostModel::TransplantCostModel(HostCostProfile costs) : costs_(costs) {}

double TransplantCostModel::LinkBytesPerSecond(double link_gbps) {
  return link_gbps * 1e9 / 8.0 * 0.94;
}

SimDuration TransplantCostModel::MigrationDuration(uint64_t memory_bytes, double dirty_factor,
                                                   double link_gbps, SimDuration overhead) {
  const double link_bytes_per_sec = LinkBytesPerSecond(link_gbps);
  // Same expression, in the same order, as ExecuteClusterUpgrade always
  // computed inline — cluster replays stay byte-identical.
  const SimDuration copy = static_cast<SimDuration>(
      static_cast<double>(memory_bytes) * dirty_factor / link_bytes_per_sec * 1e9);
  return copy + overhead;
}

SimDuration TransplantCostModel::VmConversionCost(const VmSignals& vm,
                                                  HypervisorKind target) const {
  const SimDuration full_translate =
      pipeline::TranslateStageCost(costs_, vm.vcpus, vm.memory_bytes);
  const SimDuration restore =
      pipeline::RestoreStageCost(costs_, target, vm.vcpus, vm.memory_bytes);
  const double dirty = std::clamp(vm.dirty_fraction, 0.0, 1.0);
  // Expected translate share: the dirty share pays the full per-VM translate
  // inside the pause window, the clean share only the generation check.
  const SimDuration translate_share =
      static_cast<SimDuration>(dirty * static_cast<double>(full_translate) +
                               (1.0 - dirty) * static_cast<double>(costs_.pretranslate_check));
  return translate_share + restore;
}

SimDuration TransplantCostModel::VmConversionCostAllDirty(const VmSignals& vm,
                                                          HypervisorKind target) const {
  return pipeline::TranslateStageCost(costs_, vm.vcpus, vm.memory_bytes) +
         pipeline::RestoreStageCost(costs_, target, vm.vcpus, vm.memory_bytes);
}

SimDuration TransplantCostModel::FleetMakespan(int hosts, int parallel_hosts,
                                               SimDuration per_host) {
  const int n = std::max(hosts, 0);  // Negative hosts: empty fleet.
  const int parallel = std::max(parallel_hosts, 1);
  const int waves = (n + parallel - 1) / parallel;
  return per_host * waves;
}

SimDuration TransplantCostModel::ScaledTransplant(SimDuration base, const DcTimingModel& timing) {
  const double scaled = static_cast<double>(base) * timing.host_class * timing.reboot_cost;
  return std::max<SimDuration>(base > 0 ? 1 : 0, static_cast<SimDuration>(scaled));
}

SimDuration TransplantCostModel::ScaledDrain(SimDuration base, const DcTimingModel& timing) {
  const double scaled = static_cast<double>(base) * timing.host_class / timing.link_generation;
  return std::max<SimDuration>(base > 0 ? 1 : 0, static_cast<SimDuration>(scaled));
}

SimDuration TransplantCostModel::RemainingEstimate(SimDuration pending_work, int parallel_hosts) {
  return pending_work / std::max(parallel_hosts, 1);
}

double LedgerRollbackRisk(double failure_probability, double post_pause_fraction) {
  const double risk = failure_probability * post_pause_fraction;
  if (!(risk > 0.0)) {  // Negated so NaN maps to the safe floor.
    return 0.0;
  }
  return std::min(risk, 1.0);
}

VmSignals SyntheticVmSignals(int64_t global_vm_index) {
  const int64_t index = global_vm_index < 0 ? 0 : global_vm_index;
  VmSignals vm;
  // Paper §5.4 mix, same modulus layout as ClusterModel::PaperCluster: per
  // block of 10 VMs, 3 streaming / 3 CPU+mem / 4 idle.
  const int mod = static_cast<int>(index % 10);
  vm.activity = mod < 3 ? VmActivity::kStreaming
                        : (mod < 6 ? VmActivity::kCpuMem : VmActivity::kIdle);
  // Every 8th VM is a fat guest (4 vCPU / 16 GiB) so memory size is a live
  // decision axis, not a constant.
  if (index % 8 == 7) {
    vm.vcpus = 4;
    vm.memory_bytes = 16ull << 30;
  }
  vm.dirty_fraction = ActivityDirtyFraction(vm.activity);
  vm.dirty_factor = ActivityDirtyFactor(vm.activity);
  return vm;
}

MechanismPolicy::MechanismPolicy(PolicyConfig config) : config_(config), model_() {}

MechanismPolicy::MechanismPolicy(PolicyConfig config, HostCostProfile costs)
    : config_(config), model_(costs) {}

EnvSignals MechanismPolicy::DefaultEnv() const {
  EnvSignals env;
  env.link_gbps = config_.link_gbps;
  env.host_headroom = config_.host_headroom;
  env.rollback_risk = 0.0;
  env.migration_overhead = config_.migration_overhead;
  return env;
}

int MechanismPolicy::HostPlanPeriod() const {
  return kSyntheticVmPeriod / std::gcd(config_.vms_per_host, kSyntheticVmPeriod);
}

MechanismDecision MechanismPolicy::Decide(const VmSignals& vm, const EnvSignals& env,
                                          HypervisorKind target) const {
  MechanismDecision decision;
  decision.inplace_pause = model_.VmConversionCost(vm, target);
  const double risk = std::clamp(env.rollback_risk, 0.0, 1.0);
  // A rollback replays the pause through the PRAM ledger; first order, the
  // expected pause inflates by the rollback probability.
  decision.risk_pause = static_cast<SimDuration>(
      static_cast<double>(decision.inplace_pause) * (1.0 + risk));
  decision.migration_feasible =
      env.link_gbps > 0.0 && env.host_headroom >= config_.min_migration_headroom;
  if (decision.migration_feasible) {
    decision.migration_duration = TransplantCostModel::MigrationDuration(
        vm.memory_bytes, vm.dirty_factor, env.link_gbps, env.migration_overhead);
  }
  if (decision.risk_pause <= config_.max_vm_pause) {
    decision.mechanism = Mechanism::kInPlaceTP;
  } else if (decision.migration_feasible &&
             decision.migration_duration <= config_.max_migration_duration) {
    decision.mechanism = Mechanism::kMigrationTP;
  } else {
    decision.mechanism = Mechanism::kRefuse;
  }
  return decision;
}

HostPolicyPlan MechanismPolicy::PlanHost(int64_t host_global_id, const EnvSignals& env,
                                         SimDuration base_transplant, SimDuration base_drain,
                                         int conversion_workers, HypervisorKind target) const {
  HostPolicyPlan plan;
  // The all-dirty serial conversion share the constant embeds: serial
  // ScheduleWork is an in-order sum, so a running sum is the same value.
  SimDuration serial_share = 0;
  std::vector<SimDuration> inplace_costs;
  std::vector<SimDuration> migration_costs;
  for (int v = 0; v < config_.vms_per_host; ++v) {
    const VmSignals vm =
        SyntheticVmSignals(host_global_id * static_cast<int64_t>(config_.vms_per_host) + v);
    serial_share += model_.VmConversionCostAllDirty(vm, target);
    const MechanismDecision decision = Decide(vm, env, target);
    switch (decision.mechanism) {
      case Mechanism::kInPlaceTP:
        ++plan.inplace_vms;
        inplace_costs.push_back(decision.inplace_pause);
        plan.vm_downtime += decision.inplace_pause;
        break;
      case Mechanism::kMigrationTP:
        ++plan.migrate_vms;
        migration_costs.push_back(decision.migration_duration);
        plan.vm_downtime += config_.migration_vm_downtime;
        break;
      case Mechanism::kRefuse:
        ++plan.refused_vms;
        break;
    }
  }
  if (plan.refused()) {
    // One refused guest blocks the whole host: nothing executes, nothing is
    // charged. The decision counts stand — they record what the policy said.
    plan.transplant_time = 0;
    plan.drain_time = 0;
    plan.vm_downtime = 0;
    return plan;
  }
  // Swap the all-dirty serial conversion share the constant embeds for the
  // in-place guests' pooled share.
  const SimDuration pooled_share =
      ScheduleWork(inplace_costs, std::max(conversion_workers, 1)).makespan;
  plan.transplant_time =
      std::max<SimDuration>(base_transplant - serial_share + pooled_share, pooled_share);
  plan.drain_time =
      base_drain +
      ScheduleWork(migration_costs, std::max(config_.migration_streams, 1)).makespan;
  return plan;
}

}  // namespace policy
}  // namespace hypertp
