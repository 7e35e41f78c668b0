#include "src/cluster/cluster.h"

#include <algorithm>
#include <cmath>

#include "src/base/json.h"
#include "src/base/logging.h"

namespace hypertp {

size_t ClusterModel::AddHost(ClusterHost host) {
  host.id = hosts_.size();
  hosts_.push_back(std::move(host));
  return hosts_.size() - 1;
}

Result<size_t> ClusterModel::AddVm(ClusterVm vm, size_t host) {
  if (host >= hosts_.size()) {
    return InvalidArgumentError("cluster: no host " + std::to_string(host));
  }
  if (FreeCpus(host) < static_cast<int>(vm.vcpus) || FreeMemory(host) < vm.memory_bytes) {
    return ResourceExhaustedError("cluster: host " + std::to_string(host) + " full");
  }
  vm.host = host;
  vms_.push_back(std::move(vm));
  hosts_[host].vms.push_back(vms_.size() - 1);
  return vms_.size() - 1;
}

int ClusterModel::FreeCpus(size_t host) const {
  int used = 0;
  for (size_t vm : hosts_[host].vms) {
    used += static_cast<int>(vms_[vm].vcpus);
  }
  return hosts_[host].guest_cpus - used;
}

uint64_t ClusterModel::FreeMemory(size_t host) const {
  uint64_t used = 0;
  for (size_t vm : hosts_[host].vms) {
    used += vms_[vm].memory_bytes;
  }
  return hosts_[host].guest_memory - used;
}

Result<void> ClusterModel::MoveVm(size_t vm, size_t to_host) {
  if (vm >= vms_.size() || to_host >= hosts_.size()) {
    return InvalidArgumentError("cluster: bad vm/host index");
  }
  if (FreeCpus(to_host) < static_cast<int>(vms_[vm].vcpus) ||
      FreeMemory(to_host) < vms_[vm].memory_bytes) {
    return ResourceExhaustedError("cluster: host " + std::to_string(to_host) + " full");
  }
  auto& from_list = hosts_[vms_[vm].host].vms;
  from_list.erase(std::find(from_list.begin(), from_list.end(), vm));
  vms_[vm].host = to_host;
  hosts_[to_host].vms.push_back(vm);
  return OkResult();
}

ClusterModel ClusterModel::PaperCluster(double inplace_fraction, uint64_t seed) {
  ClusterModel cluster;
  Rng rng(seed);
  constexpr int kHosts = 10;
  constexpr int kVmsPerHost = 10;
  for (int h = 0; h < kHosts; ++h) {
    cluster.AddHost(ClusterHost{});
  }
  // Activity mix: 30% streaming, 30% CPU+mem, 40% idle (paper §5.4).
  int serial = 0;
  for (int h = 0; h < kHosts; ++h) {
    for (int v = 0; v < kVmsPerHost; ++v) {
      ClusterVm vm;
      vm.uid = static_cast<uint64_t>(1000 + serial);
      vm.name = "cvm-" + std::to_string(serial);
      vm.activity = policy::SyntheticVmSignals(serial).activity;
      vm.inplace_compatible = rng.NextBool(inplace_fraction);
      (void)cluster.AddVm(std::move(vm), static_cast<size_t>(h));
      ++serial;
    }
  }
  return cluster;
}

int UpgradePlan::total_migrations() const {
  int n = 0;
  for (const UpgradeStep& step : steps) {
    n += static_cast<int>(step.migrations.size());
  }
  return n;
}

Result<UpgradePlan> PlanClusterUpgrade(const ClusterModel& cluster, int group_size,
                                       bool rebalance) {
  if (group_size < 1 || static_cast<size_t>(group_size) > cluster.hosts().size()) {
    return InvalidArgumentError("cluster: bad group size");
  }

  // Work on a scratch copy: planning simulates the placements.
  ClusterModel scratch = cluster;
  UpgradePlan plan;

  const size_t host_count = scratch.hosts().size();
  for (size_t begin = 0; begin < host_count; begin += static_cast<size_t>(group_size)) {
    UpgradeStep step;
    const size_t end = std::min(begin + static_cast<size_t>(group_size), host_count);
    for (size_t h = begin; h < end; ++h) {
      step.group.push_back(h);
    }
    auto in_group = [&](size_t h) { return h >= begin && h < end; };

    // Evacuate non-InPlaceTP-compatible VMs from the group.
    for (size_t h = begin; h < end; ++h) {
      // Copy: MoveVm mutates the host's vm list.
      const std::vector<size_t> vms_on_host = scratch.hosts()[h].vms;
      for (size_t vm : vms_on_host) {
        if (scratch.vms()[vm].inplace_compatible) {
          continue;  // Rides the micro-reboot in place.
        }
        // Destination preference: upgraded hosts first (the VM will not have
        // to move again), then any host outside the group, first fit.
        size_t dest = host_count;
        for (int pass = 0; pass < 2 && dest == host_count; ++pass) {
          for (size_t candidate = 0; candidate < host_count; ++candidate) {
            if (in_group(candidate) || candidate == h) {
              continue;
            }
            if (pass == 0 && !scratch.hosts()[candidate].upgraded) {
              continue;
            }
            if (scratch.FreeCpus(candidate) >=
                    static_cast<int>(scratch.vms()[vm].vcpus) &&
                scratch.FreeMemory(candidate) >= scratch.vms()[vm].memory_bytes) {
              dest = candidate;
              break;
            }
          }
        }
        if (dest == host_count) {
          return ResourceExhaustedError(
              "cluster: no spare capacity to evacuate vm " + std::to_string(vm) +
              " — shrink the group size or add hosts");
        }
        step.migrations.push_back(MigrationOp{vm, h, dest});
        HYPERTP_RETURN_IF_ERROR(scratch.MoveVm(vm, dest));
      }
    }
    for (size_t h = begin; h < end; ++h) {
      scratch.MarkUpgraded(h);
    }
    plan.steps.push_back(std::move(step));
  }

  // Final load-balancing phase (BtrPlace's spread constraint): evacuations
  // piled VMs onto the hosts upgraded early; even the placement back out.
  if (rebalance) {
    UpgradeStep step;
    const size_t avg = scratch.vms().size() / host_count;
    for (;;) {
      size_t busiest = 0, emptiest = 0;
      for (size_t h = 0; h < host_count; ++h) {
        if (scratch.hosts()[h].vms.size() > scratch.hosts()[busiest].vms.size()) {
          busiest = h;
        }
        if (scratch.hosts()[h].vms.size() < scratch.hosts()[emptiest].vms.size()) {
          emptiest = h;
        }
      }
      // Tolerate a skew of 2 VMs (BtrPlace's spread is a soft preference).
      if (scratch.hosts()[busiest].vms.size() <= avg + 2 ||
          scratch.hosts()[emptiest].vms.size() + 1 >= scratch.hosts()[busiest].vms.size()) {
        break;
      }
      const size_t vm = scratch.hosts()[busiest].vms.back();
      step.migrations.push_back(MigrationOp{vm, busiest, emptiest});
      HYPERTP_RETURN_IF_ERROR(scratch.MoveVm(vm, emptiest));
    }
    if (!step.migrations.empty()) {
      plan.steps.push_back(std::move(step));
    }
  }
  return plan;
}

namespace {

Result<void> ValidateExecutionParams(const ClusterExecutionParams& params) {
  constexpr std::string_view kPrefix = "ClusterExecutionParams::";
  if (!(params.network_gbps > 0.0) || !std::isfinite(params.network_gbps)) {
    return InvalidFieldError(kPrefix, "network_gbps", "finite and > 0",
                             std::to_string(params.network_gbps));
  }
  return CheckDurations(kPrefix, {{"per_migration_overhead", params.per_migration_overhead},
                                  {"inplace_upgrade_time", params.inplace_upgrade_time}});
}

}  // namespace

Result<PlanExecutionStats> ExecuteClusterUpgrade(ClusterModel& cluster, const UpgradePlan& plan,
                                                 const ClusterExecutionParams& params) {
  HYPERTP_RETURN_IF_ERROR(ValidateExecutionParams(params));
  PlanExecutionStats stats;

  for (const UpgradeStep& step : plan.steps) {
    // Migrations first, one at a time (BtrPlace's sequential actuation).
    SimDuration step_migration = 0;
    for (const MigrationOp& op : step.migrations) {
      HYPERTP_RETURN_IF_ERROR(cluster.MoveVm(op.vm, op.to_host));
      const auto& vm = cluster.vms()[op.vm];
      step_migration += policy::TransplantCostModel::MigrationDuration(
          vm.memory_bytes, policy::ActivityDirtyFactor(vm.activity), params.network_gbps,
          params.per_migration_overhead);
    }
    stats.migration_time += step_migration;
    stats.migrations += static_cast<int>(step.migrations.size());

    // Then the group's hosts micro-reboot in parallel (InPlaceTP). The final
    // rebalancing step has no offline group and charges no reboot.
    SimDuration step_inplace = 0;
    if (!step.group.empty()) {
      for (size_t h : step.group) {
        cluster.MarkUpgraded(h);
      }
      step_inplace = params.inplace_upgrade_time;
    }
    stats.inplace_time += step_inplace;
    stats.total_time += step_migration + step_inplace;
  }
  return stats;
}

std::string PlanExecutionStatsToJson(const PlanExecutionStats& stats) {
  JsonWriter j;
  j.BeginObject();
  j.Key("kind").String("cluster_upgrade");
  j.Key("migrations").Number(static_cast<int64_t>(stats.migrations));
  j.Key("migration_time_ms").Number(ToMillis(stats.migration_time));
  j.Key("inplace_time_ms").Number(ToMillis(stats.inplace_time));
  j.Key("total_time_ms").Number(ToMillis(stats.total_time));
  j.EndObject();
  return j.Take();
}

}  // namespace hypertp
