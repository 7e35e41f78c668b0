// Tests for the cluster model and the BtrPlace-like upgrade planner.

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "src/cluster/cluster.h"

namespace hypertp {
namespace {

TEST(ClusterModelTest, CapacityEnforced) {
  ClusterModel cluster;
  ClusterHost host;
  host.guest_cpus = 2;
  host.guest_memory = 8ull << 30;
  cluster.AddHost(host);

  ClusterVm vm;
  vm.vcpus = 1;
  vm.memory_bytes = 4ull << 30;
  ASSERT_TRUE(cluster.AddVm(vm, 0).ok());
  ASSERT_TRUE(cluster.AddVm(vm, 0).ok());
  auto third = cluster.AddVm(vm, 0);  // CPUs exhausted.
  ASSERT_FALSE(third.ok());
  EXPECT_EQ(third.error().code(), ErrorCode::kResourceExhausted);
}

TEST(ClusterModelTest, MoveVmUpdatesBothHosts) {
  ClusterModel cluster;
  cluster.AddHost(ClusterHost{});
  cluster.AddHost(ClusterHost{});
  ClusterVm vm;
  auto idx = cluster.AddVm(vm, 0);
  ASSERT_TRUE(idx.ok());
  ASSERT_TRUE(cluster.MoveVm(*idx, 1).ok());
  EXPECT_TRUE(cluster.hosts()[0].vms.empty());
  EXPECT_EQ(cluster.hosts()[1].vms.size(), 1u);
  EXPECT_EQ(cluster.vms()[*idx].host, 1u);
}

TEST(ClusterModelTest, PaperClusterShape) {
  ClusterModel cluster = ClusterModel::PaperCluster(0.3);
  EXPECT_EQ(cluster.hosts().size(), 10u);
  EXPECT_EQ(cluster.vms().size(), 100u);
  int streaming = 0, cpumem = 0, idle = 0, compatible = 0;
  for (const ClusterVm& vm : cluster.vms()) {
    streaming += vm.activity == policy::VmActivity::kStreaming;
    cpumem += vm.activity == policy::VmActivity::kCpuMem;
    idle += vm.activity == policy::VmActivity::kIdle;
    compatible += vm.inplace_compatible;
  }
  EXPECT_EQ(streaming, 30);
  EXPECT_EQ(cpumem, 30);
  EXPECT_EQ(idle, 40);
  EXPECT_NEAR(compatible, 30, 12);  // Bernoulli(0.3) over 100 VMs.
}

TEST(PlannerTest, ZeroCompatibilityMigratesEveryVmAtLeastOnce) {
  ClusterModel cluster = ClusterModel::PaperCluster(0.0);
  auto plan = PlanClusterUpgrade(cluster, 2);
  ASSERT_TRUE(plan.ok()) << plan.error().ToString();
  EXPECT_GE(plan->total_migrations(), 100);
  // Cascading moves + final rebalancing push it well above one per VM
  // (paper: 154).
  EXPECT_LE(plan->total_migrations(), 200);
  // 5 offline groups plus the rebalancing step.
  EXPECT_EQ(plan->steps.size(), 6u);
  EXPECT_TRUE(plan->steps.back().group.empty());
}

TEST(PlannerTest, FullCompatibilityNeedsNoMigration) {
  ClusterModel cluster = ClusterModel::PaperCluster(1.0);
  auto plan = PlanClusterUpgrade(cluster, 2);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->total_migrations(), 0);
}

TEST(PlannerTest, MigrationsFallMonotonicallyWithCompatibility) {
  int previous = INT32_MAX;
  for (double f : {0.0, 0.2, 0.4, 0.6, 0.8}) {
    ClusterModel cluster = ClusterModel::PaperCluster(f);
    auto plan = PlanClusterUpgrade(cluster, 2);
    ASSERT_TRUE(plan.ok());
    EXPECT_LE(plan->total_migrations(), previous) << "at fraction " << f;
    previous = plan->total_migrations();
  }
  // Paper Fig. 13a: ~25 migrations at 80% compatibility.
  EXPECT_LT(previous, 45);
}

TEST(PlannerTest, EveryMigrationLeavesTheOfflineGroup) {
  ClusterModel cluster = ClusterModel::PaperCluster(0.4);
  auto plan = PlanClusterUpgrade(cluster, 2);
  ASSERT_TRUE(plan.ok());
  for (const UpgradeStep& step : plan->steps) {
    if (step.group.empty()) {
      continue;  // The final rebalancing step moves between online hosts.
    }
    for (const MigrationOp& op : step.migrations) {
      EXPECT_TRUE(std::find(step.group.begin(), step.group.end(), op.from_host) !=
                  step.group.end());
      EXPECT_TRUE(std::find(step.group.begin(), step.group.end(), op.to_host) ==
                  step.group.end());
    }
  }
}

TEST(PlannerTest, GroupTooBigToEvacuateFails) {
  // Taking all hosts offline at once leaves nowhere to put the VMs.
  ClusterModel cluster = ClusterModel::PaperCluster(0.0);
  auto plan = PlanClusterUpgrade(cluster, 10);
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.error().code(), ErrorCode::kResourceExhausted);
}

TEST(ExecutorTest2, PlanExecutionRespectsCapacityAndMarksUpgrades) {
  ClusterModel cluster = ClusterModel::PaperCluster(0.5);
  auto plan = PlanClusterUpgrade(cluster, 2);
  ASSERT_TRUE(plan.ok());
  auto stats = ExecuteClusterUpgrade(cluster, *plan, ClusterExecutionParams{});
  ASSERT_TRUE(stats.ok()) << stats.error().ToString();
  EXPECT_EQ(stats->migrations, plan->total_migrations());
  // Migrations run back to back, so the plan's wall-clock is the migration
  // work plus the micro-reboots: 5 offline groups of 8 s each.
  EXPECT_EQ(stats->total_time, stats->migration_time + stats->inplace_time);
  EXPECT_EQ(stats->inplace_time, 5 * Seconds(8));
  for (const ClusterHost& host : cluster.hosts()) {
    EXPECT_TRUE(host.upgraded);
  }
}

TEST(ExecutorTest2, TimeGainGrowsWithCompatibility) {
  // Fig. 13b: ~80% shorter total time at 80% compatibility.
  auto run = [](double fraction) {
    ClusterModel cluster = ClusterModel::PaperCluster(fraction);
    auto plan = PlanClusterUpgrade(cluster, 2);
    EXPECT_TRUE(plan.ok());
    auto stats = ExecuteClusterUpgrade(cluster, *plan, ClusterExecutionParams{});
    EXPECT_TRUE(stats.ok());
    return stats->total_time;
  };
  const SimDuration base = run(0.0);
  const SimDuration at80 = run(0.8);
  const double gain = 1.0 - static_cast<double>(at80) / static_cast<double>(base);
  EXPECT_GT(gain, 0.55);
  EXPECT_LT(gain, 0.95);
}

TEST(PlannerTest, HeterogeneousCapacitiesRespected) {
  // One big host and two small ones: evacuations must never overfill the
  // small hosts.
  ClusterModel cluster;
  ClusterHost big;
  big.guest_cpus = 40;
  big.guest_memory = 256ull << 30;
  cluster.AddHost(big);
  ClusterHost small;
  small.guest_cpus = 4;
  small.guest_memory = 12ull << 30;
  cluster.AddHost(small);
  cluster.AddHost(small);
  for (int i = 0; i < 12; ++i) {
    ClusterVm vm;
    vm.uid = static_cast<uint64_t>(i);
    vm.inplace_compatible = false;
    ASSERT_TRUE(cluster.AddVm(vm, 0).ok());
  }
  auto plan = PlanClusterUpgrade(cluster, 1, /*rebalance=*/false);
  // 12 x 4 GB won't fit in 2 x 12 GB of spare capacity.
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.error().code(), ErrorCode::kResourceExhausted);

  // Tagging most of them InPlaceTP-compatible makes the plan feasible.
  ClusterModel cluster2;
  cluster2.AddHost(big);
  cluster2.AddHost(small);
  cluster2.AddHost(small);
  for (int i = 0; i < 12; ++i) {
    ClusterVm vm;
    vm.uid = static_cast<uint64_t>(100 + i);
    vm.inplace_compatible = i >= 4;  // Only 4 need to move.
    ASSERT_TRUE(cluster2.AddVm(vm, 0).ok());
  }
  auto plan2 = PlanClusterUpgrade(cluster2, 1, false);
  ASSERT_TRUE(plan2.ok()) << plan2.error().ToString();
  // The 4 movers leave host 0, then must move again when their refuge hosts
  // go offline in later groups: 8 migrations total (the cascading cost of
  // non-compatible VMs, in miniature).
  EXPECT_EQ(plan2->total_migrations(), 8);
}

TEST(ExecutorTest2, StreamingVmsMigrateSlower) {
  // Activity-aware dirty rates: a plan moving only streaming VMs takes longer
  // than the same plan moving only idle VMs.
  auto run = [](policy::VmActivity activity) {
    ClusterModel cluster;
    cluster.AddHost(ClusterHost{});
    cluster.AddHost(ClusterHost{});
    for (int i = 0; i < 5; ++i) {
      ClusterVm vm;
      vm.uid = static_cast<uint64_t>(i);
      vm.activity = activity;
      vm.inplace_compatible = false;
      EXPECT_TRUE(cluster.AddVm(vm, 0).ok());
    }
    auto plan = PlanClusterUpgrade(cluster, 1, /*rebalance=*/false);
    EXPECT_TRUE(plan.ok());
    auto stats = ExecuteClusterUpgrade(cluster, *plan, ClusterExecutionParams{});
    EXPECT_TRUE(stats.ok());
    return stats->total_time;
  };
  EXPECT_GT(run(policy::VmActivity::kStreaming), run(policy::VmActivity::kIdle));
}

// Runs the paper plan at 50% compatibility under `params`; the executor
// must refuse them before moving any VM.
Error RejectedParams(const ClusterExecutionParams& params) {
  ClusterModel cluster = ClusterModel::PaperCluster(0.5);
  auto plan = PlanClusterUpgrade(cluster, 2);
  EXPECT_TRUE(plan.ok());
  const std::vector<ClusterVm> before = cluster.vms();
  auto stats = ExecuteClusterUpgrade(cluster, *plan, params);
  EXPECT_FALSE(stats.ok());
  for (size_t v = 0; v < before.size(); ++v) {
    EXPECT_EQ(cluster.vms()[v].host, before[v].host) << "vm " << v << " moved";
  }
  return stats.ok() ? InternalError("params accepted") : stats.error();
}

TEST(ExecutorTest2, ZeroNetworkGbpsIsRejected) {
  ClusterExecutionParams params;
  params.network_gbps = 0.0;  // Would divide by zero and cast +inf to int64.
  const Error error = RejectedParams(params);
  EXPECT_EQ(error.code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(error.message(),
            "ClusterExecutionParams::network_gbps must be finite and > 0, got 0.000000");
}

TEST(ExecutorTest2, NegativeNetworkGbpsIsRejected) {
  ClusterExecutionParams params;
  params.network_gbps = -10.0;  // Would price every migration negative.
  const Error error = RejectedParams(params);
  EXPECT_EQ(error.code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(error.message(),
            "ClusterExecutionParams::network_gbps must be finite and > 0, got -10.000000");
}

TEST(ExecutorTest2, NonFiniteNetworkGbpsIsRejected) {
  for (double gbps : {std::numeric_limits<double>::quiet_NaN(),
                      std::numeric_limits<double>::infinity()}) {
    ClusterExecutionParams params;
    params.network_gbps = gbps;
    const Error error = RejectedParams(params);
    EXPECT_EQ(error.code(), ErrorCode::kInvalidArgument) << gbps;
    EXPECT_EQ(error.message().rfind("ClusterExecutionParams::network_gbps must be finite", 0), 0u)
        << error.message();
  }
}

TEST(ExecutorTest2, NegativePerMigrationOverheadIsRejected) {
  ClusterExecutionParams params;
  params.per_migration_overhead = -1;
  const Error error = RejectedParams(params);
  EXPECT_EQ(error.code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(error.message(),
            "ClusterExecutionParams::per_migration_overhead must be >= 0, got -1 ns");
}

TEST(ExecutorTest2, NegativeInplaceUpgradeTimeIsRejected) {
  ClusterExecutionParams params;
  params.inplace_upgrade_time = -Seconds(8);
  const Error error = RejectedParams(params);
  EXPECT_EQ(error.code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(error.message(),
            "ClusterExecutionParams::inplace_upgrade_time must be >= 0, got -8000000000 ns");
}

}  // namespace
}  // namespace hypertp
