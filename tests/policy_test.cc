// Tests for the mechanism policy engine (src/policy/): the golden decision
// table over the memory x dirty-rate x bandwidth x rollback-risk matrix,
// cost-model equivalence with the call sites that delegate here, config
// validation, and the determinism contract per-host plans ride on.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "src/policy/policy.h"
#include "src/vulndb/window_model.h"

namespace hypertp {
namespace policy {
namespace {

VmSignals MakeVm(uint64_t memory_bytes, uint32_t vcpus, VmActivity activity) {
  VmSignals vm;
  vm.memory_bytes = memory_bytes;
  vm.vcpus = vcpus;
  vm.activity = activity;
  vm.dirty_fraction = ActivityDirtyFraction(activity);
  vm.dirty_factor = ActivityDirtyFactor(activity);
  return vm;
}

constexpr uint64_t kGiB = 1ull << 30;

// ---------------------------------------------------------------------------
// Golden decision table: every combination of VM size, activity (dirty rate),
// link bandwidth and ledger rollback risk, against hand-computed outcomes for
// the default budgets (200 ms pause, 300 s migration, C1 costs, KVM target).
// A costing or threshold change that moves any cell must update this table
// deliberately.
// ---------------------------------------------------------------------------

TEST(MechanismPolicyTest, GoldenDecisionTable) {
  struct Case {
    uint64_t memory_bytes;
    uint32_t vcpus;
    VmActivity activity;
    double link_gbps;
    double rollback_risk;
    Mechanism expected;
  };
  const std::vector<Case> table = {
      // Small guest (1 vCPU / 4 GiB). Pauses: idle 155.225 ms, cpumem
      // 197.75 ms, streaming 235.55 ms.
      {4 * kGiB, 1, VmActivity::kIdle, 10.0, 0.0, Mechanism::kInPlaceTP},
      {4 * kGiB, 1, VmActivity::kCpuMem, 10.0, 0.0, Mechanism::kInPlaceTP},
      {4 * kGiB, 1, VmActivity::kStreaming, 10.0, 0.0, Mechanism::kMigrationTP},
      // A congested 0.5 Gbps link still evacuates a small guest within the
      // 300 s budget (~73-95 s), so only the mechanism ordering matters.
      {4 * kGiB, 1, VmActivity::kIdle, 0.5, 0.0, Mechanism::kInPlaceTP},
      {4 * kGiB, 1, VmActivity::kStreaming, 0.5, 0.0, Mechanism::kMigrationTP},
      // Rollback risk inflates the pause budget check: a cpumem guest at
      // 197.75 ms fits at risk 0 but 217.5 ms at risk 0.1 does not.
      {4 * kGiB, 1, VmActivity::kIdle, 10.0, 0.1, Mechanism::kInPlaceTP},
      {4 * kGiB, 1, VmActivity::kCpuMem, 10.0, 0.1, Mechanism::kMigrationTP},
      // Fat guest (4 vCPU / 16 GiB). Pauses: idle 310.475 ms, cpumem
      // 400.25 ms, streaming 480.05 ms — all over budget, so the link decides.
      {16 * kGiB, 4, VmActivity::kIdle, 10.0, 0.0, Mechanism::kMigrationTP},
      {16 * kGiB, 4, VmActivity::kCpuMem, 10.0, 0.0, Mechanism::kMigrationTP},
      {16 * kGiB, 4, VmActivity::kStreaming, 10.0, 0.0, Mechanism::kMigrationTP},
      // At 0.5 Gbps a fat idle guest squeaks under the 300 s migration budget
      // (~296.4 s); the dirty-inflated cpumem/streaming copies do not, and
      // neither mechanism fits: refuse.
      {16 * kGiB, 4, VmActivity::kIdle, 0.5, 0.0, Mechanism::kMigrationTP},
      {16 * kGiB, 4, VmActivity::kCpuMem, 0.5, 0.0, Mechanism::kRefuse},
      {16 * kGiB, 4, VmActivity::kStreaming, 0.5, 0.0, Mechanism::kRefuse},
      // Risk does not rescue an already-over-budget pause.
      {16 * kGiB, 4, VmActivity::kStreaming, 0.5, 0.1, Mechanism::kRefuse},
  };

  MechanismPolicy policy{PolicyConfig{}};
  for (const Case& c : table) {
    EnvSignals env = policy.DefaultEnv();
    env.link_gbps = c.link_gbps;
    env.rollback_risk = c.rollback_risk;
    const MechanismDecision decision =
        policy.Decide(MakeVm(c.memory_bytes, c.vcpus, c.activity), env);
    EXPECT_EQ(decision.mechanism, c.expected)
        << "memory=" << c.memory_bytes / kGiB << "GiB activity=" << static_cast<int>(c.activity)
        << " link=" << c.link_gbps << " risk=" << c.rollback_risk << " -> "
        << MechanismName(decision.mechanism);
  }
}

TEST(MechanismPolicyTest, DecisionPricesMatchHandComputedCosts) {
  MechanismPolicy policy{PolicyConfig{}};
  const EnvSignals env = policy.DefaultEnv();

  // Idle 1 vCPU / 4 GiB vs C1/KVM: 0.05 * 95 ms translate + 0.95 * 500 us
  // check + 150 ms restore = 155.225 ms.
  const MechanismDecision idle = policy.Decide(MakeVm(4 * kGiB, 1, VmActivity::kIdle), env);
  EXPECT_EQ(idle.inplace_pause, MillisF(155.225));
  EXPECT_EQ(idle.risk_pause, idle.inplace_pause);  // risk 0.
  EXPECT_TRUE(idle.migration_feasible);

  // Streaming guest migrates: 4 GiB * 1.30 over a 10 Gbps link at 94% goodput
  // plus the 4 s actuation overhead.
  const MechanismDecision streaming =
      policy.Decide(MakeVm(4 * kGiB, 1, VmActivity::kStreaming), env);
  const SimDuration expected_migration = TransplantCostModel::MigrationDuration(
      4 * kGiB, 1.30, env.link_gbps, env.migration_overhead);
  EXPECT_EQ(streaming.mechanism, Mechanism::kMigrationTP);
  EXPECT_EQ(streaming.migration_duration, expected_migration);
  EXPECT_GT(expected_migration, Seconds(8));
  EXPECT_LT(expected_migration, Seconds(10));
}

TEST(MechanismPolicyTest, NoHeadroomOrDeadLinkMakesMigrationInfeasible) {
  MechanismPolicy policy{PolicyConfig{}};
  const VmSignals streaming = MakeVm(4 * kGiB, 1, VmActivity::kStreaming);

  EnvSignals env = policy.DefaultEnv();
  env.host_headroom = 0.0;  // Below min_migration_headroom.
  MechanismDecision d = policy.Decide(streaming, env);
  EXPECT_EQ(d.mechanism, Mechanism::kRefuse);
  EXPECT_FALSE(d.migration_feasible);
  EXPECT_EQ(d.migration_duration, 0);

  env = policy.DefaultEnv();
  env.link_gbps = 0.0;  // No migration link at all.
  d = policy.Decide(streaming, env);
  EXPECT_EQ(d.mechanism, Mechanism::kRefuse);
  EXPECT_FALSE(d.migration_feasible);
}

TEST(MechanismPolicyTest, XenTargetRestoreCostDoublesThePause) {
  MechanismPolicy policy{PolicyConfig{}};
  const EnvSignals env = policy.DefaultEnv();
  const VmSignals idle = MakeVm(4 * kGiB, 1, VmActivity::kIdle);
  const MechanismDecision to_kvm = policy.Decide(idle, env, HypervisorKind::kKvm);
  const MechanismDecision to_xen = policy.Decide(idle, env, HypervisorKind::kXen);
  // Xen restore is 2x KVM's (src/hw/machine.h), so the same guest that stays
  // in place toward KVM (155.225 ms) must migrate toward Xen (305.225 ms).
  EXPECT_EQ(to_kvm.mechanism, Mechanism::kInPlaceTP);
  EXPECT_EQ(to_xen.mechanism, Mechanism::kMigrationTP);
  EXPECT_GT(to_xen.inplace_pause, to_kvm.inplace_pause);
}

// ---------------------------------------------------------------------------
// Cost-model equivalence with the call sites that now delegate here.
// ---------------------------------------------------------------------------

TEST(TransplantCostModelTest, FleetMakespanMatchesWindowModelDelegation) {
  FleetProfile fleet;
  fleet.per_host_transplant = Seconds(10);
  for (int hosts : {0, 1, 7, 100, 101}) {
    for (int parallel : {-3, 0, 1, 10, 1000}) {
      fleet.hosts = hosts;
      fleet.parallel_hosts = parallel;
      EXPECT_EQ(FleetTransplantTime(fleet),
                TransplantCostModel::FleetMakespan(hosts, parallel, fleet.per_host_transplant))
          << "hosts=" << hosts << " parallel=" << parallel;
    }
  }
}

TEST(TransplantCostModelTest, MigrationDurationMatchesClusterInlineArithmetic) {
  // The exact expression ExecuteClusterUpgrade computed inline before the
  // refactor, in the same order — bit-identical, not just close.
  for (double gbps : {10.0, 1.0, 0.5}) {
    for (double factor : {1.0, 1.15, 1.30}) {
      const uint64_t bytes = 4 * kGiB;
      const double link_bytes_per_sec = gbps * 1e9 / 8.0 * 0.94;
      const SimDuration legacy = static_cast<SimDuration>(
          static_cast<double>(bytes) * factor / link_bytes_per_sec * 1e9);
      EXPECT_EQ(TransplantCostModel::MigrationDuration(bytes, factor, gbps, Seconds(4)),
                legacy + Seconds(4));
    }
  }
}

TEST(TransplantCostModelTest, DirtyFractionInterpolatesBetweenCheckAndFullTranslate) {
  TransplantCostModel model;
  VmSignals vm = MakeVm(4 * kGiB, 1, VmActivity::kIdle);

  vm.dirty_fraction = 1.0;
  EXPECT_EQ(model.VmConversionCost(vm, HypervisorKind::kKvm),
            model.VmConversionCostAllDirty(vm, HypervisorKind::kKvm));

  vm.dirty_fraction = 0.0;
  // Clean guest: only the 500 us generation check plus the restore.
  EXPECT_EQ(model.VmConversionCost(vm, HypervisorKind::kKvm), Micros(500) + Millis(150));

  vm.dirty_fraction = 0.5;
  const SimDuration mid = model.VmConversionCost(vm, HypervisorKind::kKvm);
  EXPECT_GT(mid, Micros(500) + Millis(150));
  EXPECT_LT(mid, model.VmConversionCostAllDirty(vm, HypervisorKind::kKvm));
}

TEST(LedgerRollbackRiskTest, ProductClampedToUnitInterval) {
  EXPECT_DOUBLE_EQ(LedgerRollbackRisk(0.5, 0.5), 0.25);
  EXPECT_DOUBLE_EQ(LedgerRollbackRisk(0.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(LedgerRollbackRisk(2.0, 2.0), 1.0);   // Clamped high.
  EXPECT_DOUBLE_EQ(LedgerRollbackRisk(-1.0, 0.5), 0.0);  // Clamped low.
  EXPECT_DOUBLE_EQ(LedgerRollbackRisk(std::nan(""), 0.5), 0.0);  // NaN -> no prior.
}

// ---------------------------------------------------------------------------
// Synthetic population + per-host plans.
// ---------------------------------------------------------------------------

TEST(SyntheticVmSignalsTest, MatchesThePaperClusterMix) {
  // index % 10: 3 streaming, 3 cpu+mem, 4 idle — the paper's 30/30/40 mix.
  int streaming = 0, cpumem = 0, idle = 0;
  for (int64_t i = 0; i < 10; ++i) {
    switch (SyntheticVmSignals(i).activity) {
      case VmActivity::kStreaming: ++streaming; break;
      case VmActivity::kCpuMem: ++cpumem; break;
      case VmActivity::kIdle: ++idle; break;
    }
  }
  EXPECT_EQ(streaming, 3);
  EXPECT_EQ(cpumem, 3);
  EXPECT_EQ(idle, 4);

  // Every 8th guest is the fat 4 vCPU / 16 GiB shape; the rest the default.
  EXPECT_EQ(SyntheticVmSignals(7).vcpus, 4u);
  EXPECT_EQ(SyntheticVmSignals(7).memory_bytes, 16 * kGiB);
  EXPECT_EQ(SyntheticVmSignals(8).vcpus, 1u);
  EXPECT_EQ(SyntheticVmSignals(8).memory_bytes, 4 * kGiB);

  // Dirty signals are the activity's canonical values.
  const VmSignals s = SyntheticVmSignals(0);
  EXPECT_DOUBLE_EQ(s.dirty_fraction, ActivityDirtyFraction(s.activity));
  EXPECT_DOUBLE_EQ(s.dirty_factor, ActivityDirtyFactor(s.activity));
}

TEST(MechanismPolicyTest, PlanHostIsAPureFunctionOfTheGlobalId) {
  PolicyConfig config;
  config.mode = PolicyMode::kAdaptive;
  MechanismPolicy policy{config};
  const EnvSignals env = policy.DefaultEnv();

  const HostPolicyPlan a = policy.PlanHost(3, env, Seconds(10), Seconds(2), 4);
  const HostPolicyPlan b = policy.PlanHost(3, env, Seconds(10), Seconds(2), 4);
  EXPECT_EQ(a.inplace_vms, b.inplace_vms);
  EXPECT_EQ(a.migrate_vms, b.migrate_vms);
  EXPECT_EQ(a.refused_vms, b.refused_vms);
  EXPECT_EQ(a.transplant_time, b.transplant_time);
  EXPECT_EQ(a.drain_time, b.drain_time);
  EXPECT_EQ(a.vm_downtime, b.vm_downtime);

  // Every guest of the host is decided, whatever the outcome split.
  EXPECT_EQ(a.inplace_vms + a.migrate_vms + a.refused_vms, config.vms_per_host);
}

// The fleet layer prices one HostPlanPeriod() of plans and indexes every host
// by phase; these two tests pin the periodicity that table relies on. A change
// to the SyntheticVmSignals mix that breaks kSyntheticVmPeriod fails here.
TEST(SyntheticVmSignalsTest, RepeatsWithTheDeclaredPeriod) {
  const auto expect_same = [](int64_t i, int64_t j) {
    const VmSignals a = SyntheticVmSignals(i);
    const VmSignals b = SyntheticVmSignals(j);
    EXPECT_EQ(a.memory_bytes, b.memory_bytes) << i << " vs " << j;
    EXPECT_EQ(a.vcpus, b.vcpus) << i << " vs " << j;
    EXPECT_EQ(a.activity, b.activity) << i << " vs " << j;
    EXPECT_EQ(a.dirty_fraction, b.dirty_fraction) << i << " vs " << j;
    EXPECT_EQ(a.dirty_factor, b.dirty_factor) << i << " vs " << j;
  };
  for (int64_t i = 0; i < 4 * kSyntheticVmPeriod; ++i) {
    expect_same(i, i + kSyntheticVmPeriod);
  }
  const int64_t far = (int64_t{1} << 46) - 3;  // 2^40 hosts x 64 VMs, off-phase.
  for (int64_t i = far; i < far + 2 * kSyntheticVmPeriod; ++i) {
    expect_same(i, i + kSyntheticVmPeriod);
  }

  // And no shorter period exists, so the cycle table is as small as it can be.
  for (int p = 1; p < kSyntheticVmPeriod; ++p) {
    if (kSyntheticVmPeriod % p != 0) {
      continue;  // Any period divides the least one.
    }
    bool repeats = true;
    for (int64_t i = 0; i < kSyntheticVmPeriod && repeats; ++i) {
      const VmSignals a = SyntheticVmSignals(i);
      const VmSignals b = SyntheticVmSignals(i + p);
      repeats = a.activity == b.activity && a.vcpus == b.vcpus;
    }
    EXPECT_FALSE(repeats) << "SyntheticVmSignals repeats every " << p << " VMs";
  }
}

void ExpectSamePlan(const HostPolicyPlan& a, const HostPolicyPlan& b, const std::string& what) {
  EXPECT_EQ(a.inplace_vms, b.inplace_vms) << what;
  EXPECT_EQ(a.migrate_vms, b.migrate_vms) << what;
  EXPECT_EQ(a.refused_vms, b.refused_vms) << what;
  EXPECT_EQ(a.transplant_time, b.transplant_time) << what;
  EXPECT_EQ(a.drain_time, b.drain_time) << what;
  EXPECT_EQ(a.vm_downtime, b.vm_downtime) << what;
}

TEST(MechanismPolicyTest, PlanHostRepeatsWithHostPlanPeriod) {
  // {vms_per_host, 40 / gcd(vms_per_host, 40)}.
  const std::vector<std::pair<int, int>> cases = {{1, 40},  {3, 40},  {7, 40}, {10, 4},
                                                  {16, 5},  {40, 1},  {41, 40}, {64, 5}};
  for (const auto& [vms_per_host, expected_period] : cases) {
    PolicyConfig config;
    config.mode = PolicyMode::kAdaptive;
    config.vms_per_host = vms_per_host;
    config.link_gbps = 0.5;  // Fat busy guests refuse, so refused plans repeat too.
    MechanismPolicy policy{config};
    EnvSignals env = policy.DefaultEnv();
    env.rollback_risk = 0.1;
    const int period = policy.HostPlanPeriod();
    ASSERT_EQ(period, expected_period) << "vms_per_host=" << vms_per_host;

    const int64_t far = int64_t{1} << 40;
    std::vector<int64_t> hosts;
    for (int64_t h = 0; h < 2 * period; ++h) {
      hosts.push_back(h);
      hosts.push_back(far - period + h);
    }
    for (const int64_t h : hosts) {
      const std::string what =
          "vms_per_host=" + std::to_string(vms_per_host) + " host=" + std::to_string(h);
      const HostPolicyPlan plan = policy.PlanHost(h, env, Seconds(10), Seconds(2), 1);
      ExpectSamePlan(plan, policy.PlanHost(h + period, env, Seconds(10), Seconds(2), 1), what);
      ExpectSamePlan(plan, policy.PlanHost(h % period, env, Seconds(10), Seconds(2), 1), what);
    }
  }
}

TEST(MechanismPolicyTest, RefusedHostCarriesCountsButZeroTimings) {
  PolicyConfig config;
  config.mode = PolicyMode::kAdaptive;
  config.link_gbps = 0.0;       // Migration infeasible everywhere...
  config.max_vm_pause = 0;      // ...and no pause fits: every guest refused.
  MechanismPolicy policy{config};
  const HostPolicyPlan plan = policy.PlanHost(0, policy.DefaultEnv(), Seconds(10), Seconds(2), 4);
  EXPECT_TRUE(plan.refused());
  EXPECT_EQ(plan.refused_vms, config.vms_per_host);
  EXPECT_EQ(plan.inplace_vms, 0);
  EXPECT_EQ(plan.migrate_vms, 0);
  EXPECT_EQ(plan.transplant_time, 0);
  EXPECT_EQ(plan.drain_time, 0);
  EXPECT_EQ(plan.vm_downtime, 0);
}

TEST(MechanismPolicyTest, MigratingGuestsExtendTheDrainNotTheTransplant) {
  PolicyConfig config;
  config.mode = PolicyMode::kAdaptive;
  MechanismPolicy policy{config};
  const EnvSignals env = policy.DefaultEnv();
  // Host 0 of the synthetic mix has streaming guests (indices 0-2), which
  // migrate under default budgets: its drain must exceed the base drain,
  // and its transplant (fewer in-place conversions) must not exceed base.
  const SimDuration base_transplant = Seconds(10);
  const SimDuration base_drain = Seconds(2);
  const HostPolicyPlan plan = policy.PlanHost(0, env, base_transplant, base_drain, 4);
  EXPECT_GT(plan.migrate_vms, 0);
  EXPECT_GT(plan.drain_time, base_drain);
  EXPECT_LE(plan.transplant_time, base_transplant);
  EXPECT_GT(plan.vm_downtime, 0);
}

// ---------------------------------------------------------------------------
// Config validation.
// ---------------------------------------------------------------------------

TEST(ValidatePolicyConfigTest, DefaultsAreValid) {
  EXPECT_TRUE(ValidatePolicyConfig(PolicyConfig{}, "test.").ok());
}

TEST(ValidatePolicyConfigTest, RejectsOutOfRangeKnobsNamingTheField) {
  const auto expect_rejects = [](PolicyConfig config, const std::string& field) {
    const Result<void> r = ValidatePolicyConfig(config, "FleetConfig::policy.");
    ASSERT_FALSE(r.ok()) << field;
    EXPECT_NE(r.error().ToString().find("FleetConfig::policy." + field), std::string::npos)
        << "error does not name the field: " << r.error().ToString();
  };

  PolicyConfig c;
  c.max_vm_pause = -Millis(1);
  expect_rejects(c, "max_vm_pause");

  c = PolicyConfig{};
  c.max_migration_duration = -Seconds(1);
  expect_rejects(c, "max_migration_duration");

  c = PolicyConfig{};
  c.min_migration_headroom = 1.5;
  expect_rejects(c, "min_migration_headroom");

  c = PolicyConfig{};
  c.host_headroom = -0.1;
  expect_rejects(c, "host_headroom");

  c = PolicyConfig{};
  c.host_headroom = std::nan("");  // NaN never satisfies a fraction check.
  expect_rejects(c, "host_headroom");

  c = PolicyConfig{};
  c.link_gbps = -1.0;
  expect_rejects(c, "link_gbps");

  c = PolicyConfig{};
  c.link_gbps = std::numeric_limits<double>::infinity();
  expect_rejects(c, "link_gbps");

  c = PolicyConfig{};
  c.vms_per_host = 0;
  expect_rejects(c, "vms_per_host");

  c = PolicyConfig{};
  c.migration_streams = -1;
  expect_rejects(c, "migration_streams");

  c = PolicyConfig{};
  c.migration_vm_downtime = -Millis(1);
  expect_rejects(c, "migration_vm_downtime");
}

}  // namespace
}  // namespace policy
}  // namespace hypertp
