// Tests for the sharded campaign control plane: rack-aware planning,
// bandwidth/capacity-constrained admission, near-linear shard scaling,
// SLO-driven throttling and abort, streaming exposure analytics, report
// determinism across real-thread counts and the telemetry JSON golden output.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>

#include "src/campaign/campaign.h"
#include "src/vulndb/exposure_stream.h"

namespace hypertp {
namespace {

// Two datacenters, six racks, 60 hosts / 600 VMs: small enough for tests,
// big enough to exercise multi-shard coordination.
CampaignConfig BaseConfig() {
  CampaignConfig config;
  CampaignDatacenter east;
  east.name = "east";
  east.racks = 4;
  east.hosts_per_rack = 10;
  CampaignDatacenter west;
  west.name = "west";
  west.racks = 2;
  west.hosts_per_rack = 10;
  config.datacenters = {east, west};
  config.shards = 3;
  config.parallel_hosts_per_shard = 5;
  config.per_host_transplant = Seconds(10);
  config.epoch = Seconds(5);
  config.seed = 42;
  return config;
}

TEST(CampaignPlanTest, ShardsPartitionRacksWithoutSplitting) {
  CampaignConfig config = BaseConfig();
  config.datacenters[1].hosts_per_rack = 5;  // east 40 hosts, west 10.
  Result<CampaignPlan> planned = PlanCampaign(config);
  ASSERT_TRUE(planned.ok()) << planned.error().ToString();
  const CampaignPlan& plan = *planned;

  EXPECT_EQ(plan.total_hosts, 50);
  EXPECT_EQ(plan.total_racks, 6);
  EXPECT_EQ(plan.total_vms, 500);
  // D'Hondt by host count: east (40 hosts) takes the extra shard.
  ASSERT_EQ(plan.shards_per_datacenter.size(), 2u);
  EXPECT_EQ(plan.shards_per_datacenter[0], 2);
  EXPECT_EQ(plan.shards_per_datacenter[1], 1);

  // Every rack of every DC is owned by exactly one shard of that DC.
  ASSERT_EQ(plan.shards.size(), 3u);
  for (size_t d = 0; d < config.datacenters.size(); ++d) {
    std::set<int> seen;
    int hosts = 0;
    for (const CampaignShardPlan& shard : plan.shards) {
      if (shard.datacenter != static_cast<int>(d)) {
        continue;
      }
      EXPECT_FALSE(shard.racks.empty());
      for (int rack : shard.racks) {
        EXPECT_TRUE(seen.insert(rack).second) << "rack " << rack << " split across shards";
      }
      hosts += shard.hosts;
    }
    EXPECT_EQ(static_cast<int>(seen.size()), config.datacenters[d].racks);
    EXPECT_EQ(hosts, config.datacenters[d].hosts());
  }
  // Shard ids are dense and in DC order.
  for (size_t i = 0; i < plan.shards.size(); ++i) {
    EXPECT_EQ(plan.shards[i].id, static_cast<int>(i));
  }
}

TEST(CampaignPlanTest, RejectsDegenerateConfigs) {
  CampaignConfig config = BaseConfig();
  config.datacenters.clear();
  EXPECT_FALSE(PlanCampaign(config).ok());

  config = BaseConfig();
  config.shards = 1;  // Two DCs need at least two shards.
  Result<CampaignPlan> too_few = PlanCampaign(config);
  ASSERT_FALSE(too_few.ok());
  EXPECT_NE(too_few.error().message().find("shards"), std::string::npos);

  config = BaseConfig();
  config.shards = 7;  // Only six racks exist.
  EXPECT_FALSE(PlanCampaign(config).ok());

  config = BaseConfig();
  config.epoch = 0;
  EXPECT_FALSE(PlanCampaign(config).ok());

  config = BaseConfig();
  config.datacenters[0].hosts_per_rack = 0;
  Result<CampaignPlan> empty_rack = PlanCampaign(config);
  ASSERT_FALSE(empty_rack.ok());
  EXPECT_NE(empty_rack.error().message().find("east"), std::string::npos);

  // Per-shard fleet knobs are validated up front with field-naming errors.
  config = BaseConfig();
  config.failure_probability = 1.5;
  Result<CampaignPlan> bad_prob = PlanCampaign(config);
  ASSERT_FALSE(bad_prob.ok());
  EXPECT_EQ(bad_prob.error().code(), ErrorCode::kInvalidArgument);
  EXPECT_NE(bad_prob.error().message().find("failure_probability"), std::string::npos);
}

TEST(CampaignPlanTest, RejectsHostCountsThatOverflowInt) {
  // 50000 x 50000 = 2.5e9 hosts in one datacenter: more than an int holds.
  CampaignConfig config = BaseConfig();
  config.datacenters[0].racks = 50000;
  config.datacenters[0].hosts_per_rack = 50000;
  Result<CampaignPlan> one_dc = PlanCampaign(config);
  ASSERT_FALSE(one_dc.ok()) << "total_hosts " << one_dc->total_hosts;
  EXPECT_EQ(one_dc.error().code(), ErrorCode::kInvalidArgument);
  EXPECT_NE(one_dc.error().message().find("east"), std::string::npos);
  EXPECT_NE(one_dc.error().message().find("hosts_per_rack"), std::string::npos);

  // Each DC fits an int; their sum does not.
  config = BaseConfig();
  for (CampaignDatacenter& dc : config.datacenters) {
    dc.racks = 40000;
    dc.hosts_per_rack = 30000;
  }
  Result<CampaignPlan> total = PlanCampaign(config);
  ASSERT_FALSE(total.ok()) << "total_hosts " << total->total_hosts;
  EXPECT_EQ(total.error().code(), ErrorCode::kInvalidArgument);
  EXPECT_NE(total.error().message().find("CampaignConfig::datacenters"), std::string::npos);
  EXPECT_NE(total.error().message().find("west"), std::string::npos);

  // Exactly INT_MAX hosts still plans.
  config = BaseConfig();
  config.datacenters.resize(1);
  config.datacenters[0].racks = 1;
  config.datacenters[0].hosts_per_rack = std::numeric_limits<int>::max();
  config.shards = 1;
  Result<CampaignPlan> at_limit = PlanCampaign(config);
  ASSERT_TRUE(at_limit.ok()) << at_limit.error().ToString();
  EXPECT_EQ(at_limit->total_hosts, std::numeric_limits<int>::max());
  EXPECT_EQ(at_limit->total_vms, int64_t{std::numeric_limits<int>::max()} * 10);
}

TEST(CampaignTest, FaultFreeCampaignUpgradesEveryHost) {
  CampaignPlanner planner(BaseConfig());
  Result<CampaignReport> run = planner.Run();
  ASSERT_TRUE(run.ok()) << run.error().ToString();
  const CampaignReport& report = *run;

  EXPECT_TRUE(report.complete);
  EXPECT_FALSE(report.aborted);
  EXPECT_EQ(report.hosts, 60);
  EXPECT_EQ(report.vms, 600);
  EXPECT_EQ(report.upgraded, 60);
  EXPECT_EQ(report.failed, 0);
  EXPECT_EQ(report.untouched, 0);
  EXPECT_EQ(report.throttled_epochs, 0);
  EXPECT_EQ(report.final_fraction_vulnerable, 0.0);
  EXPECT_EQ(static_cast<int>(report.shard_summaries.size()), report.shards);
  // Unconstrained admission: every shard starts at t=0; the makespan is the
  // slowest shard's (east shards: 20 hosts / 5 parallel -> 4 waves x 10 s).
  for (const CampaignShardSummary& shard : report.shard_summaries) {
    EXPECT_EQ(shard.admitted, 0);
    EXPECT_TRUE(shard.complete);
  }
  EXPECT_EQ(report.makespan, Seconds(40));
}

TEST(CampaignTest, MakespanScalesNearLinearlyWithShards) {
  // One DC, 8 racks x 100 hosts; each shard runs the same wave width, so
  // sharding divides the wave count: fault-free scaling is exactly linear.
  SimDuration makespan[9] = {};
  for (int shards : {1, 2, 4, 8}) {
    CampaignConfig config;
    CampaignDatacenter dc;
    dc.name = "dc";
    dc.racks = 8;
    dc.hosts_per_rack = 100;
    config.datacenters = {dc};
    config.shards = shards;
    config.parallel_hosts_per_shard = 10;
    config.per_host_transplant = Seconds(10);
    CampaignPlanner planner(config);
    Result<CampaignReport> run = planner.Run();
    ASSERT_TRUE(run.ok()) << run.error().ToString();
    EXPECT_TRUE(run->complete);
    makespan[shards] = run->makespan;
  }
  EXPECT_EQ(makespan[1], Seconds(800));  // 800 hosts / 10 wide.
  EXPECT_EQ(makespan[2], makespan[1] / 2);
  EXPECT_EQ(makespan[4], makespan[1] / 4);
  EXPECT_EQ(makespan[8], makespan[1] / 8);
}

TEST(CampaignTest, BandwidthSlotsSerializeShardsOfOneDatacenter) {
  CampaignConfig config;
  CampaignDatacenter dc;
  dc.name = "dc";
  dc.racks = 2;
  dc.hosts_per_rack = 10;
  dc.bandwidth_slots = 1;  // One shard's traffic at a time on this WAN.
  config.datacenters = {dc};
  config.shards = 2;
  config.parallel_hosts_per_shard = 10;
  config.per_host_transplant = Seconds(10);
  config.epoch = Seconds(5);
  CampaignPlanner planner(config);
  Result<CampaignReport> run = planner.Run();
  ASSERT_TRUE(run.ok()) << run.error().ToString();
  const CampaignReport& report = *run;

  EXPECT_TRUE(report.complete);
  ASSERT_EQ(report.shard_summaries.size(), 2u);
  EXPECT_EQ(report.shard_summaries[0].admitted, 0);
  // Shard 1 waits for shard 0's slot (10 s of work, detected at a barrier).
  EXPECT_GE(report.shard_summaries[1].admitted, Seconds(10));
  EXPECT_GE(report.makespan, Seconds(20));
  EXPECT_LE(report.makespan, Seconds(30));
}

TEST(CampaignTest, GlobalConcurrencyCapHoldsAcrossDatacenters) {
  CampaignConfig config = BaseConfig();
  config.shards = 3;
  config.max_concurrent_shards = 1;
  CampaignPlanner planner(config);
  Result<CampaignReport> run = planner.Run();
  ASSERT_TRUE(run.ok()) << run.error().ToString();
  const CampaignReport& report = *run;

  EXPECT_TRUE(report.complete);
  // Admissions never overlap: each shard starts at or after the previous
  // one's finish time.
  ASSERT_EQ(report.shard_summaries.size(), 3u);
  std::vector<const CampaignShardSummary*> by_admission;
  for (const CampaignShardSummary& shard : report.shard_summaries) {
    by_admission.push_back(&shard);
  }
  std::sort(by_admission.begin(), by_admission.end(),
            [](const CampaignShardSummary* a, const CampaignShardSummary* b) {
              return a->admitted < b->admitted;
            });
  for (size_t i = 1; i < by_admission.size(); ++i) {
    EXPECT_GE(by_admission[i]->admitted,
              by_admission[i - 1]->admitted + by_admission[i - 1]->makespan);
  }
}

// Rollback storm: every failed attempt is a post-pause fault, so the
// trailing-window rollback rate tracks the injected failure probability.
CampaignConfig StormConfig() {
  CampaignConfig config = BaseConfig();
  config.failure_probability = 0.5;
  config.post_pause_fraction = 1.0;
  config.max_retries = 6;
  config.retry_backoff = Seconds(2);
  config.rollback_time = Seconds(2);
  return config;
}

TEST(CampaignTest, SloThrottleSlowsTheCampaignUnderRollbackStorm) {
  CampaignConfig baseline = StormConfig();
  CampaignConfig throttled = StormConfig();
  throttled.slo.throttle_rollback_rate = 0.05;
  throttled.slo.throttle_hold = Seconds(60);

  Result<CampaignReport> base_run = CampaignPlanner(baseline).Run();
  Result<CampaignReport> slow_run = CampaignPlanner(throttled).Run();
  ASSERT_TRUE(base_run.ok()) << base_run.error().ToString();
  ASSERT_TRUE(slow_run.ok()) << slow_run.error().ToString();

  EXPECT_EQ(base_run->throttled_epochs, 0);
  EXPECT_GT(slow_run->throttled_epochs, 0);
  // Same faults, same retries — the throttle only defers waves, so the
  // governed campaign takes strictly longer and upgrades the same hosts.
  EXPECT_GT(slow_run->makespan, base_run->makespan);
  EXPECT_EQ(slow_run->upgraded, base_run->upgraded);
  EXPECT_FALSE(slow_run->aborted);
}

TEST(CampaignTest, SloAbortKillsTheCampaignUnderRollbackStorm) {
  CampaignConfig config = StormConfig();
  config.failure_probability = 0.9;
  config.slo.abort_rollback_rate = 0.2;
  config.slo.rate_window_epochs = 2;
  Result<CampaignReport> run = CampaignPlanner(config).Run();
  ASSERT_TRUE(run.ok()) << run.error().ToString();

  EXPECT_TRUE(run->aborted);
  EXPECT_FALSE(run->complete);
  EXPECT_EQ(run->abort_reason, "rollback_rate");
  // The campaign died early: most of the fleet never transplanted.
  EXPECT_GT(run->untouched, 0);
  EXPECT_GT(run->final_fraction_vulnerable, 0.0);
}

TEST(CampaignTest, FailedFractionBudgetAborts) {
  CampaignConfig config = BaseConfig();
  config.failure_probability = 1.0;  // Every attempt fails...
  config.max_retries = 0;            // ...and hosts park in kFailed at once.
  config.abort_threshold = 0.1;
  Result<CampaignReport> run = CampaignPlanner(config).Run();
  ASSERT_TRUE(run.ok()) << run.error().ToString();

  EXPECT_TRUE(run->aborted);
  EXPECT_EQ(run->abort_reason, "failed_fraction");
  EXPECT_EQ(run->upgraded, 0);
}

TEST(CampaignTest, UnavailableFractionBudgetThrottles) {
  CampaignConfig config = BaseConfig();
  config.drain_time = Seconds(20);  // Long drains keep many hosts down.
  config.slo.max_unavailable_fraction = 0.1;
  config.slo.throttle_hold = Seconds(30);
  Result<CampaignReport> run = CampaignPlanner(config).Run();
  ASSERT_TRUE(run.ok()) << run.error().ToString();

  // 15 of 60 hosts in flight at full width blows the 10% budget; the
  // governor must have spent barriers throttled, yet the campaign finishes.
  EXPECT_GT(run->throttled_epochs, 0);
  EXPECT_TRUE(run->complete);
}

TEST(CampaignTest, ExposureCurveIsMonotoneAndClosesAtZero) {
  CampaignConfig config = StormConfig();
  config.exposure_min_fraction_delta = 0.0;  // Record every drop.
  Result<CampaignReport> run = CampaignPlanner(config).Run();
  ASSERT_TRUE(run.ok()) << run.error().ToString();
  const std::vector<ExposureCurvePoint>& curve = run->exposure_curve;

  ASSERT_GE(curve.size(), 2u);
  EXPECT_EQ(curve.front().fraction, 1.0);
  EXPECT_EQ(curve.front().time, 0);
  for (size_t i = 1; i < curve.size(); ++i) {
    EXPECT_GE(curve[i].time, curve[i - 1].time);
    EXPECT_LE(curve[i].fraction, curve[i - 1].fraction);
  }
  if (run->complete) {
    EXPECT_EQ(curve.back().fraction, 0.0);
  }
  EXPECT_GT(run->exposed_vm_days, 0.0);
  EXPECT_GT(run->exposed_host_days, 0.0);
}

TEST(CampaignTest, ReportAndObservabilityAreByteIdenticalAcrossThreadCounts) {
  std::string report_json[2];
  std::string trace_json[2];
  std::string metrics_json[2];
  const int threads[2] = {1, 4};
  for (int i = 0; i < 2; ++i) {
    Tracer tracer;
    MetricsRegistry metrics;
    CampaignConfig config = StormConfig();
    config.latency_jitter = 0.3;
    config.real_threads = threads[i];
    config.tracer = &tracer;
    config.metrics = &metrics;
    Result<CampaignReport> run = CampaignPlanner(config).Run();
    ASSERT_TRUE(run.ok()) << run.error().ToString();
    report_json[i] = CampaignReportToJson(*run);
    trace_json[i] = tracer.ToChromeTraceJson();
    metrics_json[i] = metrics.ToJson();
  }
  EXPECT_EQ(report_json[0], report_json[1]);
  EXPECT_EQ(trace_json[0], trace_json[1]);
  EXPECT_EQ(metrics_json[0], metrics_json[1]);
}

TEST(CampaignTest, RunIsSingleShot) {
  CampaignPlanner planner(BaseConfig());
  ASSERT_TRUE(planner.Run().ok());
  Result<CampaignReport> again = planner.Run();
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.error().code(), ErrorCode::kFailedPrecondition);
}

TEST(CampaignTest, TracerRecordsCampaignShardsAndExposure) {
  Tracer tracer;
  CampaignConfig config = BaseConfig();
  config.tracer = &tracer;
  Result<CampaignReport> run = CampaignPlanner(config).Run();
  ASSERT_TRUE(run.ok()) << run.error().ToString();

  const Span* campaign = tracer.FindSpan("campaign");
  ASSERT_NE(campaign, nullptr);
  EXPECT_EQ(campaign->duration(), run->makespan);
  EXPECT_EQ(tracer.SpansNamed("exposure").size(), run->exposure_curve.size());
  EXPECT_EQ(static_cast<int>(tracer.ChildrenOf(campaign->id).size()), run->shards);
  EXPECT_EQ(tracer.open_span_count(), 0u);
}

TEST(CampaignReportJsonTest, GoldenOutput) {
  CampaignReport report;
  report.shards = 2;
  report.datacenters = 1;
  report.hosts = 8;
  report.vms = 80;
  report.upgraded = 7;
  report.failed = 1;
  report.untouched = 0;
  report.retries = 2;
  report.post_pause_faults = 1;
  report.rollbacks = 1;
  report.rollback_failures = 0;
  report.crashes = 3;
  report.crash_salvages = 2;
  report.crash_live_recoveries = 0;
  report.crash_rollbacks = 1;
  report.crash_upgrades = 1;
  report.crash_data_loss = 1;
  report.lost = 1;
  report.epochs = 3;
  report.throttled_epochs = 1;
  report.aborted = false;
  report.complete = false;
  report.makespan = Seconds(120);
  report.final_fraction_vulnerable = 0.125;
  report.exposed_host_days = 0.5;
  report.exposed_vm_days = 5.0;
  report.exposure_curve = {{0, 80, 1.0}, {Seconds(60), 40, 0.5}, {Seconds(120), 10, 0.125}};
  report.wall_ms = 12.5;  // Host time: never serialized.
  CampaignShardSummary a;
  a.id = 0;
  a.datacenter = 0;
  a.hosts = 4;
  a.upgraded = 4;
  a.retries = 1;
  a.waves = 2;
  a.complete = true;
  a.admitted = 0;
  a.makespan = Seconds(100);
  CampaignShardSummary b;
  b.id = 1;
  b.datacenter = 0;
  b.hosts = 4;
  b.upgraded = 3;
  b.failed = 1;
  b.retries = 1;
  b.waves = 2;
  b.post_pause_faults = 1;
  b.rollbacks = 1;
  b.crashes = 3;
  b.crash_rollbacks = 1;
  b.lost = 1;
  b.admitted = -1;
  b.makespan = Seconds(120);
  report.shard_summaries = {a, b};
  report.shard_makespan_seconds.Add(100.0);
  report.shard_makespan_seconds.Add(120.0);
  report.recovery_latency_seconds.Add(8.0);
  report.recovery_latency_seconds.Add(12.0);

  const std::string expected =
      R"({"kind":"campaign","shards":2,"datacenters":1,"hosts":8,"vms":80,)"
      R"("upgraded":7,"failed":1,"untouched":0,"retries":2,"post_pause_faults":1,)"
      R"("rollbacks":1,"rollback_failures":0,"crashes":3,"crash_salvages":2,)"
      R"("crash_live_recoveries":0,"crash_rollbacks":1,"crash_upgrades":1,)"
      R"("crash_data_loss":1,"lost":1,"refused":0,)"
      R"("policy":{"mode":"fixed","inplace_vms":0,"migrate_vms":0,"refused_vms":0,)"
      R"("vm_downtime_ms":0},"steals":0,"stolen_hosts":0,"idle_epochs_skipped":0,)"
      R"("aborted":false,"complete":false,"makespan_ms":120000,)"
      R"("slo":{"epochs":3,"throttled_epochs":1,"abort_reason":""},)"
      R"("exposure":{"final_fraction_vulnerable":0.125,"exposed_host_days":0.5,)"
      R"("exposed_vm_days":5,"curve":[[0,80,1],[60000,40,0.5],[120000,10,0.125]]},)"
      R"("shard_makespan_seconds":{"count":2,"p50":110,"p99":119.8,"max":120},)"
      R"("recovery_latency_seconds":{"count":2,"p50":10,"p99":11.96,"max":12},)"
      R"("shards_detail":[)"
      R"({"id":0,"datacenter":0,"hosts":4,"upgraded":4,"failed":0,"untouched":0,)"
      R"("retries":1,"waves":2,"post_pause_faults":0,"rollbacks":0,)"
      R"("rollback_failures":0,"crashes":0,"crash_rollbacks":0,"lost":0,)"
      R"("refused":0,"stolen_in":0,"stolen_out":0,)"
      R"("aborted":false,"complete":true,"admitted_ms":0,)"
      R"("makespan_ms":100000},)"
      R"({"id":1,"datacenter":0,"hosts":4,"upgraded":3,"failed":1,"untouched":0,)"
      R"("retries":1,"waves":2,"post_pause_faults":1,"rollbacks":1,)"
      R"("rollback_failures":0,"crashes":3,"crash_rollbacks":1,"lost":1,)"
      R"("refused":0,"stolen_in":0,"stolen_out":0,)"
      R"("aborted":false,"complete":false,"admitted_ms":-1,)"
      R"("makespan_ms":120000}]})";
  EXPECT_EQ(CampaignReportToJson(report), expected);
}

TEST(ExposureStreamTest, IntegralsAndFractionMatchHandComputation) {
  ExposureStream stream(10, 100);
  stream.OnHostsSafe(Seconds(10), 5, 50);
  stream.Seal(Seconds(20));

  EXPECT_EQ(stream.exposed_hosts(), 5);
  EXPECT_EQ(stream.exposed_vms(), 50);
  EXPECT_DOUBLE_EQ(stream.fraction_vulnerable(), 0.5);
  // 10 hosts x 10 s + 5 hosts x 10 s = 150 host-seconds.
  EXPECT_DOUBLE_EQ(stream.exposed_host_days(), 150.0 / 86400.0);
  EXPECT_DOUBLE_EQ(stream.exposed_vm_days(), 1500.0 / 86400.0);
}

TEST(ExposureStreamTest, OutOfOrderFeedsClampForward) {
  ExposureStream stream(10, 100);
  stream.OnHostsSafe(Seconds(10), 2, 20);
  stream.OnHostsSafe(Seconds(5), 2, 20);  // Late event: counted, not rewound.
  EXPECT_EQ(stream.exposed_hosts(), 6);
  EXPECT_EQ(stream.last_update(), Seconds(10));
  // Over-reporting never goes negative.
  stream.OnHostsSafe(Seconds(12), 100, 1000);
  EXPECT_EQ(stream.exposed_hosts(), 0);
  EXPECT_EQ(stream.exposed_vms(), 0);
  EXPECT_DOUBLE_EQ(stream.fraction_vulnerable(), 0.0);
}

TEST(ExposureStreamTest, DownsamplingBoundsTheCurve) {
  ExposureStreamOptions options;
  options.min_fraction_delta = 0.1;
  ExposureStream stream(1000, 1000, 0, options);
  for (int i = 0; i < 1000; ++i) {
    stream.OnHostsSafe(Seconds(i + 1), 1, 1);  // 0.1% per event.
  }
  stream.Seal(Seconds(1001));
  // 0.1 epsilon admits ~10 interior points plus the forced first/last.
  EXPECT_LE(stream.curve().size(), 13u);
  EXPECT_EQ(stream.curve().front().fraction, 1.0);
  EXPECT_EQ(stream.curve().back().fraction, 0.0);
}

TEST(ExposureStreamTest, ReExposureRaisesTheFractionAndRecordsPoints) {
  ExposureStream stream(10, 100);
  stream.OnHostsSafe(Seconds(10), 8, 80);
  stream.OnHostsExposed(Seconds(20), 3, 30);  // Crash rollbacks re-expose.
  EXPECT_EQ(stream.exposed_hosts(), 5);
  EXPECT_EQ(stream.exposed_vms(), 50);
  EXPECT_DOUBLE_EQ(stream.fraction_vulnerable(), 0.5);
  // The rise landed on the curve (abs-delta downsampling).
  ASSERT_GE(stream.curve().size(), 3u);
  EXPECT_GT(stream.curve().back().fraction, stream.curve()[stream.curve().size() - 2].fraction);
  // Clamped to the totals: over-reporting re-exposure never exceeds the fleet.
  stream.OnHostsExposed(Seconds(30), 100, 1000);
  EXPECT_EQ(stream.exposed_hosts(), 10);
  EXPECT_EQ(stream.exposed_vms(), 100);
}

// ---------------------------------------------------------------------------
// Crash storms at campaign scope: per-DC Poisson storms thinned across the
// DC's shards, SLO budgets that keep crash-induced rollbacks apart from
// upgrade-induced faults, and the recovery traffic in the merged report.

CampaignConfig CrashStormCampaignConfig() {
  CampaignConfig config = BaseConfig();
  // Storm only over east; west stays quiet so the split is observable.
  CrashStormConfig& storm = config.datacenters[0].crash_storm;
  storm.rate_per_hour = 2400.0;  // ~0.67/s DC-wide over the storm window.
  storm.duration = Seconds(120);
  storm.recovery_time = Seconds(4);
  storm.pre_pause_fraction = 0.2;
  storm.mid_save_torn_fraction = 0.1;
  config.seed = 11;
  return config;
}

TEST(CampaignStormTest, StormTrafficFlowsIntoTheMergedReport) {
  Result<CampaignReport> run = CampaignPlanner(CrashStormCampaignConfig()).Run();
  ASSERT_TRUE(run.ok()) << run.error().ToString();
  const CampaignReport& report = *run;

  EXPECT_GT(report.crashes, 0);
  // Every strike resolves through the salvage taxonomy, nowhere else.
  EXPECT_EQ(report.crash_salvages + report.crash_live_recoveries + report.lost, report.crashes);
  EXPECT_EQ(report.upgraded + report.lost + report.failed + report.untouched, report.hosts);
  EXPECT_EQ(static_cast<int>(report.recovery_latency_seconds.count()),
            report.crash_salvages + report.crash_live_recoveries);
  // Quiet-DC shards saw no strikes: crashes live only in east's shards.
  for (const CampaignShardSummary& shard : report.shard_summaries) {
    if (shard.datacenter == 1) {
      EXPECT_EQ(shard.crashes, 0) << "storm leaked into quiet DC, shard " << shard.id;
    }
  }
  int shard_crashes = 0;
  for (const CampaignShardSummary& shard : report.shard_summaries) {
    shard_crashes += shard.crashes;
  }
  EXPECT_EQ(shard_crashes, report.crashes);
}

TEST(CampaignStormTest, StormReportsAreByteIdenticalAcrossThreadCounts) {
  std::string json[2];
  for (int i = 0; i < 2; ++i) {
    CampaignConfig config = CrashStormCampaignConfig();
    config.real_threads = i == 0 ? 1 : 4;
    Result<CampaignReport> run = CampaignPlanner(config).Run();
    ASSERT_TRUE(run.ok()) << run.error().ToString();
    json[i] = CampaignReportToJson(*run);
  }
  EXPECT_EQ(json[0], json[1]);
}

TEST(CampaignStormTest, CrashRollbacksReExposeOnTheCampaignCurve) {
  CampaignConfig config = CrashStormCampaignConfig();
  // Slow the rollout so strikes land on already-upgraded hosts and the
  // same-kind salvage reverts them.
  config.parallel_hosts_per_shard = 2;
  config.datacenters[0].crash_storm.start = Seconds(40);
  Result<CampaignReport> run = CampaignPlanner(config).Run();
  ASSERT_TRUE(run.ok()) << run.error().ToString();
  ASSERT_GT(run->crash_rollbacks, 0) << "seed produced no crash rollbacks";

  // The exposure fraction must tick back up somewhere: re-exposure is real.
  bool rose = false;
  for (size_t i = 1; i < run->exposure_curve.size(); ++i) {
    rose |= run->exposure_curve[i].fraction > run->exposure_curve[i - 1].fraction;
  }
  EXPECT_TRUE(rose);
}

TEST(CampaignStormTest, CrashBudgetsAbortWithTheirOwnReason) {
  // Unrecoverable strikes: every crash is a data loss, so the crash-loss
  // budget trips while the upgrade-side budgets (disabled) stay silent.
  CampaignConfig config = CrashStormCampaignConfig();
  config.datacenters[0].crash_storm.recover = false;
  config.slo.abort_crash_loss_fraction = 0.02;
  Result<CampaignReport> run = CampaignPlanner(config).Run();
  ASSERT_TRUE(run.ok()) << run.error().ToString();
  EXPECT_TRUE(run->aborted);
  EXPECT_EQ(run->abort_reason, "crash_loss_fraction");

  // Crash-rollback abort uses its own reason, distinct from "rollback_rate".
  CampaignConfig rollback_config = CrashStormCampaignConfig();
  rollback_config.parallel_hosts_per_shard = 2;
  rollback_config.datacenters[0].crash_storm.start = Seconds(40);
  rollback_config.slo.abort_crash_rollback_rate = 0.01;
  Result<CampaignReport> rollback_run = CampaignPlanner(rollback_config).Run();
  ASSERT_TRUE(rollback_run.ok()) << rollback_run.error().ToString();
  EXPECT_TRUE(rollback_run->aborted);
  EXPECT_EQ(rollback_run->abort_reason, "crash_rollback_rate");
}

TEST(CampaignStormTest, UpgradeFaultBudgetIgnoresCrashRollbacks) {
  // A storm producing crash rollbacks but zero post-pause faults must never
  // trip the upgrade-side rollback budget.
  CampaignConfig config = CrashStormCampaignConfig();
  config.parallel_hosts_per_shard = 2;
  config.datacenters[0].crash_storm.start = Seconds(40);
  config.slo.abort_rollback_rate = 0.01;  // Hair trigger on the wrong budget.
  Result<CampaignReport> run = CampaignPlanner(config).Run();
  ASSERT_TRUE(run.ok()) << run.error().ToString();
  ASSERT_GT(run->crash_rollbacks, 0);
  EXPECT_EQ(run->post_pause_faults, 0);
  EXPECT_NE(run->abort_reason, "rollback_rate");
}

TEST(CampaignStormTest, QuietStormConfigKeepsLegacyBytes) {
  // A default (disabled) storm must not perturb a storm-free campaign.
  CampaignConfig off = BaseConfig();
  Result<CampaignReport> base = CampaignPlanner(off).Run();
  ASSERT_TRUE(base.ok());
  CampaignConfig zeroed = BaseConfig();
  zeroed.datacenters[0].crash_storm = CrashStormConfig{};
  Result<CampaignReport> same = CampaignPlanner(zeroed).Run();
  ASSERT_TRUE(same.ok());
  EXPECT_EQ(CampaignReportToJson(*base), CampaignReportToJson(*same));
}

TEST(CampaignStormTest, PlanRejectsMalformedStormWithDatacenterContext) {
  CampaignConfig config = BaseConfig();
  config.datacenters[1].crash_storm.rate_per_hour = 10.0;
  config.datacenters[1].crash_storm.pre_pause_fraction = 1.5;
  Result<CampaignPlan> planned = PlanCampaign(config);
  ASSERT_FALSE(planned.ok());
  EXPECT_EQ(planned.error().code(), ErrorCode::kInvalidArgument);
  EXPECT_NE(planned.error().message().find("west"), std::string::npos);
  EXPECT_NE(planned.error().message().find("pre_pause_fraction"), std::string::npos);
}

TEST(CampaignPolicyTest, FixedModeReportJsonCarriesAZeroPolicyBlock) {
  Result<CampaignReport> run = CampaignPlanner(BaseConfig()).Run();
  ASSERT_TRUE(run.ok()) << run.error().ToString();
  EXPECT_FALSE(run->policy_adaptive);
  EXPECT_EQ(run->refused, 0);
  const std::string json = CampaignReportToJson(*run);
  EXPECT_NE(json.find(R"("refused":0,"policy":{"mode":"fixed","inplace_vms":0,)"),
            std::string::npos)
      << json;
}

TEST(CampaignPolicyTest, AdaptiveDecisionsAreInvariantAcrossShardCounts) {
  // The tentpole's resharding contract: per-VM decisions key on the host's
  // campaign-global id, so any shard partition of the same topology reaches
  // the identical decision multiset (and identical per-DC refusals).
  CampaignReport reports[3];
  const int shard_counts[3] = {2, 3, 6};
  for (int i = 0; i < 3; ++i) {
    CampaignConfig config = BaseConfig();
    config.policy.mode = policy::PolicyMode::kAdaptive;
    // One congested DC so the decision mix differs per datacenter.
    config.datacenters[1].link_gbps = 0.5;
    config.shards = shard_counts[i];
    Result<CampaignReport> run = CampaignPlanner(config).Run();
    ASSERT_TRUE(run.ok()) << run.error().ToString();
    reports[i] = *run;
  }
  for (int i = 1; i < 3; ++i) {
    EXPECT_EQ(reports[i].policy_inplace_vms, reports[0].policy_inplace_vms);
    EXPECT_EQ(reports[i].policy_migrate_vms, reports[0].policy_migrate_vms);
    EXPECT_EQ(reports[i].policy_refused_vms, reports[0].policy_refused_vms);
    EXPECT_EQ(reports[i].refused, reports[0].refused);
    EXPECT_EQ(reports[i].policy_vm_downtime, reports[0].policy_vm_downtime);
  }
  EXPECT_TRUE(reports[0].policy_adaptive);
  EXPECT_GT(reports[0].policy_inplace_vms, 0);
  EXPECT_GT(reports[0].policy_migrate_vms, 0);
  // The congested west DC refuses its fat dirty guests; east refuses none.
  EXPECT_GT(reports[0].refused, 0);
}

TEST(CampaignPolicyTest, AdaptiveReportIsByteIdenticalAcrossThreadCounts) {
  std::string report_json[2];
  std::string trace_json[2];
  std::string metrics_json[2];
  const int threads[2] = {1, 4};
  for (int i = 0; i < 2; ++i) {
    Tracer tracer;
    MetricsRegistry metrics;
    CampaignConfig config = BaseConfig();
    config.policy.mode = policy::PolicyMode::kAdaptive;
    config.datacenters[1].link_gbps = 0.5;
    config.latency_jitter = 0.3;
    config.real_threads = threads[i];
    config.tracer = &tracer;
    config.metrics = &metrics;
    Result<CampaignReport> run = CampaignPlanner(config).Run();
    ASSERT_TRUE(run.ok()) << run.error().ToString();
    report_json[i] = CampaignReportToJson(*run);
    trace_json[i] = tracer.ToChromeTraceJson();
    metrics_json[i] = metrics.ToJson();
  }
  EXPECT_EQ(report_json[0], report_json[1]);
  EXPECT_EQ(trace_json[0], trace_json[1]);
  EXPECT_EQ(metrics_json[0], metrics_json[1]);
  // The adaptive block actually made it into the compared bytes.
  EXPECT_NE(report_json[0].find("\"policy\""), std::string::npos);
}

TEST(CampaignPolicyTest, RefusedHostsSurfaceInShardSummariesAndMetrics) {
  Tracer tracer;
  MetricsRegistry metrics;
  CampaignConfig config = BaseConfig();
  config.policy.mode = policy::PolicyMode::kAdaptive;
  config.datacenters[1].link_gbps = 0.5;
  config.tracer = &tracer;
  config.metrics = &metrics;
  Result<CampaignReport> run = CampaignPlanner(config).Run();
  ASSERT_TRUE(run.ok()) << run.error().ToString();

  int summed_refused = 0;
  for (const CampaignShardSummary& shard : run->shard_summaries) {
    summed_refused += shard.refused;
    // Refusals only happen in the congested west DC (datacenter 1).
    if (shard.datacenter == 0) {
      EXPECT_EQ(shard.refused, 0);
    }
  }
  EXPECT_EQ(summed_refused, run->refused);
  EXPECT_GT(run->refused, 0);
  EXPECT_FALSE(run->complete);  // Refused hosts were never upgraded.
  EXPECT_EQ(metrics.GetCounter("hypertp_policy_refused").value(),
            static_cast<uint64_t>(run->policy_refused_vms));
  EXPECT_EQ(metrics.GetCounter("hypertp_policy_inplace").value(),
            static_cast<uint64_t>(run->policy_inplace_vms));
}

TEST(CampaignPolicyTest, AbortBeforeAdmissionCountsRefusedHostsOnce) {
  // Every host refused, one shard admitted per barrier, and a horizon that
  // aborts the campaign while shard 3 still waits for admission.
  CampaignConfig config;
  CampaignDatacenter dc;
  dc.name = "dc0";
  dc.racks = 4;
  dc.hosts_per_rack = 25;
  dc.host_headroom = 0.0;
  config.datacenters = {dc};
  config.shards = 4;
  config.max_concurrent_shards = 1;
  config.policy.mode = policy::PolicyMode::kAdaptive;
  config.policy.max_vm_pause = Millis(1);
  config.max_epochs = 2;
  Result<CampaignReport> run = CampaignPlanner(config).Run();
  ASSERT_TRUE(run.ok()) << run.error().ToString();

  EXPECT_TRUE(run->aborted);
  EXPECT_EQ(run->refused, 100);
  ASSERT_EQ(run->shard_summaries.size(), 4u);
  EXPECT_LT(run->shard_summaries.back().admitted, 0);  // Never admitted.
  for (const CampaignShardSummary& shard : run->shard_summaries) {
    EXPECT_EQ(shard.upgraded + shard.failed + shard.untouched + shard.lost + shard.refused,
              shard.hosts)
        << "shard " << shard.id;
  }
  EXPECT_EQ(run->upgraded + run->failed + run->untouched + run->lost + run->refused, run->hosts);
  EXPECT_EQ(run->hosts, 100);
}

TEST(CampaignPolicyTest, PlanRejectsMalformedDatacenterPolicySignals) {
  CampaignConfig config = BaseConfig();
  config.datacenters[1].link_gbps = -1.0;
  Result<CampaignPlan> planned = PlanCampaign(config);
  ASSERT_FALSE(planned.ok());
  EXPECT_NE(planned.error().message().find("west"), std::string::npos);
  EXPECT_NE(planned.error().message().find("link_gbps"), std::string::npos);

  config = BaseConfig();
  config.datacenters[0].host_headroom = 1.5;
  Result<CampaignPlan> headroom = PlanCampaign(config);
  ASSERT_FALSE(headroom.ok());
  EXPECT_NE(headroom.error().message().find("east"), std::string::npos);
  EXPECT_NE(headroom.error().message().find("host_headroom"), std::string::npos);

  config = BaseConfig();
  config.policy.max_vm_pause = -Millis(5);
  Result<CampaignPlan> knob = PlanCampaign(config);
  ASSERT_FALSE(knob.ok());
  EXPECT_NE(knob.error().message().find("max_vm_pause"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Straggler-tail mitigation: heterogeneous per-DC timing, deterministic rack
// work-stealing at epoch barriers, and the adaptive epoch stride.

// Two equal-size DCs, one of them 4x slower (old host class): without
// stealing the slow DC's shard is a 4x straggler.
CampaignConfig SkewedConfig() {
  CampaignConfig config;
  CampaignDatacenter fast;
  fast.name = "fast";
  fast.racks = 4;
  fast.hosts_per_rack = 10;
  CampaignDatacenter slow = fast;
  slow.name = "slow";
  slow.timing.host_class = 4.0;
  config.datacenters = {fast, slow};
  config.shards = 2;
  config.parallel_hosts_per_shard = 10;
  config.per_host_transplant = Seconds(10);
  config.epoch = Seconds(5);
  config.seed = 42;
  return config;
}

TEST(CampaignTimingTest, HeterogeneousTimingScalesShardMakespans) {
  CampaignConfig config = BaseConfig();
  config.datacenters[1].timing.host_class = 2.0;  // West hosts are 2x slower.
  Result<CampaignReport> run = CampaignPlanner(config).Run();
  ASSERT_TRUE(run.ok()) << run.error().ToString();
  EXPECT_TRUE(run->complete);
  // East shards: 20 hosts / 5 wide x 10 s = 40 s. West: same shape at 20 s
  // per host = 80 s.
  for (const CampaignShardSummary& shard : run->shard_summaries) {
    EXPECT_EQ(shard.makespan, shard.datacenter == 0 ? Seconds(40) : Seconds(80))
        << "shard " << shard.id;
  }
  EXPECT_EQ(run->makespan, Seconds(80));
}

TEST(CampaignTimingTest, UniformTimingKeepsLegacyBytes) {
  // Explicit all-1.0 multipliers must be byte-identical to the default.
  CampaignConfig unit = BaseConfig();
  for (CampaignDatacenter& dc : unit.datacenters) {
    dc.timing = policy::DcTimingModel{};
  }
  Result<CampaignReport> base = CampaignPlanner(BaseConfig()).Run();
  Result<CampaignReport> same = CampaignPlanner(unit).Run();
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(same.ok());
  EXPECT_EQ(CampaignReportToJson(*base), CampaignReportToJson(*same));
}

TEST(CampaignTimingTest, PlanRejectsMalformedTimingWithDatacenterContext) {
  CampaignConfig config = BaseConfig();
  config.datacenters[0].timing.host_class = 0.0;
  Result<CampaignPlan> planned = PlanCampaign(config);
  ASSERT_FALSE(planned.ok());
  EXPECT_NE(planned.error().message().find("east"), std::string::npos);
  EXPECT_NE(planned.error().message().find("timing.host_class"), std::string::npos);

  config = BaseConfig();
  config.datacenters[1].timing.reboot_cost = -1.0;
  Result<CampaignPlan> reboot = PlanCampaign(config);
  ASSERT_FALSE(reboot.ok());
  EXPECT_NE(reboot.error().message().find("west"), std::string::npos);
  EXPECT_NE(reboot.error().message().find("timing.reboot_cost"), std::string::npos);

  config = BaseConfig();
  config.datacenters[0].timing.link_generation =
      std::numeric_limits<double>::infinity();
  EXPECT_FALSE(PlanCampaign(config).ok());
}

TEST(CampaignStealTest, StealingRebalancesSkewedDatacenters) {
  CampaignConfig fixed = SkewedConfig();
  CampaignConfig stealing = SkewedConfig();
  stealing.steal.enabled = true;

  Result<CampaignReport> fixed_run = CampaignPlanner(fixed).Run();
  Result<CampaignReport> steal_run = CampaignPlanner(stealing).Run();
  ASSERT_TRUE(fixed_run.ok()) << fixed_run.error().ToString();
  ASSERT_TRUE(steal_run.ok()) << steal_run.error().ToString();

  // Fixed: fast shard 4 waves x 10 s = 40 s, slow shard 4 waves x 40 s.
  EXPECT_EQ(fixed_run->makespan, Seconds(160));
  EXPECT_EQ(fixed_run->steals, 0);
  // Stealing re-homes slow racks into the drained fast shard and beats the
  // straggler tail. Same hosts upgraded either way.
  EXPECT_GT(steal_run->steals, 0);
  EXPECT_EQ(steal_run->stolen_hosts, steal_run->steals * 10);
  EXPECT_LT(steal_run->makespan, fixed_run->makespan);
  EXPECT_TRUE(steal_run->complete);
  EXPECT_EQ(steal_run->upgraded, fixed_run->upgraded);
  EXPECT_EQ(steal_run->final_fraction_vulnerable, 0.0);
  // The exposure curve stays monotone: steals are exposure-neutral.
  for (size_t i = 1; i < steal_run->exposure_curve.size(); ++i) {
    EXPECT_LE(steal_run->exposure_curve[i].fraction,
              steal_run->exposure_curve[i - 1].fraction);
  }
  // Responsibility conservation: summary hosts are the final sets, and the
  // steal traffic balances.
  int total_hosts = 0;
  int total_in = 0;
  int total_out = 0;
  for (const CampaignShardSummary& shard : steal_run->shard_summaries) {
    total_hosts += shard.hosts;
    total_in += shard.stolen_in;
    total_out += shard.stolen_out;
  }
  EXPECT_EQ(total_hosts, steal_run->hosts);
  EXPECT_EQ(total_in, total_out);
  EXPECT_EQ(total_in, steal_run->stolen_hosts);
}

TEST(CampaignStealTest, GoldenStealDecisions) {
  // The full deterministic steal plan for SkewedConfig, derived by hand:
  // fast shard drains its native racks at t=30 (last wave in flight, queue
  // empty, rem 0 < 2 epochs) and adopts one slow rack (10 hosts x 40 s / 10
  // wide = 40 s thief cost against the slow shard's 120 s backlog). Every
  // later barrier fails the strict-improvement test, so exactly one rack
  // moves; the fast shard finishes its adopted work at t=80 and the slow
  // shard its remaining three racks at t=120 (vs 160 s unstolen).
  CampaignConfig config = SkewedConfig();
  config.steal.enabled = true;
  Result<CampaignReport> run = CampaignPlanner(config).Run();
  ASSERT_TRUE(run.ok()) << run.error().ToString();

  EXPECT_EQ(run->steals, 1);
  EXPECT_EQ(run->stolen_hosts, 10);
  EXPECT_EQ(run->makespan, Seconds(120));
  ASSERT_EQ(run->shard_summaries.size(), 2u);
  const CampaignShardSummary& fast = run->shard_summaries[0];
  const CampaignShardSummary& slow = run->shard_summaries[1];
  EXPECT_EQ(fast.stolen_in, 10);
  EXPECT_EQ(fast.stolen_out, 0);
  EXPECT_EQ(fast.hosts, 50);
  EXPECT_EQ(fast.makespan, Seconds(80));
  EXPECT_EQ(slow.stolen_in, 0);
  EXPECT_EQ(slow.stolen_out, 10);
  EXPECT_EQ(slow.hosts, 30);
  EXPECT_EQ(slow.makespan, Seconds(120));
  const std::string json = CampaignReportToJson(*run);
  EXPECT_NE(json.find("\"steals\":1"), std::string::npos);
  EXPECT_NE(json.find("\"stolen_in\":10"), std::string::npos);
}

TEST(CampaignStealTest, StealReportsAreByteIdenticalAcrossThreadAndShardCounts) {
  // The determinism contract under stealing: for every shard count, any
  // thread count produces the same bytes (reports, traces, metrics). Jitter
  // draws travel with each stolen host's RNG stream, so this also pins the
  // travelling-stream design.
  for (int shard_count : {2, 4, 8}) {
    std::string report_json[3];
    std::string trace_json[3];
    std::string metrics_json[3];
    const int threads[3] = {1, 4, 8};
    for (int i = 0; i < 3; ++i) {
      Tracer tracer;
      MetricsRegistry metrics;
      CampaignConfig config = SkewedConfig();
      config.steal.enabled = true;
      config.latency_jitter = 0.3;
      config.shards = shard_count;
      config.real_threads = threads[i];
      config.tracer = &tracer;
      config.metrics = &metrics;
      Result<CampaignReport> run = CampaignPlanner(config).Run();
      ASSERT_TRUE(run.ok()) << run.error().ToString();
      EXPECT_TRUE(run->complete);
      report_json[i] = CampaignReportToJson(*run);
      trace_json[i] = tracer.ToChromeTraceJson();
      metrics_json[i] = metrics.ToJson();
    }
    for (int i = 1; i < 3; ++i) {
      EXPECT_EQ(report_json[i], report_json[0]) << "shards=" << shard_count;
      EXPECT_EQ(trace_json[i], trace_json[0]) << "shards=" << shard_count;
      EXPECT_EQ(metrics_json[i], metrics_json[0]) << "shards=" << shard_count;
    }
  }
}

TEST(CampaignStealTest, StealPreservesRackAntiAffinity) {
  // Rack-integral moves: stolen host counts are whole racks, and the per-rack
  // in-flight cap holds on adopted racks too (the adopting controller gives
  // each one a fresh fault domain).
  CampaignConfig config = SkewedConfig();
  config.steal.enabled = true;
  config.max_per_rack_in_flight = 5;
  Result<CampaignReport> run = CampaignPlanner(config).Run();
  ASSERT_TRUE(run.ok()) << run.error().ToString();
  EXPECT_TRUE(run->complete);
  EXPECT_GT(run->steals, 0);
  for (const CampaignShardSummary& shard : run->shard_summaries) {
    EXPECT_EQ(shard.stolen_in % 10, 0) << "shard " << shard.id << " split a rack";
    EXPECT_EQ(shard.stolen_out % 10, 0) << "shard " << shard.id << " split a rack";
  }
  EXPECT_EQ(run->stolen_hosts % 10, 0);
}

TEST(CampaignStealTest, StealDisabledKeepsLegacyBytes) {
  // With stealing off the steal knobs are inert: the report bytes match the
  // default config's whatever they are set to, no rack moves, and the
  // fixed-ownership makespan stands (4 slow waves x 40 s).
  Result<CampaignReport> run = CampaignPlanner(SkewedConfig()).Run();
  ASSERT_TRUE(run.ok());
  CampaignConfig knobs = SkewedConfig();
  knobs.steal.threshold_epochs = 100.0;
  knobs.steal.max_racks_per_epoch = 3;
  Result<CampaignReport> same = CampaignPlanner(knobs).Run();
  ASSERT_TRUE(same.ok());
  const std::string json = CampaignReportToJson(*run);
  EXPECT_EQ(json, CampaignReportToJson(*same));
  EXPECT_EQ(run->makespan, Seconds(160));
  EXPECT_NE(json.find(R"("steals":0,"stolen_hosts":0,)"), std::string::npos) << json;
  EXPECT_EQ(json.find(R"("stolen_in":10)"), std::string::npos);
  EXPECT_EQ(json.find("wall_ms"), std::string::npos);
}

TEST(CampaignStealTest, PlanRejectsStealWithIncompatibleModes) {
  // Stealing + crash storm: undefined rack states under the steal planner.
  CampaignConfig config = CrashStormCampaignConfig();
  config.steal.enabled = true;
  Result<CampaignPlan> storm = PlanCampaign(config);
  ASSERT_FALSE(storm.ok());
  EXPECT_NE(storm.error().message().find("crash storms"), std::string::npos);

  // Stealing + adaptive policy composes: each host carries its plan.
  config = BaseConfig();
  config.steal.enabled = true;
  config.policy.mode = policy::PolicyMode::kAdaptive;
  Result<CampaignPlan> adaptive = PlanCampaign(config);
  EXPECT_TRUE(adaptive.ok()) << adaptive.error().ToString();

  // Stealing across unequal per-host VM weights breaks exposure accounting.
  config = BaseConfig();
  config.steal.enabled = true;
  config.datacenters[1].vms_per_host = 20;
  Result<CampaignPlan> weights = PlanCampaign(config);
  ASSERT_FALSE(weights.ok());
  EXPECT_NE(weights.error().message().find("vms_per_host"), std::string::npos);

  // Steal knobs validate even when disabled.
  config = BaseConfig();
  config.steal.threshold_epochs = 0.0;
  EXPECT_FALSE(PlanCampaign(config).ok());
  config = BaseConfig();
  config.steal.max_racks_per_epoch = -1;
  EXPECT_FALSE(PlanCampaign(config).ok());
}

// SkewedConfig under the adaptive policy, with budgets that refuse some
// hosts in both datacenters, so stolen racks carry refused hosts along.
CampaignConfig AdaptiveSkewedConfig() {
  CampaignConfig config = SkewedConfig();
  for (CampaignDatacenter& dc : config.datacenters) {
    dc.vms_per_host = 5;
  }
  config.datacenters[1].host_headroom = 0.0;
  config.policy.mode = policy::PolicyMode::kAdaptive;
  config.policy.max_vm_pause = Millis(100);
  config.policy.max_migration_duration = Seconds(20);
  return config;
}

TEST(CampaignStealTest, AdaptiveStealingComposes) {
  CampaignConfig unstolen = AdaptiveSkewedConfig();
  Result<CampaignReport> off = CampaignPlanner(unstolen).Run();
  ASSERT_TRUE(off.ok()) << off.error().ToString();

  std::string report_json[2];
  std::string trace_json[2];
  std::string metrics_json[2];
  const int threads[2] = {1, 4};
  for (int i = 0; i < 2; ++i) {
    Tracer tracer;
    MetricsRegistry metrics;
    CampaignConfig config = AdaptiveSkewedConfig();
    config.steal.enabled = true;
    config.real_threads = threads[i];
    config.tracer = &tracer;
    config.metrics = &metrics;
    Result<CampaignReport> run = CampaignPlanner(config).Run();
    ASSERT_TRUE(run.ok()) << run.error().ToString();
    report_json[i] = CampaignReportToJson(*run);
    trace_json[i] = tracer.ToChromeTraceJson();
    metrics_json[i] = metrics.ToJson();

    EXPECT_GT(run->steals, 0);
    // Refused hosts travel with their racks: some shard ends with a refused
    // count the steal-off run did not give it.
    bool refused_moved = false;
    for (size_t s = 0; s < run->shard_summaries.size(); ++s) {
      const CampaignShardSummary& shard = run->shard_summaries[s];
      EXPECT_EQ(shard.upgraded + shard.failed + shard.untouched + shard.lost + shard.refused,
                shard.hosts)
          << "shard " << shard.id;
      EXPECT_GE(shard.untouched, 0) << "shard " << shard.id;
      refused_moved |= shard.refused != off->shard_summaries[s].refused;
    }
    EXPECT_TRUE(refused_moved);
    EXPECT_EQ(run->upgraded + run->failed + run->untouched + run->lost + run->refused, run->hosts);
    // Plans and their tallies are the hosts', not the shards': the campaign
    // decides exactly what the steal-off run decides.
    EXPECT_GT(run->refused, 0);
    EXPECT_EQ(run->refused, off->refused);
    EXPECT_EQ(run->policy_inplace_vms, off->policy_inplace_vms);
    EXPECT_EQ(run->policy_migrate_vms, off->policy_migrate_vms);
    EXPECT_EQ(run->policy_refused_vms, off->policy_refused_vms);
    EXPECT_EQ(run->policy_vm_downtime, off->policy_vm_downtime);
    // Fault-free, so every transplant start succeeds once: the hosts that
    // started are exactly the ones the policy did not refuse.
    EXPECT_EQ(run->transplant_successes, run->hosts - run->refused);
    EXPECT_EQ(run->upgraded, off->upgraded);
    EXPECT_EQ(run->untouched, 0);
  }
  EXPECT_EQ(report_json[0], report_json[1]);
  EXPECT_EQ(trace_json[0], trace_json[1]);
  EXPECT_EQ(metrics_json[0], metrics_json[1]);
}

TEST(CampaignStrideTest, StrideSkipsIdleEpochsWithoutChangingOutput) {
  // StormConfig's retry backoffs leave multi-epoch gaps with no events; the
  // stride must jump them while producing byte-identical output (epoch totals
  // included — skipped epochs count as executed).
  CampaignReport reports[2];
  for (int i = 0; i < 2; ++i) {
    CampaignConfig config = StormConfig();
    config.adaptive_stride = i == 1;
    Result<CampaignReport> run = CampaignPlanner(config).Run();
    ASSERT_TRUE(run.ok()) << run.error().ToString();
    reports[i] = *run;
  }
  EXPECT_EQ(reports[0].idle_epochs_skipped, 0);
  EXPECT_GT(reports[1].idle_epochs_skipped, 0);
  EXPECT_EQ(reports[0].epochs, reports[1].epochs);
  EXPECT_EQ(reports[0].makespan, reports[1].makespan);
  // Full byte-identity once the stride tally (the one intentional delta) is
  // cleared.
  reports[1].idle_epochs_skipped = 0;
  EXPECT_EQ(CampaignReportToJson(reports[0]), CampaignReportToJson(reports[1]));
}

TEST(CampaignStealTest, RehomedCountersFollowStolenHostsAndLeaveTheCurve) {
  // The campaign writes the rehome counters once, from the report's stolen
  // hosts; a steal moves ownership, never exposure, so the curve only falls
  // and ends at the hosts left exposed.
  MetricsRegistry metrics;
  CampaignConfig config = SkewedConfig();
  config.steal.enabled = true;
  config.metrics = &metrics;
  Result<CampaignReport> run = CampaignPlanner(config).Run();
  ASSERT_TRUE(run.ok()) << run.error().ToString();
  ASSERT_GT(run->stolen_hosts, 0);
  const int vms_per_host = config.datacenters[0].vms_per_host;
  EXPECT_EQ(metrics.GetCounter("campaign_hosts_rehomed").value(),
            static_cast<uint64_t>(run->stolen_hosts));
  EXPECT_EQ(metrics.GetCounter("campaign_vms_rehomed").value(),
            static_cast<uint64_t>(run->stolen_hosts) * vms_per_host);
  EXPECT_EQ(metrics.GetCounter("campaign_steals").value(), static_cast<uint64_t>(run->steals));

  ASSERT_FALSE(run->exposure_curve.empty());
  for (size_t i = 1; i < run->exposure_curve.size(); ++i) {
    EXPECT_LE(run->exposure_curve[i].exposed_vms, run->exposure_curve[i - 1].exposed_vms);
  }
  EXPECT_EQ(run->exposure_curve.back().exposed_vms,
            static_cast<int64_t>(run->hosts - run->upgraded) * vms_per_host);
}

}  // namespace
}  // namespace hypertp
