// Replay determinism: a fleet rollout is exactly reproducible from its
// FleetConfig — two runs serialize to byte-identical JSON traces, and the
// acceptance-scale scenario (1000 hosts, 1% injected failures) does too.

#include <gtest/gtest.h>

#include "src/fleet/fleet_controller.h"
#include "src/vulndb/exposure_stream.h"

namespace hypertp {
namespace {

struct RunOutput {
  std::string trace_json;
  std::string report_json;
  FleetRolloutReport report;
  double exposed_host_days = 0.0;  // The deltas integrated over the rollout.
};

RunOutput RunOnce(const FleetConfig& config) {
  SimExecutor executor;
  FleetController controller(executor, config);
  RunOutput out;
  out.report = controller.Run();
  out.trace_json = FleetTraceToJson(controller.trace());
  out.report_json = FleetRolloutReportToJson(controller.report());
  ExposureStream exposure(config.hosts, config.hosts);
  for (const ExposureDelta& delta : controller.TakeExposureDeltas()) {
    exposure.OnHostsDelta(delta.time, delta.hosts, delta.hosts);
  }
  exposure.Seal(out.report.makespan);
  out.exposed_host_days = exposure.exposed_host_days();
  return out;
}

FleetConfig StressConfig() {
  FleetConfig config;
  config.hosts = 1000;
  config.parallel_hosts = 50;
  config.per_host_transplant = Seconds(10);
  config.failure_probability = 0.01;
  config.latency_jitter = 0.2;
  config.max_retries = 5;
  config.retry_backoff = Seconds(5);
  config.fault_domains = 20;
  config.max_per_domain_in_flight = 4;
  config.trace_capacity = 1 << 16;
  config.seed = 2026;
  return config;
}

TEST(FleetReplayTest, SameSeedSameConfigByteIdenticalTrace) {
  const RunOutput a = RunOnce(StressConfig());
  const RunOutput b = RunOnce(StressConfig());
  EXPECT_EQ(a.trace_json, b.trace_json);
  EXPECT_EQ(a.report_json, b.report_json);
  EXPECT_EQ(a.report.makespan, b.report.makespan);
  EXPECT_EQ(a.report.retries, b.report.retries);
}

TEST(FleetReplayTest, DifferentSeedsDiverge) {
  FleetConfig other = StressConfig();
  other.seed = 2027;
  const RunOutput a = RunOnce(StressConfig());
  const RunOutput b = RunOnce(other);
  EXPECT_NE(a.trace_json, b.trace_json);
}

TEST(FleetReplayTest, ThousandHostsOnePercentFailuresCompleteWithRetries) {
  // The acceptance scenario: 1000 hosts, 1% per-attempt failure rate. The
  // rollout must complete through retries, with a deterministic event count
  // and exposure timeline.
  const RunOutput a = RunOnce(StressConfig());
  EXPECT_TRUE(a.report.complete);
  EXPECT_FALSE(a.report.aborted);
  EXPECT_EQ(a.report.upgraded, 1000);
  EXPECT_GT(a.report.retries, 0);
  EXPECT_GT(a.exposed_host_days, 0.0);

  const RunOutput b = RunOnce(StressConfig());
  EXPECT_EQ(a.report.waves, b.report.waves);
  EXPECT_DOUBLE_EQ(a.exposed_host_days, b.exposed_host_days);
}

TEST(FleetReplayTest, TraceCapacityOnlyDropsOldestEvents) {
  // A tiny ring buffer must not change the simulation, only the retained
  // window of events.
  FleetConfig small = StressConfig();
  small.trace_capacity = 64;
  const RunOutput full = RunOnce(StressConfig());
  const RunOutput truncated = RunOnce(small);
  EXPECT_EQ(full.report.makespan, truncated.report.makespan);
  EXPECT_EQ(full.report.retries, truncated.report.retries);
  EXPECT_NE(full.trace_json, truncated.trace_json);
}

}  // namespace
}  // namespace hypertp
