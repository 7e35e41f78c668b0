// Byte pins for what the fleet and campaign layers emit. Each case runs one
// seeded configuration and pins the length and CRC32 of every document it
// produces:
//   - fleet: the Tracer's Chrome JSON and the FleetTrace JSON;
//   - campaign: the report JSON, the metrics registry JSON and the Tracer's
//     Chrome JSON, each at 1 and 4 real threads (one pin for both).
// A refactor of who writes an event, a span or a counter must leave every
// byte where it was; a deliberate change to what is emitted updates the pins
// here in the same commit.

#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <span>
#include <string>
#include <utility>

#include "src/base/crc32.h"
#include "src/campaign/campaign.h"
#include "src/fleet/fleet_controller.h"
#include "src/fleet/fleet_trace.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/sim/executor.h"

namespace hypertp {
namespace {

struct Pin {
  size_t length = 0;
  uint32_t crc = 0;

  bool operator==(const Pin&) const = default;
};

Pin PinOf(const std::string& bytes) {
  return Pin{bytes.size(),
             Crc32(std::span(reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size()))};
}

std::ostream& operator<<(std::ostream& os, const Pin& pin) {
  return os << "{" << pin.length << ", 0x" << std::hex << pin.crc << std::dec << "}";
}

// --- Fleet configurations ---------------------------------------------------

FleetConfig PlainFleet() {
  FleetConfig config;
  config.hosts = 48;
  config.parallel_hosts = 8;
  config.fault_domains = 4;
  config.max_per_domain_in_flight = 3;
  config.drain_time = Seconds(2);
  config.per_host_transplant = Seconds(10);
  config.latency_jitter = 0.2;
  config.seed = 11;
  return config;
}

FleetConfig FaultsWithRollbacks() {
  FleetConfig config = PlainFleet();
  config.failure_probability = 0.3;
  config.post_pause_fraction = 0.5;
  config.rollback_failure_probability = 0.2;
  config.max_retries = 2;
  config.seed = 12;
  return config;
}

FleetConfig AbortingFleet() {
  FleetConfig config = PlainFleet();
  config.failure_probability = 0.5;
  config.max_retries = 0;
  config.abort_threshold = 0.1;
  config.seed = 13;
  return config;
}

FleetConfig StormWithRecoveryRetries() {
  FleetConfig config;
  config.hosts = 60;
  config.parallel_hosts = 6;
  config.per_host_transplant = Seconds(10);
  config.seed = 14;
  config.crash_storm.rate_per_hour = 1800.0;
  config.crash_storm.burst = 2;
  config.crash_storm.duration = Seconds(80);
  config.crash_storm.recovery_time = Seconds(4);
  config.crash_storm.recovery_failure_probability = 0.3;
  config.crash_storm.recovery_max_retries = 2;
  config.crash_storm.cross_kind_fraction = 0.5;
  config.crash_storm.pre_pause_fraction = 0.2;
  config.crash_storm.stale_commit_fraction = 0.1;
  return config;
}

FleetConfig FixedFleetStorm() {
  FleetConfig config = StormWithRecoveryRetries();
  config.crash_storm.recover = false;
  config.seed = 15;
  return config;
}

FleetConfig AdaptiveFleet() {
  FleetConfig config = PlainFleet();
  config.policy.mode = policy::PolicyMode::kAdaptive;
  config.policy.max_migration_duration = Seconds(20);
  config.failure_probability = 0.1;
  config.seed = 16;
  return config;
}

// Runs `base` traced and checks both pins; returns the report so a case can
// assert it still exercises what its name says.
FleetRolloutReport ExpectFleetPins(const FleetConfig& base, Pin tracer_pin, Pin fleet_trace_pin) {
  FleetConfig config = base;
  Tracer tracer;
  config.tracer = &tracer;
  SimExecutor executor;
  FleetController controller(executor, config);
  EXPECT_FALSE(controller.config_error().has_value());
  const FleetRolloutReport report = controller.Run();
  EXPECT_EQ(PinOf(tracer.ToChromeTraceJson()), tracer_pin) << "Tracer JSON";
  EXPECT_EQ(PinOf(FleetTraceToJson(controller.trace())), fleet_trace_pin) << "FleetTrace JSON";
  return report;
}

TEST(EmissionGoldenTest, FleetPlain) {
  const FleetRolloutReport report =
      ExpectFleetPins(PlainFleet(), {15731, 0xf9cbf5e8}, {10990, 0xbd96ed4f});
  EXPECT_TRUE(report.complete);
}

TEST(EmissionGoldenTest, FleetFaultsWithRollbacks) {
  const FleetRolloutReport report =
      ExpectFleetPins(FaultsWithRollbacks(), {19823, 0x5bbffc35}, {17891, 0xe974f98f});
  EXPECT_GT(report.rollbacks, 0);
  EXPECT_GT(report.rollback_failures, 0);
}

TEST(EmissionGoldenTest, FleetAbort) {
  const FleetRolloutReport report =
      ExpectFleetPins(AbortingFleet(), {5319, 0xc12f8fdf}, {3772, 0xb9894978});
  EXPECT_TRUE(report.aborted);
  EXPECT_GT(report.untouched, 0);
}

TEST(EmissionGoldenTest, FleetStormWithRecoveryRetriesAndCrossKindSalvage) {
  const FleetRolloutReport report =
      ExpectFleetPins(StormWithRecoveryRetries(), {35288, 0x229d96b4}, {29193, 0x926efde1});
  EXPECT_GT(report.crash_recovery_retries, 0);
  EXPECT_GT(report.crash_upgrades, 0);
  EXPECT_GT(report.crash_rollbacks, 0);
}

TEST(EmissionGoldenTest, FleetFixedFleetStorm) {
  const FleetRolloutReport report =
      ExpectFleetPins(FixedFleetStorm(), {18160, 0x58aebad9}, {14474, 0xc0ebf2ee});
  EXPECT_GT(report.lost, 0);
  EXPECT_EQ(report.lost, report.crashes);
}

TEST(EmissionGoldenTest, FleetAdaptive) {
  const FleetRolloutReport report =
      ExpectFleetPins(AdaptiveFleet(), {5155, 0x3f5a59cb}, {4902, 0x42e16cbc});
  EXPECT_GT(report.refused, 0);
  EXPECT_GT(report.policy_migrate_vms, 0);
}

// --- Campaign configurations ------------------------------------------------

CampaignDatacenter Dc(const char* name, int racks, int hosts_per_rack) {
  CampaignDatacenter dc;
  dc.name = name;
  dc.racks = racks;
  dc.hosts_per_rack = hosts_per_rack;
  return dc;
}

CampaignConfig StealAcrossHostClasses() {
  CampaignConfig config;
  CampaignDatacenter fast = Dc("fast", 4, 10);
  CampaignDatacenter slow = Dc("slow", 6, 10);
  slow.timing.host_class = 3.0;
  slow.timing.reboot_cost = 1.5;
  slow.timing.link_generation = 2.0;
  config.datacenters = {fast, slow};
  config.shards = 4;
  config.parallel_hosts_per_shard = 6;
  config.drain_time = Seconds(3);
  config.per_host_transplant = Seconds(10);
  config.latency_jitter = 0.1;
  config.failure_probability = 0.05;
  config.steal.enabled = true;
  config.seed = 21;
  return config;
}

CampaignConfig FaultsWithSloThrottle() {
  CampaignConfig config;
  config.datacenters = {Dc("east", 4, 10), Dc("west", 2, 10)};
  config.shards = 3;
  config.parallel_hosts_per_shard = 5;
  config.per_host_transplant = Seconds(10);
  config.failure_probability = 0.3;
  config.post_pause_fraction = 0.6;
  config.rollback_failure_probability = 0.1;
  config.max_retries = 2;
  config.slo.throttle_rollback_rate = 0.05;
  config.slo.max_unavailable_fraction = 0.3;
  config.seed = 22;
  return config;
}

CampaignConfig StormCampaign() {
  CampaignConfig config;
  CampaignDatacenter east = Dc("east", 4, 10);
  east.crash_storm.rate_per_hour = 900.0;
  east.crash_storm.duration = Seconds(60);
  east.crash_storm.recovery_time = Seconds(4);
  east.crash_storm.recovery_failure_probability = 0.2;
  east.crash_storm.cross_kind_fraction = 0.3;
  east.crash_storm.mid_save_torn_fraction = 0.2;
  east.crash_storm.scrubbed_fraction = 0.1;
  config.datacenters = {east, Dc("west", 2, 10)};
  config.shards = 3;
  config.parallel_hosts_per_shard = 5;
  config.per_host_transplant = Seconds(10);
  config.slo.throttle_crash_rollback_rate = 0.2;
  config.seed = 23;
  return config;
}

CampaignConfig AdaptiveWithConcurrencyCap() {
  CampaignConfig config;
  CampaignDatacenter east = Dc("east", 4, 8);
  CampaignDatacenter west = Dc("west", 3, 8);
  west.link_gbps = 1.0;
  west.host_headroom = 0.1;
  config.datacenters = {east, west};
  config.shards = 5;
  config.max_concurrent_shards = 2;
  config.parallel_hosts_per_shard = 4;
  config.per_host_transplant = Seconds(10);
  config.policy.mode = policy::PolicyMode::kAdaptive;
  config.seed = 24;
  return config;
}

// Same for a campaign at 1 and 4 real threads; returns the last report.
CampaignReport ExpectCampaignPins(const CampaignConfig& base, Pin report_pin, Pin metrics_pin,
                                  Pin tracer_pin) {
  CampaignReport last;
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("real_threads " + std::to_string(threads));
    CampaignConfig config = base;
    Tracer tracer;
    MetricsRegistry metrics;
    config.tracer = &tracer;
    config.metrics = &metrics;
    config.real_threads = threads;
    Result<CampaignReport> run = CampaignPlanner(std::move(config)).Run();
    if (!run.ok()) {
      ADD_FAILURE() << run.error().ToString();
      return last;
    }
    run->wall_ms = -1.0;
    EXPECT_EQ(PinOf(CampaignReportToJson(*run)), report_pin) << "report JSON";
    EXPECT_EQ(PinOf(metrics.ToJson()), metrics_pin) << "metrics JSON";
    EXPECT_EQ(PinOf(tracer.ToChromeTraceJson()), tracer_pin) << "Tracer JSON";
    last = std::move(run).value();
  }
  return last;
}

TEST(EmissionGoldenTest, CampaignStealAcrossHostClasses) {
  const CampaignReport report =
      ExpectCampaignPins(StealAcrossHostClasses(),
                         {3883, 0x244c9983}, {393, 0x7b7d35d2}, {12959, 0xe1bee674});
  EXPECT_GT(report.steals, 1);
}

TEST(EmissionGoldenTest, CampaignFaultsWithSloThrottle) {
  const CampaignReport report =
      ExpectCampaignPins(FaultsWithSloThrottle(),
                         {2187, 0x768de782}, {396, 0xc531af1e}, {4645, 0xa59f2d9});
  EXPECT_GT(report.throttled_epochs, 0);
  EXPECT_GT(report.rollbacks, 0);
}

TEST(EmissionGoldenTest, CampaignStorm) {
  const CampaignReport report =
      ExpectCampaignPins(StormCampaign(),
                         {2292, 0xb043020f}, {388, 0x62657ee9}, {4518, 0x2bb8ba5f});
  EXPECT_GT(report.crashes, 0);
  EXPECT_GT(report.crash_rollbacks, 0);
}

TEST(EmissionGoldenTest, CampaignAdaptiveWithConcurrencyCap) {
  const CampaignReport report =
      ExpectCampaignPins(AdaptiveWithConcurrencyCap(),
                         {3162, 0xc52f009}, {475, 0xb3872435}, {5581, 0x2f03a0ae});
  EXPECT_TRUE(report.policy_adaptive);
  EXPECT_GT(report.policy_migrate_vms, 0);
}

}  // namespace
}  // namespace hypertp
