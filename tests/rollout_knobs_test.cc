// Rollout knobs are declared once (RolloutKnobs) and inherited by every
// config that drives a rollout. These tests pin what that buys: each owner
// rejects a bad knob with an error naming its own field, and a slice
// assignment hands every knob down a layer.

#include <gtest/gtest.h>

#include <iterator>
#include <limits>
#include <string>
#include <utility>

#include "src/campaign/campaign.h"
#include "src/fleet/fleet_controller.h"
#include "src/scenario/operational.h"

namespace hypertp {
namespace {

using KnobBend = void (*)(RolloutKnobs&);
using StormBend = void (*)(CrashStormConfig&);

CampaignConfig OneDcCampaign() {
  CampaignConfig config;
  CampaignDatacenter dc;
  dc.name = "east";
  dc.racks = 2;
  dc.hosts_per_rack = 5;
  config.datacenters = {dc};
  config.shards = 2;
  return config;
}

// Seed 3 discloses at least one flaw with a safe target, so the year tries
// rollouts and logs each rejection.
OperationalConfig RejectingYear() {
  OperationalConfig config;
  config.seed = 3;
  return config;
}

std::string ErrorOf(const Result<void>& r) { return r.ok() ? "" : r.error().message(); }

std::string CampaignError(const CampaignConfig& config) {
  Result<CampaignPlan> planned = PlanCampaign(config);
  return planned.ok() ? "" : planned.error().message();
}

// The message of the first rejection the year logged, or "" when every
// rollout ran.
std::string OperationalError(const OperationalConfig& config) {
  const std::string prefix = "rollout rejected: INVALID_ARGUMENT: ";
  for (const std::string& line : RunOperationalSimulation(config).event_log) {
    if (line.rfind(prefix, 0) == 0) {
      return line.substr(prefix.size());
    }
  }
  return "";
}

// One invalid value per knob, and the field the error must name.
struct KnobCase {
  const char* field;
  KnobBend bend;
};

const KnobCase kKnobCases[] = {
    {"drain_time", [](RolloutKnobs& k) { k.drain_time = -1; }},
    {"per_host_transplant", [](RolloutKnobs& k) { k.per_host_transplant = -1; }},
    {"failure_probability", [](RolloutKnobs& k) { k.failure_probability = 1.5; }},
    {"latency_jitter", [](RolloutKnobs& k) { k.latency_jitter = -0.3; }},
    {"max_retries", [](RolloutKnobs& k) { k.max_retries = -1; }},
    {"retry_backoff", [](RolloutKnobs& k) { k.retry_backoff = -1; }},
    {"abort_threshold", [](RolloutKnobs& k) { k.abort_threshold = -0.5; }},
    {"post_pause_fraction",
     [](RolloutKnobs& k) { k.post_pause_fraction = std::numeric_limits<double>::quiet_NaN(); }},
    {"rollback_failure_probability", [](RolloutKnobs& k) { k.rollback_failure_probability = 2.0; }},
    {"rollback_time", [](RolloutKnobs& k) { k.rollback_time = -1; }},
    {"policy.max_vm_pause", [](RolloutKnobs& k) { k.policy.max_vm_pause = -1; }},
};

TEST(RolloutKnobsTest, EveryOwnerNamesItsOwnKnobField) {
  for (const KnobCase& c : kKnobCases) {
    FleetConfig fleet;
    c.bend(fleet);
    CampaignConfig campaign = OneDcCampaign();
    c.bend(campaign);
    OperationalConfig year = RejectingYear();
    c.bend(year);

    const std::pair<std::string, std::string> owners[] = {
        {"FleetConfig::", ErrorOf(ValidateFleetConfig(fleet))},
        {"CampaignConfig::", CampaignError(campaign)},
        {"OperationalConfig::", OperationalError(year)},
    };
    for (const auto& [owner, error] : owners) {
      EXPECT_EQ(error.rfind(owner + c.field + " must", 0), 0u)
          << "knob " << c.field << ": \"" << error << "\"";
    }
  }
}

TEST(RolloutKnobsTest, EveryOwnerNamesItsOwnStormField) {
  const StormBend bends[] = {
      [](CrashStormConfig& s) { s.burst = 0; },
      [](CrashStormConfig& s) { s.recovery_time = -1; },
      [](CrashStormConfig& s) { s.cross_kind_fraction = 1.5; },
  };
  const char* fields[] = {"crash_storm.burst", "crash_storm.recovery_time",
                          "crash_storm.cross_kind_fraction"};
  for (size_t i = 0; i < std::size(bends); ++i) {
    CrashStormConfig storm;
    storm.rate_per_hour = 10.0;
    bends[i](storm);
    FleetConfig fleet;
    fleet.crash_storm = storm;
    CampaignConfig campaign = OneDcCampaign();
    campaign.datacenters[0].crash_storm = storm;
    OperationalConfig year = RejectingYear();
    year.crash_storm = storm;

    const std::string field = fields[i];
    EXPECT_EQ(ErrorOf(ValidateFleetConfig(fleet)).rfind("FleetConfig::" + field + " must", 0), 0u);
    EXPECT_EQ(CampaignError(campaign).rfind(
                  "datacenter 'east' (#0): CampaignDatacenter::" + field + " must", 0),
              0u)
        << CampaignError(campaign);
    EXPECT_EQ(OperationalError(year).rfind("OperationalConfig::" + field + " must", 0), 0u)
        << OperationalError(year);
  }
}

TEST(RolloutKnobsTest, CampaignAndOperationalFieldsAreNamedAsSet) {
  CampaignConfig campaign = OneDcCampaign();
  campaign.parallel_hosts_per_shard = 0;
  EXPECT_EQ(CampaignError(campaign), "CampaignConfig::parallel_hosts_per_shard must be > 0, got 0");
  campaign = OneDcCampaign();
  campaign.max_per_rack_in_flight = -1;
  EXPECT_EQ(CampaignError(campaign), "CampaignConfig::max_per_rack_in_flight must be >= 0, got -1");
  campaign = OneDcCampaign();
  campaign.datacenters[0].crash_storm.rate_per_hour = 10.0;
  campaign.datacenters[0].crash_storm.burst = 0;
  EXPECT_EQ(CampaignError(campaign),
            "datacenter 'east' (#0): CampaignDatacenter::crash_storm.burst must be >= 1, got 0");

  OperationalConfig year = RejectingYear();
  year.hosts = 0;
  EXPECT_EQ(OperationalError(year), "OperationalConfig::hosts must be > 0, got 0");
  year = RejectingYear();
  year.parallel_hosts = -2;
  EXPECT_EQ(OperationalError(year), "OperationalConfig::parallel_hosts must be > 0, got -2");
  year = RejectingYear();
  year.policy.vms_per_host = 0;
  EXPECT_EQ(OperationalError(year), "OperationalConfig::policy.vms_per_host must be > 0, got 0");
}

TEST(RolloutKnobsTest, SliceAssignmentHandsEveryKnobDown) {
  CampaignConfig campaign;
  campaign.drain_time = Seconds(3);
  campaign.per_host_transplant = Seconds(7);
  campaign.failure_probability = 0.2;
  campaign.latency_jitter = 0.1;
  campaign.max_retries = 5;
  campaign.retry_backoff = Seconds(9);
  campaign.abort_threshold = 0.4;
  campaign.post_pause_fraction = 0.3;
  campaign.rollback_failure_probability = 0.05;
  campaign.rollback_time = Seconds(11);
  campaign.policy.mode = policy::PolicyMode::kAdaptive;
  campaign.shards = 7;  // Not a knob: stays with the campaign.

  FleetConfig fleet;
  static_cast<RolloutKnobs&>(fleet) = campaign;
  EXPECT_EQ(fleet.drain_time, Seconds(3));
  EXPECT_EQ(fleet.per_host_transplant, Seconds(7));
  EXPECT_EQ(fleet.failure_probability, 0.2);
  EXPECT_EQ(fleet.latency_jitter, 0.1);
  EXPECT_EQ(fleet.max_retries, 5);
  EXPECT_EQ(fleet.retry_backoff, Seconds(9));
  EXPECT_EQ(fleet.abort_threshold, 0.4);
  EXPECT_EQ(fleet.post_pause_fraction, 0.3);
  EXPECT_EQ(fleet.rollback_failure_probability, 0.05);
  EXPECT_EQ(fleet.rollback_time, Seconds(11));
  EXPECT_TRUE(fleet.policy.adaptive());
  EXPECT_EQ(fleet.hosts, FleetConfig{}.hosts);
}

TEST(RolloutKnobsTest, DefaultsDifferOnlyInTheOperationalAbort) {
  // Fleets and campaigns never abort by default; a year of operation gives
  // up on a rollout once a quarter of its hosts failed for good.
  EXPECT_EQ(FleetConfig{}.abort_threshold, 1.0);
  EXPECT_EQ(CampaignConfig{}.abort_threshold, 1.0);
  EXPECT_EQ(OperationalConfig{}.abort_threshold, 0.25);
}

}  // namespace
}  // namespace hypertp
