// Tests for the operational (year-in-the-life) simulation.

#include <gtest/gtest.h>

#include "src/obs/trace.h"
#include "src/scenario/operational.h"

namespace hypertp {
namespace {

OperationalConfig BaseConfig(uint64_t seed) {
  OperationalConfig config;
  config.seed = seed;
  config.years = 1;
  return config;
}

TEST(OperationalTest, DeterministicForAGivenSeed) {
  const OperationalReport a = RunOperationalSimulation(BaseConfig(7));
  const OperationalReport b = RunOperationalSimulation(BaseConfig(7));
  EXPECT_EQ(a.disclosures, b.disclosures);
  EXPECT_EQ(a.transplants_away, b.transplants_away);
  EXPECT_DOUBLE_EQ(a.exposure_days_hypertp, b.exposure_days_hypertp);
  EXPECT_EQ(a.event_log, b.event_log);
}

TEST(OperationalTest, DisclosureRateMatchesHistory) {
  // Xen: 55 criticals over 7 years ~ 7.9/year. Average over seeds.
  double total = 0;
  const int runs = 30;
  for (uint64_t seed = 1; seed <= runs; ++seed) {
    total += RunOperationalSimulation(BaseConfig(seed)).disclosures;
  }
  EXPECT_NEAR(total / runs, 55.0 / 7.0, 2.0);
}

TEST(OperationalTest, HyperTpSlashesExposure) {
  int meaningful = 0;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    const OperationalReport report = RunOperationalSimulation(BaseConfig(seed));
    if (report.disclosures == 0) {
      continue;
    }
    ++meaningful;
    EXPECT_LT(report.exposure_days_hypertp, report.exposure_days_traditional)
        << "seed " << seed;
    // Every disclosure is accounted in exactly one bucket.
    EXPECT_EQ(report.disclosures, report.transplants_away + report.already_safe +
                                      report.no_safe_target);
  }
  EXPECT_GT(meaningful, 5);
}

TEST(OperationalTest, DowntimePaidScalesWithFleetAndTransplants) {
  OperationalConfig config = BaseConfig(3);
  const OperationalReport small = RunOperationalSimulation(config);
  config.hosts = 200;  // Double the fleet.
  const OperationalReport big = RunOperationalSimulation(config);
  // Same seed -> same event sequence; downtime doubles with the VM count.
  ASSERT_EQ(small.transplants_away, big.transplants_away);
  if (small.transplants_away > 0) {
    EXPECT_EQ(big.vm_downtime_paid, small.vm_downtime_paid * 2);
  }
}

TEST(OperationalTest, EmptyHistoryMeansQuietYear) {
  OperationalConfig config = BaseConfig(1);
  config.home = HypervisorKind::kBhyve;  // No recorded criticals.
  const OperationalReport report = RunOperationalSimulation(config);
  EXPECT_EQ(report.disclosures, 0);
  EXPECT_EQ(report.vm_downtime_paid, 0);
  EXPECT_FALSE(report.event_log.empty());  // "quiet year" note.
}

TEST(OperationalTest, FleetControllerModeAgreesWithClosedFormWhenFaultFree) {
  // Acceptance: with zero injected failures the event-driven control plane
  // must reproduce the closed-form fleet math — every rollout of the year,
  // away and back, lasts exactly FleetTransplantTime (drains and jitter are
  // off).
  int checked = 0;
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    Tracer tracer;
    OperationalConfig config = BaseConfig(seed);
    config.tracer = &tracer;
    const OperationalReport report = RunOperationalSimulation(config);
    const std::vector<const Span*> away = tracer.SpansNamed("rollout:away");
    const std::vector<const Span*> back = tracer.SpansNamed("rollout:back");
    ASSERT_EQ(static_cast<int>(away.size()), report.transplants_away) << "seed " << seed;
    ASSERT_EQ(static_cast<int>(back.size()), report.transplants_back) << "seed " << seed;
    for (const std::vector<const Span*>* spans : {&away, &back}) {
      for (const Span* span : *spans) {
        EXPECT_EQ(span->duration(), FleetTransplantTime({config.hosts, config.per_host_transplant,
                                                         config.parallel_hosts}))
            << "seed " << seed;
        ++checked;
      }
    }
    EXPECT_EQ(report.fleet_rollouts, report.transplants_away + report.transplants_back);
    EXPECT_EQ(report.fleet.retries, 0);
    EXPECT_EQ(report.stranded_hosts(), 0);
  }
  EXPECT_GT(checked, 0);
}

TEST(OperationalTest, FleetControllerModeIsDeterministic) {
  OperationalConfig config = BaseConfig(7);
  config.failure_probability = 0.05;
  config.latency_jitter = 0.2;
  const OperationalReport a = RunOperationalSimulation(config);
  const OperationalReport b = RunOperationalSimulation(config);
  EXPECT_EQ(a.disclosures, b.disclosures);
  EXPECT_DOUBLE_EQ(a.exposure_days_hypertp, b.exposure_days_hypertp);
  EXPECT_EQ(a.fleet.retries, b.fleet.retries);
  EXPECT_EQ(a.event_log, b.event_log);
}

TEST(OperationalTest, CampaignModeAgreesWithClosedFormWhenFaultFree) {
  // The sharded campaign splits the same fleet over 4 racks/shards; the
  // reaction time dominates per-disclosure exposure, so fault-free campaign
  // exposure lands within 5% of the single controller's, which is the closed
  // form exactly (see above).
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    OperationalConfig closed = BaseConfig(seed);
    const OperationalReport a = RunOperationalSimulation(closed);
    if (a.transplants_away == 0) {
      continue;
    }
    OperationalConfig campaign = BaseConfig(seed);
    campaign.fleet_mode = FleetExecutionMode::kCampaign;
    const OperationalReport b = RunOperationalSimulation(campaign);
    ASSERT_EQ(a.disclosures, b.disclosures);
    ASSERT_EQ(a.transplants_away, b.transplants_away);
    EXPECT_EQ(b.fleet_rollouts, b.transplants_away + b.transplants_back);
    EXPECT_EQ(b.fleet.retries, 0);
    EXPECT_EQ(b.stranded_hosts(), 0);
    EXPECT_EQ(b.fleet_throttled_epochs, 0);
    EXPECT_NEAR(b.exposure_days_hypertp / a.exposure_days_hypertp, 1.0, 0.05);
    return;  // One meaningful seed is enough.
  }
  FAIL() << "no seed produced a transplant";
}

TEST(OperationalTest, CampaignModeIsDeterministic) {
  OperationalConfig config = BaseConfig(7);
  config.fleet_mode = FleetExecutionMode::kCampaign;
  config.failure_probability = 0.1;
  config.latency_jitter = 0.2;
  config.post_pause_fraction = 0.5;
  const OperationalReport a = RunOperationalSimulation(config);
  const OperationalReport b = RunOperationalSimulation(config);
  EXPECT_EQ(a.disclosures, b.disclosures);
  EXPECT_DOUBLE_EQ(a.exposure_days_hypertp, b.exposure_days_hypertp);
  EXPECT_EQ(a.fleet.retries, b.fleet.retries);
  EXPECT_EQ(a.fleet_throttled_epochs, b.fleet_throttled_epochs);
  EXPECT_EQ(a.event_log, b.event_log);
}

TEST(OperationalTest, CampaignSloThrottlingSurfacesInTheReport) {
  // A rollback storm under a tight throttle budget: some campaign of the
  // year must spend barriers throttled, and the counter reaches the report.
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    OperationalConfig config = BaseConfig(seed);
    config.fleet_mode = FleetExecutionMode::kCampaign;
    config.failure_probability = 0.5;
    config.post_pause_fraction = 1.0;
    config.campaign_slo.throttle_rollback_rate = 0.05;
    const OperationalReport report = RunOperationalSimulation(config);
    if (report.transplants_away == 0) {
      continue;
    }
    EXPECT_GT(report.fleet.post_pause_faults, 0);
    EXPECT_GT(report.fleet_throttled_epochs, 0);
    return;
  }
  FAIL() << "no seed produced a transplant";
}

TEST(OperationalTest, AbortThresholdIsHonouredInBothModes) {
  // Nine attempts in ten fail and none retries, so a quarter of the hosts
  // fail for good within a few waves: the default 0.25 abort_threshold must
  // stop rollouts in campaign mode (the SLO governor's failed-fraction abort)
  // exactly as it does under one FleetController.
  for (const FleetExecutionMode mode :
       {FleetExecutionMode::kFleetController, FleetExecutionMode::kCampaign}) {
    OperationalConfig config = BaseConfig(3);
    config.fleet_mode = mode;
    config.failure_probability = 0.9;
    config.max_retries = 0;
    const OperationalReport report = RunOperationalSimulation(config);
    ASSERT_GT(report.fleet_rollouts, 0);
    EXPECT_GT(report.fleet_aborts, 0) << "mode " << static_cast<int>(mode);
    EXPECT_GT(report.fleet.untouched, 0) << "mode " << static_cast<int>(mode);
  }
}

TEST(OperationalTest, CampaignModeChargesTheHostsItLaysOut) {
  // Four shards lay the fleet out as min(4, hosts) equal racks: 10 hosts run
  // as 4 racks of 2 (8 hosts), 2 hosts as 2 racks of 1. The tally, the flat
  // Fig. 6 downtime charge and a rejected rollout's strand all count the
  // hosts laid out, never hosts the layout dropped or invented.
  for (const auto& [hosts, laid_out] : {std::pair{10, 8}, std::pair{2, 2}}) {
    OperationalConfig config = BaseConfig(3);
    config.fleet_mode = FleetExecutionMode::kCampaign;
    config.campaign_shards = 4;
    config.hosts = hosts;
    const OperationalReport ran = RunOperationalSimulation(config);
    ASSERT_GT(ran.fleet_rollouts, 0);
    EXPECT_EQ(ran.fleet.hosts, laid_out * ran.fleet_rollouts) << hosts << " hosts";
    EXPECT_EQ(ran.vm_downtime_paid,
              SecondsF(1.7) * laid_out * config.vms_per_host * ran.fleet_rollouts)
        << hosts << " hosts";

    config.failure_probability = 1.5;
    const OperationalReport rejected = RunOperationalSimulation(config);
    EXPECT_EQ(rejected.stranded_hosts(),
              laid_out * (rejected.transplants_away + rejected.transplants_back))
        << hosts << " hosts";
  }
}

TEST(OperationalTest, InjectedFleetFailuresRaiseExposure) {
  // Find a seed with at least one transplant, then crank the failure rate:
  // retries + stranded hosts must push exposure above the fault-free run.
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    OperationalConfig clean = BaseConfig(seed);
    const OperationalReport base = RunOperationalSimulation(clean);
    if (base.transplants_away == 0) {
      continue;
    }
    OperationalConfig faulty = clean;
    faulty.failure_probability = 0.3;
    faulty.max_retries = 1;  // Many hosts exhaust the budget.
    const OperationalReport hit = RunOperationalSimulation(faulty);
    ASSERT_EQ(hit.transplants_away, base.transplants_away);
    EXPECT_GT(hit.fleet.retries, 0);
    EXPECT_GT(hit.stranded_hosts(), 0);
    EXPECT_GT(hit.exposure_days_hypertp, base.exposure_days_hypertp);
    return;  // One meaningful seed is enough.
  }
  FAIL() << "no seed produced a transplant";
}

TEST(OperationalTest, PostPauseRecoveryCountersSurfaceInTheReport) {
  // Acceptance check for the recovery subsystem: with post-pause faults
  // injected, rollouts report hosts recovered via rollback (counter > 0),
  // and making rollbacks fail converts recoveries into stranded hosts whose
  // residual windows are billed as extra exposure.
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    OperationalConfig config = BaseConfig(seed);
    config.failure_probability = 0.3;
    config.post_pause_fraction = 0.8;
    const OperationalReport recovered = RunOperationalSimulation(config);
    if (recovered.transplants_away == 0 || recovered.fleet.post_pause_faults == 0) {
      continue;
    }
    // Reliable rollbacks: every stranded host salvaged itself, none lost.
    EXPECT_GT(recovered.fleet.rollbacks, 0);
    EXPECT_EQ(recovered.fleet.rollbacks, recovered.fleet.post_pause_faults);
    EXPECT_EQ(recovered.fleet.rollback_failures, 0);

    OperationalConfig lossy = config;
    lossy.rollback_failure_probability = 1.0;
    const OperationalReport lost = RunOperationalSimulation(lossy);
    EXPECT_GT(lost.fleet.rollback_failures, 0);
    EXPECT_GT(lost.stranded_hosts(), recovered.stranded_hosts());
    EXPECT_GT(lost.exposure_days_hypertp, recovered.exposure_days_hypertp);
    return;  // One meaningful seed is enough.
  }
  FAIL() << "no seed produced a rollout with post-pause faults";
}

// A storm dense enough to strike a 60-host, 5-wide rollout.
OperationalConfig StormConfig(uint64_t seed) {
  OperationalConfig config = BaseConfig(seed);
  config.hosts = 60;
  config.parallel_hosts = 5;  // Long rollouts: room for strikes.
  config.crash_storm.rate_per_hour = 600.0;
  config.crash_storm.recovery_time = Seconds(4);
  config.crash_storm.pre_pause_fraction = 0.2;
  config.crash_storm.scrubbed_fraction = 0.1;
  return config;
}

TEST(OperationalTest, FaultStormModeSurfacesCrashRecoveryCounters) {
  // A year of rollouts under seeded hypervisor crashes: strikes land, every
  // one resolves through the salvage taxonomy, and the report stays
  // deterministic in the seed.
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    const OperationalConfig config = StormConfig(seed);
    const OperationalReport report = RunOperationalSimulation(config);
    if (report.transplants_away == 0 || report.fleet.crashes == 0) {
      continue;
    }
    EXPECT_EQ(report.fleet.crashes,
              report.fleet.crash_salvages + report.fleet.crash_live_recoveries +
                  report.fleet.lost);
    const OperationalReport again = RunOperationalSimulation(config);
    EXPECT_EQ(report.fleet.crashes, again.fleet.crashes);
    EXPECT_DOUBLE_EQ(report.exposure_days_hypertp, again.exposure_days_hypertp);
    EXPECT_EQ(report.event_log, again.event_log);
    return;  // One meaningful seed is enough.
  }
  FAIL() << "no seed produced a rollout with crash strikes";
}

TEST(OperationalTest, CampaignModeComposesWithFaultStorms) {
  // The same storm in campaign mode is the datacenter's storm, thinned across
  // the shards: strikes land and resolve through the salvage taxonomy, and
  // the crash counters reach the year's report.
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    OperationalConfig config = StormConfig(seed);
    config.fleet_mode = FleetExecutionMode::kCampaign;
    const OperationalReport report = RunOperationalSimulation(config);
    if (report.transplants_away == 0 || report.fleet.crashes == 0) {
      continue;
    }
    EXPECT_EQ(report.fleet.crashes,
              report.fleet.crash_salvages + report.fleet.crash_live_recoveries +
                  report.fleet.lost);
    EXPECT_EQ(report.fleet_rollouts, report.transplants_away + report.transplants_back);
    const OperationalReport again = RunOperationalSimulation(config);
    EXPECT_EQ(report.fleet.crashes, again.fleet.crashes);
    EXPECT_DOUBLE_EQ(report.exposure_days_hypertp, again.exposure_days_hypertp);
    return;  // One meaningful seed is enough.
  }
  FAIL() << "no seed produced a campaign with crash strikes";
}

TEST(OperationalTest, RejectedRolloutsAreChargedAlikeInBothModes) {
  // An invalid fault knob rejects every rollout. Neither mode counts a
  // rollout or charges downtime; both log the field-naming error and leave
  // every host stranded for the residual patch wait.
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    const OperationalReport clean = RunOperationalSimulation(BaseConfig(seed));
    if (clean.transplants_away == 0) {
      continue;
    }
    OperationalReport rejected[2];
    const FleetExecutionMode modes[2] = {FleetExecutionMode::kFleetController,
                                         FleetExecutionMode::kCampaign};
    for (int i = 0; i < 2; ++i) {
      OperationalConfig config = BaseConfig(seed);
      config.fleet_mode = modes[i];
      config.failure_probability = 1.5;
      rejected[i] = RunOperationalSimulation(config);
      const OperationalReport& r = rejected[i];
      EXPECT_EQ(r.transplants_away, clean.transplants_away);
      EXPECT_EQ(r.fleet_rollouts, 0);
      EXPECT_EQ(r.vm_downtime_paid, 0);
      EXPECT_EQ(r.stranded_hosts(),
                config.hosts * (r.transplants_away + r.transplants_back));
      EXPECT_GT(r.exposure_days_hypertp, clean.exposure_days_hypertp);
      int logged = 0;
      for (const std::string& line : r.event_log) {
        logged += line.find("rollout rejected") != std::string::npos &&
                  line.find("failure_probability") != std::string::npos;
      }
      EXPECT_EQ(logged, r.transplants_away + r.transplants_back);
    }
    EXPECT_DOUBLE_EQ(rejected[0].exposure_days_hypertp, rejected[1].exposure_days_hypertp);
    EXPECT_EQ(rejected[0].event_log.size(), rejected[1].event_log.size());
    return;  // One meaningful seed is enough.
  }
  FAIL() << "no seed produced a transplant";
}

TEST(OperationalTest, MultiYearRunsScaleEvents) {
  OperationalConfig one = BaseConfig(11);
  OperationalConfig five = BaseConfig(11);
  five.years = 5;
  const int d1 = RunOperationalSimulation(one).disclosures;
  const int d5 = RunOperationalSimulation(five).disclosures;
  EXPECT_GT(d5, d1);
}

TEST(OperationalPolicyTest, AdaptivePolicyReplacesTheFlatDowntimeCharge) {
  // Same seeded year, fixed vs adaptive: the adaptive arm prices every VM
  // (sub-second in-place pauses, 300 ms migration brownouts) instead of the
  // flat 1.7 s per VM per pass, so whenever a transplant happened it pays
  // strictly less and reports its decision mix.
  OperationalConfig config = BaseConfig(3);
  const OperationalReport fixed = RunOperationalSimulation(config);

  config.policy.mode = policy::PolicyMode::kAdaptive;
  const OperationalReport adaptive = RunOperationalSimulation(config);

  EXPECT_FALSE(fixed.policy_adaptive);
  EXPECT_TRUE(adaptive.policy_adaptive);
  ASSERT_GT(fixed.transplants_away, 0);
  EXPECT_GT(adaptive.vm_downtime_paid, 0);
  EXPECT_LT(adaptive.vm_downtime_paid, fixed.vm_downtime_paid);
  EXPECT_GT(adaptive.fleet.policy_inplace_vms + adaptive.fleet.policy_migrate_vms, 0);
  // Same disclosure stream either way: the policy only reprices rollouts.
  EXPECT_EQ(adaptive.disclosures, fixed.disclosures);
  EXPECT_EQ(adaptive.transplants_away, fixed.transplants_away);
}

}  // namespace
}  // namespace hypertp
