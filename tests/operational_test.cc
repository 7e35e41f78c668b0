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

TEST(OperationalTest, AbortThresholdIsHonouredInBothModes) {
  // Nine attempts in ten fail and none retries, so a quarter of the hosts
  // fail for good within a few waves: the default 0.25 abort_threshold must
  // stop rollouts and leave the unreached hosts untouched.
  OperationalConfig config = BaseConfig(3);
  config.failure_probability = 0.9;
  config.max_retries = 0;
  const OperationalReport report = RunOperationalSimulation(config);
  ASSERT_GT(report.fleet_rollouts, 0);
  EXPECT_GT(report.fleet_aborts, 0);
  EXPECT_GT(report.fleet.untouched, 0);
}

TEST(OperationalTest, FixedPolicyChargesOnlyTransplantedHosts) {
  // The flat Fig. 6 charge is paid per VM of every host a rollout actually
  // transplanted: hosts an abort never reached and hosts whose attempts all
  // failed pay nothing, exactly as under the adaptive policy.
  OperationalConfig config = BaseConfig(3);
  config.failure_probability = 0.9;
  config.max_retries = 0;
  const OperationalReport report = RunOperationalSimulation(config);
  ASSERT_GT(report.fleet_aborts, 0);
  ASSERT_GT(report.fleet.transplant_successes, 0);
  EXPECT_EQ(report.vm_downtime_paid,
            SecondsF(1.7) * config.policy.vms_per_host * report.fleet.transplant_successes);
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

TEST(OperationalTest, RejectedRolloutsAreChargedAlikeInBothModes) {
  // An invalid fault knob rejects every rollout: none is counted or charged
  // downtime, each logs the field-naming error, and every host stays
  // stranded for the residual patch wait.
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    const OperationalReport clean = RunOperationalSimulation(BaseConfig(seed));
    if (clean.transplants_away == 0) {
      continue;
    }
    OperationalConfig config = BaseConfig(seed);
    config.failure_probability = 1.5;
    const OperationalReport r = RunOperationalSimulation(config);
    EXPECT_EQ(r.transplants_away, clean.transplants_away);
    EXPECT_EQ(r.fleet_rollouts, 0);
    EXPECT_EQ(r.vm_downtime_paid, 0);
    EXPECT_EQ(r.stranded_hosts(), config.hosts * (r.transplants_away + r.transplants_back));
    EXPECT_GT(r.exposure_days_hypertp, clean.exposure_days_hypertp);
    int logged = 0;
    for (const std::string& line : r.event_log) {
      logged += line.find("rollout rejected") != std::string::npos &&
                line.find("failure_probability") != std::string::npos;
    }
    EXPECT_EQ(logged, r.transplants_away + r.transplants_back);
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
