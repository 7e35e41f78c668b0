// ReHype-mode crash recovery under seeded fault storms (FleetConfig::
// crash_storm): unplanned InPlaceTP recoveries from the last PRAM image,
// competing with the upgrade rollout for worker slots.
//  - storms strike only serving hosts and respect the storm window;
//  - the ledger-state mix routes crashes through the DecideSalvage() table:
//    clean commits salvage, pre-commit states recover live, scrubbed/stale
//    ledgers are honest data loss;
//  - crash-induced rollbacks re-expose and re-queue upgraded hosts;
//  - the fixed-fleet control arm loses every crashed host;
//  - recoveries have their own retry budget with saturating backoff and hold
//    worker slots with priority over upgrade waves;
//  - everything is deterministic in the seed, and a disabled storm leaves
//    legacy runs byte-identical.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/fleet/fleet_controller.h"

namespace hypertp {
namespace {

FleetConfig StormBase() {
  FleetConfig config;
  config.hosts = 60;
  config.parallel_hosts = 6;
  config.per_host_transplant = Seconds(10);
  config.seed = 7;
  // One expected crash event per ~2 s of sim time, for the first 80 s of a
  // rollout that takes ~100 s undisturbed: plenty of strikes, guaranteed end.
  config.crash_storm.rate_per_hour = 1800.0;
  config.crash_storm.duration = Seconds(80);
  config.crash_storm.recovery_time = Seconds(4);
  return config;
}

TEST(FaultStormTest, StormStrikesAndFleetStillCompletes) {
  SimExecutor executor;
  FleetController controller(executor, StormBase());
  const FleetRolloutReport& report = controller.Run();

  EXPECT_GT(report.crashes, 0);
  // Default mix: every crash finds a cleanly committed image and salvages.
  EXPECT_EQ(report.crash_salvages, report.crashes);
  EXPECT_EQ(report.crash_data_loss, 0);
  EXPECT_EQ(report.lost, 0);
  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.upgraded, report.hosts);
  // Same-kind salvage of already-upgraded victims rolled them back; they
  // re-queued and were upgraded again, so retries outnumber a clean run.
  EXPECT_EQ(static_cast<size_t>(report.crashes),
            controller.trace().EventsOfType(FleetEventType::kHostCrashed).size());
  EXPECT_EQ(static_cast<int>(report.recovery_latency_seconds.count()), report.crashes);
  EXPECT_GE(report.recovery_latency_seconds.Percentile(50), 4.0);
}

TEST(FaultStormTest, StormWindowBoundsEveryStrike) {
  SimExecutor executor;
  FleetConfig config = StormBase();
  config.crash_storm.start = Seconds(10);
  config.crash_storm.duration = Seconds(30);
  FleetController controller(executor, config);
  controller.Run();

  const auto crashes = controller.trace().EventsOfType(FleetEventType::kHostCrashed);
  ASSERT_FALSE(crashes.empty());
  for (const FleetEvent& event : crashes) {
    EXPECT_GE(event.time, Seconds(10));
    EXPECT_LT(event.time, Seconds(40));
  }
}

TEST(FaultStormTest, CrashesStrikeOnlyServingHosts) {
  SimExecutor executor;
  FleetController controller(executor, StormBase());
  controller.Run();

  // Replay the trace: at each kHostCrashed the victim must not have an open
  // drain/transplant/rollback/recovery on the books.
  std::vector<bool> busy(static_cast<size_t>(controller.config().hosts), false);
  for (const FleetEvent& event : controller.trace().Events()) {
    if (event.host < 0) {
      continue;
    }
    const size_t host = static_cast<size_t>(event.host);
    switch (event.type) {
      case FleetEventType::kDrainStart:
      case FleetEventType::kRollbackStart:
      case FleetEventType::kRecoveryStart:
        busy[host] = true;
        break;
      case FleetEventType::kTransplantDone:
      case FleetEventType::kHostFailed:
      case FleetEventType::kRollbackSucceeded:
      case FleetEventType::kRecoveryDone:
      case FleetEventType::kHostLost:
      case FleetEventType::kRetryScheduled:  // Parked in backoff: not serving.
        busy[host] = false;
        break;
      case FleetEventType::kHostCrashed:
        EXPECT_FALSE(busy[host]) << "crash struck a busy host " << event.host;
        break;
      default:
        break;
    }
    // Hosts parked in retry backoff keep a pending StartTransplant event;
    // they must never be struck either.
    if (event.type == FleetEventType::kRetryScheduled) {
      busy[host] = true;
    }
  }
}

TEST(FaultStormTest, LedgerMixRoutesThroughSalvageTaxonomy) {
  SimExecutor executor;
  FleetConfig config = StormBase();
  config.crash_storm.pre_pause_fraction = 0.3;       // -> live recovery.
  config.crash_storm.mid_save_torn_fraction = 0.2;   // -> live recovery.
  config.crash_storm.stale_commit_fraction = 0.1;    // -> data loss.
  config.crash_storm.scrubbed_fraction = 0.1;        // -> data loss.
  FleetController controller(executor, config);
  const FleetRolloutReport& report = controller.Run();

  ASSERT_GT(report.crashes, 0);
  EXPECT_GT(report.crash_live_recoveries, 0);
  EXPECT_GT(report.crash_data_loss, 0);
  // Every crash is exactly one of: salvage, live recovery, or loss (loss from
  // ledger data loss; the recovery path itself never fails here).
  EXPECT_EQ(report.crash_salvages + report.crash_live_recoveries + report.lost, report.crashes);
  EXPECT_EQ(report.crash_data_loss, report.lost);
  // Lost hosts keep the rollout from being complete, but are not "failed"
  // (they never exhausted an upgrade retry budget) nor "untouched".
  EXPECT_FALSE(report.complete);
  EXPECT_EQ(report.failed, 0);
  EXPECT_EQ(report.hosts, report.upgraded + report.lost + report.untouched);
}

TEST(FaultStormTest, FixedFleetControlArmLosesEveryCrashedHost) {
  SimExecutor executor;
  FleetConfig config = StormBase();
  config.crash_storm.recover = false;
  FleetController controller(executor, config);
  const FleetRolloutReport& report = controller.Run();

  ASSERT_GT(report.crashes, 0);
  EXPECT_EQ(report.lost, report.crashes);
  EXPECT_EQ(report.crash_salvages, 0);
  EXPECT_EQ(report.crash_live_recoveries, 0);
  EXPECT_EQ(report.crash_recovery_retries, 0);
  EXPECT_EQ(report.recovery_latency_seconds.count(), 0u);
  EXPECT_FALSE(report.complete);
}

TEST(FaultStormTest, RecoveringFleetBeatsFixedFleetOnSurvival) {
  const auto run = [](bool recover) {
    SimExecutor executor;
    FleetConfig config = StormBase();
    config.crash_storm.recover = recover;
    FleetController controller(executor, config);
    return controller.Run();
  };
  const FleetRolloutReport fixed = run(false);
  const FleetRolloutReport recovering = run(true);
  ASSERT_GT(fixed.crashes, 0);
  // The whole point of ReHype-mode recovery: same storm, hosts survive.
  EXPECT_EQ(recovering.lost, 0);
  EXPECT_GT(fixed.lost, 0);
  EXPECT_GT(recovering.upgraded, fixed.upgraded);
}

TEST(FaultStormTest, CrashRollbackReExposesAndRequeues) {
  SimExecutor executor;
  FleetConfig config = StormBase();
  // Long storm relative to the rollout: most strikes land on upgraded hosts.
  config.crash_storm.rate_per_hour = 900.0;
  FleetController controller(executor, config);
  const FleetRolloutReport& report = controller.Run();

  ASSERT_GT(report.crash_rollbacks, 0);
  // Every rolled-back host was re-upgraded by the time the rollout finished.
  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.upgraded, report.hosts);
  // Exposure must have gone *up* at a crash rollback...
  int increases = 0;
  int net = 0;
  std::vector<ExposureDelta> deltas;
  controller.TakeExposureDeltas(deltas);
  for (const ExposureDelta& delta : deltas) {
    increases += delta.hosts > 0;
    net += delta.hosts;
  }
  EXPECT_GT(increases, 0);
  // ...and exposure accounting stays consistent: every host ends safe.
  EXPECT_EQ(net, -report.hosts);
}

TEST(FaultStormTest, CrossKindSalvageUpgradesHostsEarly) {
  SimExecutor executor;
  FleetConfig config = StormBase();
  config.crash_storm.cross_kind_fraction = 1.0;
  FleetController controller(executor, config);
  const FleetRolloutReport& report = controller.Run();

  ASSERT_GT(report.crashes, 0);
  // Every salvage re-instantiates the target kind: un-upgraded victims come
  // back upgraded, upgraded victims keep their upgrade — never a rollback.
  EXPECT_EQ(report.crash_rollbacks, 0);
  EXPECT_GT(report.crash_upgrades, 0);
  EXPECT_TRUE(report.complete);
}

TEST(FaultStormTest, RecoveryRetriesExhaustTheirOwnBudget) {
  SimExecutor executor;
  FleetConfig config = StormBase();
  config.crash_storm.rate_per_hour = 360.0;  // Sparser: keep the run short.
  config.crash_storm.recovery_failure_probability = 1.0;
  config.crash_storm.recovery_max_retries = 35;  // Deep: exercises saturation.
  config.crash_storm.recovery_backoff = Seconds(2);
  FleetController controller(executor, config);
  const FleetRolloutReport& report = controller.Run();

  ASSERT_GT(report.crashes, 0);
  // Every recovery attempt fails: each crash burns the full retry budget and
  // the host is lost. The upgrade retry counter stays separate.
  EXPECT_EQ(report.lost, report.crashes);
  EXPECT_EQ(report.crash_recovery_retries, report.crashes * 35);
  EXPECT_EQ(report.crash_salvages, 0);
  EXPECT_EQ(report.retries, 0);
  // 35 consecutive failures at a 2 s base overflows a naive shift; the
  // saturating backoff keeps every retry time finite and ordered.
  SimTime previous = -1;
  for (const FleetEvent& event : controller.trace().EventsOfType(FleetEventType::kRecoveryStart)) {
    EXPECT_GE(event.time, 0);
    EXPECT_GT(event.time, previous - 1);  // Non-decreasing across all hosts.
    previous = event.time;
  }
  EXPECT_GE(report.makespan, 0);
}

TEST(FaultStormTest, RecoveriesAndWavesShareTheWorkerSlotCap) {
  SimExecutor executor;
  FleetConfig config = StormBase();
  config.crash_storm.rate_per_hour = 3600.0;
  FleetController controller(executor, config);
  controller.Run();

  // Replay the trace counting concurrently-held slots: active transplant
  // attempts (start -> done/failed) plus active recoveries (start ->
  // done/retry/lost). Their sum must never exceed parallel_hosts.
  int active_transplants = 0;
  int active_recoveries = 0;
  for (const FleetEvent& event : controller.trace().Events()) {
    switch (event.type) {
      case FleetEventType::kTransplantStart:
        ++active_transplants;
        break;
      case FleetEventType::kTransplantDone:
      case FleetEventType::kTransplantFailed:
        --active_transplants;
        break;
      case FleetEventType::kRecoveryStart:
        ++active_recoveries;
        break;
      case FleetEventType::kRecoveryDone:
      case FleetEventType::kRecoveryRetry:
      case FleetEventType::kHostLost:
        active_recoveries -= event.type == FleetEventType::kHostLost &&
                                     event.attempt == 0
                                 ? 0  // Lost without ever starting a recovery.
                                 : 1;
        break;
      default:
        break;
    }
    EXPECT_LE(active_transplants + active_recoveries, config.parallel_hosts)
        << "at t=" << event.time;
    EXPECT_GE(active_recoveries, 0);
  }
}

TEST(FaultStormTest, StormRunsAreDeterministicInTheSeed) {
  const auto run = [] {
    SimExecutor executor;
    FleetConfig config = StormBase();
    config.crash_storm.pre_pause_fraction = 0.2;
    config.crash_storm.scrubbed_fraction = 0.1;
    config.crash_storm.recovery_failure_probability = 0.3;
    config.crash_storm.cross_kind_fraction = 0.4;
    FleetController controller(executor, config);
    controller.Run();
    return FleetRolloutReportToJson(controller.report()) + "\n" +
           FleetTraceToJson(controller.trace());
  };
  EXPECT_EQ(run(), run());
}

TEST(FaultStormTest, DisabledStormKeepsLegacyRunsByteIdentical) {
  const auto run = [](bool with_storm_fields) {
    SimExecutor executor;
    FleetConfig config;
    config.hosts = 40;
    config.parallel_hosts = 5;
    config.failure_probability = 0.2;
    config.post_pause_fraction = 0.3;
    config.rollback_failure_probability = 0.1;
    config.latency_jitter = 0.2;
    config.seed = 99;
    if (with_storm_fields) {
      // Tuning recovery knobs without enabling the storm (rate stays 0) must
      // not move a single draw or event.
      config.crash_storm.recovery_time = Seconds(99);
      config.crash_storm.recovery_failure_probability = 0.9;
      config.crash_storm.cross_kind_fraction = 0.9;
    }
    FleetController controller(executor, config);
    controller.Run();
    return FleetRolloutReportToJson(controller.report()) + "\n" +
           FleetTraceToJson(controller.trace());
  };
  EXPECT_EQ(run(false), run(true));
}

// A storm so faint its next arrival lies past the end of representable time
// ends the arrival chain. The gap used to be cast to SimDuration unchecked:
// on x86 that gave INT64_MIN, clamped to 1 ns, so the fleet crashed host
// after host 1 ns apart.
TEST(FaultStormTest, UnrepresentableArrivalGapEndsTheStorm) {
  SimExecutor executor;
  FleetConfig config;
  config.hosts = 200;
  config.parallel_hosts = 1;
  config.per_host_transplant = Seconds(10);
  config.seed = 7;
  // Expected crashes over the ~2000 s rollout: about 5e-11.
  config.crash_storm.rate_per_hour = 1e-7;
  config.crash_storm.recover = false;
  FleetController controller(executor, config);
  const FleetRolloutReport& report = controller.Run();
  EXPECT_EQ(report.crashes, 0);
  EXPECT_EQ(report.lost, 0);
  EXPECT_TRUE(report.complete);
}

}  // namespace
}  // namespace hypertp
