// Tests for the event-driven fleet control plane: wave scheduling,
// anti-affinity, fault injection with retries/backoff, the fleet abort
// threshold and exposure accounting.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/fleet/fleet_controller.h"
#include "src/obs/trace.h"
#include "src/vulndb/exposure_stream.h"
#include "src/vulndb/window_model.h"

namespace hypertp {
namespace {

FleetConfig BaseConfig() {
  FleetConfig config;
  config.hosts = 100;
  config.parallel_hosts = 10;
  config.per_host_transplant = Seconds(10);
  config.seed = 42;
  return config;
}

// The exposure changes `controller` recorded since the last take.
std::vector<ExposureDelta> TakeDeltas(FleetController& controller) {
  std::vector<ExposureDelta> deltas;
  controller.TakeExposureDeltas(deltas);
  return deltas;
}

// Integrates a standalone rollout's exposure deltas from its start at t=0
// (every host exposed) to `end`, in host-days.
double ExposedHostDays(FleetController& controller, SimTime end) {
  ExposureStream stream(controller.config().hosts, controller.config().hosts);
  for (const ExposureDelta& delta : TakeDeltas(controller)) {
    stream.OnHostsDelta(delta.time, delta.hosts, delta.hosts);
  }
  stream.Seal(end);
  return stream.exposed_host_days();
}

// One host's legs read back from a controller's event trace: when it began
// draining, began its transplant and finished it (-1 where it never did).
struct HostLegs {
  SimTime drain_start = -1;
  SimTime transplant_start = -1;
  SimTime transplant_done = -1;
};

std::map<int, HostLegs> LegsByHost(const FleetController& controller) {
  std::map<int, HostLegs> legs;
  for (const FleetEvent& event : controller.trace().Events()) {
    if (event.type == FleetEventType::kDrainStart) {
      legs[event.host].drain_start = event.time;
    } else if (event.type == FleetEventType::kTransplantStart) {
      legs[event.host].transplant_start = event.time;
    } else if (event.type == FleetEventType::kTransplantDone) {
      legs[event.host].transplant_done = event.time;
    }
  }
  return legs;
}

TEST(FleetControllerTest, FaultFreeRolloutMatchesClosedForm) {
  SimExecutor executor;
  FleetController controller(executor, BaseConfig());
  const FleetRolloutReport& report = controller.Run();

  FleetProfile profile;  // Same shape: 100 hosts, 10 parallel, 10 s each.
  EXPECT_EQ(report.makespan, FleetTransplantTime(profile));
  EXPECT_TRUE(report.complete);
  EXPECT_FALSE(report.aborted);
  EXPECT_EQ(report.upgraded, 100);
  EXPECT_EQ(report.failed, 0);
  EXPECT_EQ(report.retries, 0);
  EXPECT_EQ(report.waves, 10);
  for (const FleetHost& host : controller.hosts()) {
    EXPECT_EQ(host.state, FleetHostState::kServing);
    EXPECT_TRUE(host.upgraded);
  }
}

TEST(FleetControllerTest, EveryHostDrainsBeforeTransplanting) {
  SimExecutor executor;
  FleetConfig config = BaseConfig();
  config.hosts = 20;
  config.drain_time = Seconds(3);
  FleetController controller(executor, config);
  controller.Run();

  std::map<int, SimTime> drain_at, transplant_at, done_at;
  for (const FleetEvent& event : controller.trace().Events()) {
    switch (event.type) {
      case FleetEventType::kDrainStart:
        drain_at[event.host] = event.time;
        break;
      case FleetEventType::kTransplantStart:
        transplant_at[event.host] = event.time;
        break;
      case FleetEventType::kTransplantDone:
        done_at[event.host] = event.time;
        break;
      default:
        break;
    }
  }
  ASSERT_EQ(drain_at.size(), 20u);
  ASSERT_EQ(done_at.size(), 20u);
  for (const auto& [host, at] : transplant_at) {
    EXPECT_EQ(at - drain_at[host], Seconds(3)) << "host " << host;
    EXPECT_EQ(done_at[host] - at, Seconds(10)) << "host " << host;
  }
  // Drains lengthen every wave: 20 hosts, 10 parallel -> 2 x (3 + 10) s.
  EXPECT_EQ(controller.report().makespan, Seconds(26));
}

TEST(FleetControllerTest, WaveWidthNeverExceeded) {
  SimExecutor executor;
  FleetConfig config = BaseConfig();
  config.hosts = 37;
  config.parallel_hosts = 8;
  FleetController controller(executor, config);
  const FleetRolloutReport& report = controller.Run();
  EXPECT_EQ(report.waves, 5);  // ceil(37/8).

  // Replay the trace counting in-flight hosts (drain start -> done).
  int in_flight = 0, peak = 0;
  for (const FleetEvent& event : controller.trace().Events()) {
    if (event.type == FleetEventType::kDrainStart) {
      peak = std::max(peak, ++in_flight);
    } else if (event.type == FleetEventType::kTransplantDone ||
               event.type == FleetEventType::kHostFailed) {
      --in_flight;
    }
  }
  EXPECT_EQ(in_flight, 0);
  EXPECT_EQ(peak, 8);
}

TEST(FleetControllerTest, AntiAffinityCapsPerDomainConcurrency) {
  SimExecutor executor;
  FleetConfig config = BaseConfig();
  config.hosts = 40;
  config.parallel_hosts = 10;
  config.fault_domains = 4;  // Hosts i%4.
  config.max_per_domain_in_flight = 1;
  FleetController controller(executor, config);
  const FleetRolloutReport& report = controller.Run();
  EXPECT_TRUE(report.complete);
  // The domain cap shrinks every wave to 4 hosts: 10 waves, not 4.
  EXPECT_EQ(report.waves, 10);

  std::map<int, int> domain_in_flight;
  for (const FleetEvent& event : controller.trace().Events()) {
    if (event.host < 0) {
      continue;
    }
    const int domain = event.host % 4;
    if (event.type == FleetEventType::kDrainStart) {
      EXPECT_LT(domain_in_flight[domain], 1) << "domain " << domain;
      ++domain_in_flight[domain];
    } else if (event.type == FleetEventType::kTransplantDone ||
               event.type == FleetEventType::kHostFailed) {
      --domain_in_flight[domain];
    }
  }
}

TEST(FleetControllerTest, RetriesUseExponentialBackoff) {
  SimExecutor executor;
  FleetConfig config = BaseConfig();
  config.hosts = 1;
  config.parallel_hosts = 1;
  config.failure_probability = 1.0;  // Every attempt fails.
  config.max_retries = 3;
  config.retry_backoff = Seconds(5);
  FleetController controller(executor, config);
  const FleetRolloutReport& report = controller.Run();

  EXPECT_FALSE(report.complete);
  EXPECT_EQ(report.failed, 1);
  EXPECT_EQ(report.retries, 3);
  EXPECT_EQ(controller.hosts()[0].state, FleetHostState::kFailed);
  EXPECT_EQ(controller.hosts()[0].attempts, 4);  // Initial + 3 retries.

  const auto starts = controller.trace().EventsOfType(FleetEventType::kTransplantStart);
  const auto failures = controller.trace().EventsOfType(FleetEventType::kTransplantFailed);
  ASSERT_EQ(starts.size(), 4u);
  ASSERT_EQ(failures.size(), 4u);
  // Backoff doubles: 5 s, 10 s, 20 s between a failure and the next attempt.
  EXPECT_EQ(starts[1].time - failures[0].time, Seconds(5));
  EXPECT_EQ(starts[2].time - failures[1].time, Seconds(10));
  EXPECT_EQ(starts[3].time - failures[2].time, Seconds(20));
  EXPECT_EQ(controller.trace().EventsOfType(FleetEventType::kHostFailed).size(), 1u);
}

TEST(FleetControllerTest, AbortThresholdStopsTheRollout) {
  SimExecutor executor;
  FleetConfig config = BaseConfig();
  config.failure_probability = 1.0;
  config.max_retries = 0;
  config.abort_threshold = 0.05;  // Abort past 5 permanently failed hosts.
  FleetController controller(executor, config);
  const FleetRolloutReport& report = controller.Run();

  EXPECT_TRUE(report.aborted);
  EXPECT_FALSE(report.complete);
  EXPECT_EQ(report.upgraded, 0);
  EXPECT_EQ(report.failed, 6);  // First strictly-above count.
  // Graceful degradation: the rest of the fleet was never touched and keeps
  // serving the vulnerable hypervisor.
  EXPECT_EQ(report.untouched, 94);
  int still_serving = 0;
  for (const FleetHost& host : controller.hosts()) {
    still_serving += host.state == FleetHostState::kServing && !host.upgraded;
  }
  EXPECT_GE(still_serving, 90);
  EXPECT_EQ(controller.trace().EventsOfType(FleetEventType::kRolloutAborted).size(), 1u);
  EXPECT_TRUE(controller.trace().EventsOfType(FleetEventType::kRolloutComplete).empty());
}

TEST(FleetControllerTest, ExecutorSurvivesAnAbortedRollout) {
  // The satellite regression: a controller abort calls SimExecutor::Stop();
  // the same executor must run later rollouts (and plain events) normally.
  SimExecutor executor;
  FleetConfig config = BaseConfig();
  config.failure_probability = 1.0;
  config.max_retries = 0;
  config.abort_threshold = 0.01;
  {
    FleetController controller(executor, config);
    EXPECT_TRUE(controller.Run().aborted);
  }
  EXPECT_TRUE(executor.stopped());

  int fired = 0;
  executor.ScheduleAfter(Seconds(1), [&] { ++fired; });
  executor.Run();
  EXPECT_EQ(fired, 1);

  FleetConfig healthy = BaseConfig();
  FleetController again(executor, healthy);
  const FleetRolloutReport& report = again.Run();
  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.makespan, Seconds(100));
}

TEST(FleetControllerTest, ControllerAtAReusedAddressIgnoresItsPredecessorsEvents) {
  // Each operational rollout builds its controller on the stack, so two
  // controllers can occupy one address, one after the other, on one
  // executor. The first aborts with events still queued; they must dispatch
  // as no-ops, never as the second controller's work.
  SimExecutor executor;
  FleetConfig doomed = BaseConfig();
  doomed.failure_probability = 1.0;
  doomed.max_retries = 0;
  doomed.abort_threshold = 0.01;
  std::optional<FleetController> controller;
  controller.emplace(executor, doomed);
  const FleetController* const first = &*controller;
  ASSERT_TRUE(controller->Run().aborted);
  ASSERT_GT(executor.pending_events(), 0u);
  const SimTime start = executor.now();

  FleetConfig healthy = BaseConfig();
  healthy.drain_time = Seconds(2);
  healthy.failure_probability = 0.1;
  healthy.max_retries = 3;
  healthy.latency_jitter = 0.3;
  controller.emplace(executor, healthy);
  ASSERT_EQ(&*controller, first);
  const std::string report = FleetRolloutReportToJson(controller->Run());
  const std::string trace = FleetTraceToJson(controller->trace());

  SimExecutor fresh_executor;
  fresh_executor.AdvanceTo(start);
  FleetController fresh(fresh_executor, healthy);
  const FleetRolloutReport& fresh_report = fresh.Run();
  EXPECT_TRUE(fresh_report.complete);
  EXPECT_GT(fresh_report.retries, 0);
  EXPECT_EQ(report, FleetRolloutReportToJson(fresh_report));
  EXPECT_EQ(trace, FleetTraceToJson(fresh.trace()));
}

TEST(FleetControllerTest, InjectedFailuresRetryAndStillComplete) {
  SimExecutor executor;
  FleetConfig config = BaseConfig();
  config.hosts = 1000;
  config.parallel_hosts = 50;
  config.failure_probability = 0.01;
  config.max_retries = 5;
  FleetController controller(executor, config);
  const FleetRolloutReport& report = controller.Run();

  EXPECT_TRUE(report.complete);  // P(6 consecutive failures) ~ 1e-12.
  EXPECT_FALSE(report.aborted);
  EXPECT_GT(report.retries, 0);
  // Retried hosts straggle their wave past the fault-free 10 s.
  EXPECT_GT(report.makespan, Seconds(200));
  EXPECT_GT(report.wave_latency_seconds.max(), 10.0);
  EXPECT_GE(report.wave_latency_seconds.Percentile(50), 10.0);
}

TEST(FleetControllerTest, PostPauseFaultsRollBackThenRetryToCompletion) {
  // Post-pause faults strand hosts mid-transplant; with reliable rollbacks
  // every stranded host salvages itself onto the source hypervisor and the
  // normal retry policy still drives the rollout to completion.
  SimExecutor executor;
  FleetConfig config = BaseConfig();
  config.hosts = 500;
  config.parallel_hosts = 50;
  config.failure_probability = 0.2;
  config.post_pause_fraction = 0.5;
  config.rollback_time = Seconds(5);
  config.max_retries = 8;
  FleetController controller(executor, config);
  const FleetRolloutReport& report = controller.Run();

  EXPECT_TRUE(report.complete);
  EXPECT_GT(report.post_pause_faults, 0);
  // No rollback ever fails here, so every post-pause fault was salvaged.
  EXPECT_EQ(report.rollbacks, report.post_pause_faults);
  EXPECT_EQ(report.rollback_failures, 0);
  EXPECT_EQ(report.failed, 0);

  // The trace shows the detour: start/succeeded pairs, and rollbacks add
  // wall-clock on top of the failed attempts' retries.
  int starts = 0, succeeded = 0;
  for (const FleetEvent& e : controller.trace().Events()) {
    starts += e.type == FleetEventType::kRollbackStart;
    succeeded += e.type == FleetEventType::kRollbackSucceeded;
  }
  EXPECT_EQ(starts, report.post_pause_faults);
  EXPECT_EQ(succeeded, report.rollbacks);
}

TEST(FleetControllerTest, FailedRollbackIsFatalWithoutRetry) {
  // A host whose ledger rollback fails has no hypervisor to serve from:
  // it is billed failed immediately, bypassing the retry budget.
  SimExecutor executor;
  FleetConfig config = BaseConfig();
  config.hosts = 200;
  config.parallel_hosts = 20;
  config.failure_probability = 0.3;
  config.post_pause_fraction = 1.0;          // Every failure is post-pause.
  config.rollback_failure_probability = 1.0;  // Every rollback fails.
  config.max_retries = 5;
  FleetController controller(executor, config);
  const FleetRolloutReport& report = controller.Run();

  EXPECT_GT(report.post_pause_faults, 0);
  EXPECT_EQ(report.rollbacks, 0);
  EXPECT_EQ(report.rollback_failures, report.post_pause_faults);
  EXPECT_EQ(report.failed, report.post_pause_faults);
  // Fatal means fatal: no retry was ever scheduled.
  EXPECT_EQ(report.retries, 0);
  EXPECT_EQ(report.upgraded + report.failed, report.hosts);
  for (const FleetHost& host : controller.hosts()) {
    if (host.state == FleetHostState::kFailed) {
      EXPECT_EQ(host.attempts, 1);  // Lost on the first (only) attempt.
    }
  }
  // Failed hosts keep accruing exposure: they never stop being exposed
  // until the rollout ends.
  EXPECT_GT(ExposedHostDays(controller, report.makespan), 0.0);
}

TEST(FleetControllerTest, LegacyConfigsKeepTheirDrawSequence) {
  // post_pause_fraction == 0 must not consume extra RNG draws: a seeded
  // rollout with the recovery knobs at their defaults is bit-identical to
  // the pre-recovery behavior (upgraded/retries/makespan all unchanged).
  auto run = [](double post_pause_fraction) {
    SimExecutor executor;
    FleetConfig config;
    config.hosts = 300;
    config.parallel_hosts = 30;
    config.per_host_transplant = Seconds(10);
    config.failure_probability = 0.15;
    config.latency_jitter = 0.2;
    config.max_retries = 4;
    config.seed = 1234;
    config.post_pause_fraction = post_pause_fraction;
    FleetController controller(executor, config);
    FleetRolloutReport report = controller.Run();
    return report;
  };
  const FleetRolloutReport zero = run(0.0);
  const FleetRolloutReport again = run(0.0);
  EXPECT_EQ(zero.retries, again.retries);
  EXPECT_EQ(zero.makespan, again.makespan);
  EXPECT_EQ(zero.post_pause_faults, 0);
  // And turning the knob on actually changes the execution.
  const FleetRolloutReport on = run(0.9);
  EXPECT_GT(on.post_pause_faults, 0);
}

TEST(FleetControllerTest, ExposureIntegralMatchesHandComputation) {
  SimExecutor executor;
  FleetConfig config = BaseConfig();
  config.hosts = 4;
  config.parallel_hosts = 2;
  FleetController controller(executor, config);
  const FleetRolloutReport& report = controller.Run();

  // Wave 1: 4 hosts exposed for 10 s; wave 2: 2 hosts for 10 s.
  const double expected_host_days = (4 * 10.0 + 2 * 10.0) / (24.0 * 3600.0);
  EXPECT_NEAR(ExposedHostDays(controller, report.makespan), expected_host_days, 1e-12);
}

TEST(FleetControllerTest, HoldOpenExposureEndsAtDrain) {
  // Four hosts that all fail stay exposed; the hold-open rollout drains at
  // 10 s and is finalized an hour later. Its exposure and its rollout span
  // both end at the drain, not at the finalizing barrier.
  SimExecutor executor;
  FleetConfig config = BaseConfig();
  config.hosts = 4;
  config.parallel_hosts = 4;
  config.failure_probability = 1.0;
  config.max_retries = 0;
  config.hold_open = true;
  Tracer tracer;
  config.tracer = &tracer;
  FleetController controller(executor, config);
  controller.Start();
  executor.Run();
  ASSERT_TRUE(controller.drained());
  EXPECT_EQ(controller.drained_at(), Seconds(10));
  executor.AdvanceTo(Seconds(10) + Seconds(3600));
  controller.FinalizeDrained();

  const FleetRolloutReport& report = controller.report();
  EXPECT_EQ(report.failed, 4);
  EXPECT_EQ(report.makespan, Seconds(10));
  EXPECT_NEAR(ExposedHostDays(controller, report.makespan),
              4 * ToSeconds(report.makespan) / (24.0 * 3600.0), 1e-15);
  const Span* rollout = tracer.FindSpan("fleet_rollout");
  ASSERT_NE(rollout, nullptr);
  EXPECT_EQ(rollout->duration(), report.makespan);
}

TEST(FleetControllerTest, ExposureDeltasDrainInTimeOrderAndSkipRehoming) {
  // Donor: two racks of 4, waves of 2, filled rack-major. Thief: 2 hosts,
  // drained after one wave.
  SimExecutor donor_executor;
  SimExecutor thief_executor;
  FleetConfig config = BaseConfig();
  config.hold_open = true;
  config.hosts = 8;
  config.fault_domains = 2;
  config.parallel_hosts = 2;
  FleetController donor(donor_executor, config);
  config.hosts = 2;
  config.fault_domains = 1;
  FleetController thief(thief_executor, config);
  donor.Start();
  thief.Start();
  EXPECT_TRUE(TakeDeltas(donor).empty());  // Start records nothing.
  donor_executor.RunUntil(Seconds(15));
  thief_executor.RunUntil(Seconds(15));
  ASSERT_TRUE(thief.drained());

  // Both hosts of the first wave finished at 10 s: one coalesced entry.
  const std::vector<ExposureDelta> first = TakeDeltas(donor);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].time, Seconds(10));
  EXPECT_EQ(first[0].hosts, -2);
  EXPECT_TRUE(TakeDeltas(donor).empty());  // Taking clears.
  int thief_net = 0;
  for (const ExposureDelta& delta : TakeDeltas(thief)) {
    thief_net += delta.hosts;
  }
  EXPECT_EQ(thief_net, -2);

  // Re-homing the untouched rack moves four exposed hosts and no delta.
  const std::vector<StealableDomain> domains = donor.StealableDomains();
  ASSERT_EQ(domains.size(), 1u);
  thief.AdoptHosts(donor.DetachDomain(domains[0].domain));
  EXPECT_TRUE(TakeDeltas(donor).empty());
  EXPECT_TRUE(TakeDeltas(thief).empty());

  donor_executor.Run();
  thief_executor.Run();
  // What is left of each side's exposed count drains to zero through the
  // deltas, in strictly increasing time: the donor's two remaining hosts,
  // the thief's four adopted ones.
  const auto net_in_time_order = [](const std::vector<ExposureDelta>& deltas) {
    int net = 0;
    for (size_t i = 0; i < deltas.size(); ++i) {
      if (i > 0) {
        EXPECT_LT(deltas[i - 1].time, deltas[i].time);
      }
      EXPECT_GT(deltas[i].time, Seconds(15));
      net += deltas[i].hosts;
    }
    return net;
  };
  EXPECT_EQ(net_in_time_order(TakeDeltas(donor)), -2);
  EXPECT_EQ(net_in_time_order(TakeDeltas(thief)), -4);
  donor.FinalizeDrained();
  thief.FinalizeDrained();
  EXPECT_EQ(donor.report().upgraded, 4);
  EXPECT_EQ(thief.report().upgraded, 6);
}

TEST(FleetControllerTest, StolenRackCarriesItsPlansAndTallies) {
  // An adaptive donor whose budgets refuse some hosts, so its rack 1 mixes
  // refused and queued hosts. The thief prices its own hosts under other env
  // signals and timings: only travelling plans reproduce the donor's.
  FleetConfig donor_config = BaseConfig();
  donor_config.hosts = 8;
  donor_config.fault_domains = 2;
  donor_config.parallel_hosts = 2;
  donor_config.hold_open = true;
  donor_config.policy.mode = policy::PolicyMode::kAdaptive;
  donor_config.policy.vms_per_host = 7;
  donor_config.policy.max_vm_pause = Millis(200);
  donor_config.policy.max_migration_duration = Seconds(20);
  FleetConfig thief_config = donor_config;
  thief_config.hosts = 2;
  thief_config.fault_domains = 1;
  thief_config.drain_time = Seconds(1);
  thief_config.per_host_transplant = Seconds(20);
  thief_config.policy.link_gbps = 40.0;
  thief_config.policy.host_headroom = 0.2;
  SimExecutor donor_executor;
  SimExecutor thief_executor;
  FleetController donor(donor_executor, donor_config);
  FleetController thief(thief_executor, thief_config);
  donor.Start();
  thief.Start();

  std::vector<int> members;
  int rack_refused = 0;
  SimDuration queued_work = 0;
  for (int id = 0; id < static_cast<int>(donor.hosts().size()); ++id) {
    if (donor.hosts()[static_cast<size_t>(id)].fault_domain != 1) {
      continue;
    }
    members.push_back(id);
    const policy::HostPolicyPlan& plan = donor.HostPlan(id);
    rack_refused += plan.refused();
    if (!plan.refused()) {
      queued_work += plan.drain_time + plan.transplant_time;
    }
  }
  ASSERT_GT(rack_refused, 0);
  ASSERT_LT(rack_refused, static_cast<int>(members.size()));
  // Nothing ran yet, so both racks are stealable; rack 1's work is its
  // queued hosts' drain + transplant, refused hosts adding nothing.
  const std::vector<StealableDomain> domains = donor.StealableDomains();
  ASSERT_EQ(domains.size(), 2u);
  EXPECT_EQ(domains[1].domain, 1);
  EXPECT_EQ(domains[1].work, queued_work);

  // Re-priced under the thief's signals, the rack would run differently.
  const policy::MechanismPolicy thief_policy(thief_config.policy);
  bool reprices = false;
  for (const int id : members) {
    reprices |= thief_policy.PlanHost(id, thief_policy.DefaultEnv(),
                                      thief_config.per_host_transplant,
                                      thief_config.drain_time, 1) != donor.HostPlan(id);
  }
  ASSERT_TRUE(reprices);

  const auto books = [](const FleetController& a, const FleetController& b) {
    const FleetRolloutReport& x = a.report();
    const FleetRolloutReport& y = b.report();
    return std::vector<int>{x.hosts + y.hosts, x.refused + y.refused,
                            x.policy_inplace_vms + y.policy_inplace_vms,
                            x.policy_migrate_vms + y.policy_migrate_vms,
                            x.policy_refused_vms + y.policy_refused_vms};
  };
  const std::vector<int> before = books(donor, thief);
  const int thief_refused = thief.report().refused;
  const SimDuration thief_work = thief.PendingWork();
  const int first = static_cast<int>(thief.hosts().size());
  const DetachedRack rack = donor.DetachDomain(1);
  ASSERT_EQ(rack.hosts.size(), members.size());
  thief.AdoptHosts(rack);
  EXPECT_EQ(books(donor, thief), before);
  EXPECT_EQ(thief.report().refused, thief_refused + rack_refused);
  EXPECT_EQ(thief.PendingWork(), thief_work + queued_work);
  for (size_t k = 0; k < members.size(); ++k) {
    EXPECT_EQ(thief.HostPlan(first + static_cast<int>(k)), donor.HostPlan(members[k])) << k;
  }

  donor_executor.Run();
  thief_executor.Run();
  // Without jitter or failures each adopted host's legs last exactly the
  // donor's plan; refused hosts never queue, so they never drain or start.
  const std::map<int, HostLegs> legs = LegsByHost(thief);
  for (size_t k = 0; k < members.size(); ++k) {
    const int id = first + static_cast<int>(k);
    const FleetHost& host = thief.hosts()[static_cast<size_t>(id)];
    const policy::HostPolicyPlan& plan = donor.HostPlan(members[k]);
    EXPECT_EQ(host.upgraded, !plan.refused()) << k;
    if (plan.refused()) {
      EXPECT_EQ(host.attempts, 0) << k;
      EXPECT_FALSE(legs.contains(id)) << k;
    } else {
      const HostLegs& leg = legs.at(id);
      EXPECT_EQ(leg.transplant_start - leg.drain_start, plan.drain_time) << k;
      EXPECT_EQ(leg.transplant_done - leg.transplant_start, plan.transplant_time) << k;
    }
  }
  for (const FleetEvent& event : thief.trace().Events()) {
    if (event.type == FleetEventType::kDrainStart ||
        event.type == FleetEventType::kTransplantStart) {
      EXPECT_FALSE(thief.HostPlan(event.host).refused()) << event.host;
    }
  }
  donor.FinalizeDrained();
  thief.FinalizeDrained();
  for (const FleetController* controller : {&donor, &thief}) {
    const FleetRolloutReport& report = controller->report();
    EXPECT_EQ(report.untouched, 0);
    EXPECT_EQ(report.upgraded + report.refused, report.hosts);
  }
}

// PendingWork() is a running sum over the pending queue. At every barrier it
// must equal the queued hosts' drain + transplant recomputed from scratch,
// through waves, failed attempts, rollbacks and rack steals.
TEST(FleetControllerTest, PendingWorkMatchesARecomputationAcrossSteals) {
  FleetConfig config = BaseConfig();
  config.hold_open = true;
  config.hosts = 48;
  config.fault_domains = 12;
  config.parallel_hosts = 3;
  config.failure_probability = 0.2;
  config.post_pause_fraction = 0.5;
  config.max_retries = 3;
  config.latency_jitter = 0.2;
  // Adaptive plans with refusals: per-host timings differ, and refused hosts
  // never queue.
  config.policy.mode = policy::PolicyMode::kAdaptive;
  config.policy.vms_per_host = 7;
  config.policy.max_vm_pause = Millis(200);
  config.policy.max_migration_duration = Seconds(20);
  SimExecutor left_executor;
  SimExecutor right_executor;
  FleetController left(left_executor, config);
  config.hosts = 4;
  config.fault_domains = 1;
  config.seed = 43;
  FleetController right(right_executor, config);
  left.Start();
  right.Start();

  // Without a storm, a host is queued exactly when it serves un-upgraded,
  // never started an attempt and is not refused.
  const auto recomputed = [](const FleetController& controller) {
    SimDuration work = 0;
    for (int id = 0; id < static_cast<int>(controller.hosts().size()); ++id) {
      const FleetHost& host = controller.hosts()[static_cast<size_t>(id)];
      const policy::HostPolicyPlan& plan = controller.HostPlan(id);
      if (host.state == FleetHostState::kServing && !host.upgraded && host.attempts == 0 &&
          !plan.refused()) {
        work += plan.drain_time + plan.transplant_time;
      }
    }
    return work;
  };
  int steals = 0;
  for (SimTime barrier = Seconds(3); !(left.drained() && right.drained()); barrier += Seconds(3)) {
    ASSERT_LT(barrier, Seconds(3600));
    left_executor.RunUntil(barrier);
    right_executor.RunUntil(barrier);
    EXPECT_EQ(left.PendingWork(), recomputed(left)) << ToSeconds(barrier);
    EXPECT_EQ(right.PendingWork(), recomputed(right)) << ToSeconds(barrier);
    // A drained side steals the other's highest fully-unstarted rack.
    for (auto [thief, donor] : {std::pair{&left, &right}, std::pair{&right, &left}}) {
      const std::vector<StealableDomain> domains = donor->StealableDomains();
      if (thief->drained() && !domains.empty()) {
        thief->AdoptHosts(donor->DetachDomain(domains.back().domain));
        ++steals;
        EXPECT_EQ(thief->PendingWork(), recomputed(*thief));
        EXPECT_EQ(donor->PendingWork(), recomputed(*donor));
      }
    }
  }
  EXPECT_GE(steals, 2);
  EXPECT_EQ(left.PendingWork(), 0);
  EXPECT_EQ(right.PendingWork(), 0);
  left.FinalizeDrained();
  right.FinalizeDrained();
  EXPECT_GT(left.report().retries + right.report().retries, 0);
  EXPECT_GT(left.report().refused + right.report().refused, 0);
}

// StealableDomains() reads per-domain tallies kept at every state write and
// queue change. The oracle is the host scan it replaced: a domain is
// stealable when no live member left the untouched state (kServing, not
// upgraded, no attempt) and some unrefused member is untouched.
std::vector<StealableDomain> ScanStealableDomains(const FleetController& controller) {
  struct Rack {
    bool started = false;
    int queued = 0;
    SimDuration work = 0;
  };
  std::map<int, Rack> racks;
  for (int id = 0; id < static_cast<int>(controller.hosts().size()); ++id) {
    const FleetHost& host = controller.hosts()[static_cast<size_t>(id)];
    Rack& rack = racks[host.fault_domain];
    if (host.state == FleetHostState::kDetached) {
      continue;
    }
    const policy::HostPolicyPlan& plan = controller.HostPlan(id);
    if (host.state != FleetHostState::kServing || host.upgraded || host.attempts != 0) {
      rack.started = true;
    } else if (!plan.refused()) {
      ++rack.queued;
      rack.work += plan.drain_time + plan.transplant_time;
    }
  }
  std::vector<StealableDomain> out;
  for (const auto& [domain, rack] : racks) {
    if (!rack.started && rack.queued > 0) {
      out.push_back(StealableDomain{domain, rack.work});
    }
  }
  return out;
}

void ExpectStealableDomainsMatchTheScan(const FleetController& controller,
                                        const std::string& where) {
  const std::vector<StealableDomain> indexed = controller.StealableDomains();
  const std::vector<StealableDomain> scanned = ScanStealableDomains(controller);
  ASSERT_EQ(indexed.size(), scanned.size()) << where;
  for (size_t i = 0; i < indexed.size(); ++i) {
    EXPECT_EQ(indexed[i].domain, scanned[i].domain) << where;
    EXPECT_EQ(indexed[i].work, scanned[i].work) << where;
  }
}

// At every barrier of a three-shard steal campaign — adaptive plans with
// refusals, failed attempts and rollbacks, configured and adopted racks
// stolen from both ends — the indexed StealableDomains() equals the scan.
TEST(FleetControllerTest, StealableDomainsMatchAHostScanAcrossSteals) {
  FleetConfig config = BaseConfig();
  config.hold_open = true;
  config.parallel_hosts = 3;
  // One host per rack per wave: racks start a member at a time, so a rack
  // often holds a host backing off after a rollback (serving, attempted)
  // beside untouched ones.
  config.max_per_domain_in_flight = 1;
  config.failure_probability = 0.3;
  config.post_pause_fraction = 0.7;
  config.max_retries = 3;
  config.latency_jitter = 0.2;
  config.policy.mode = policy::PolicyMode::kAdaptive;
  config.policy.vms_per_host = 7;
  config.policy.max_vm_pause = Millis(200);
  config.policy.max_migration_duration = Seconds(20);
  const int sizes[3][2] = {{48, 12}, {6, 2}, {20, 5}};  // {hosts, fault_domains}
  std::vector<std::unique_ptr<SimExecutor>> executors;
  std::vector<std::unique_ptr<FleetController>> shards;
  for (int i = 0; i < 3; ++i) {
    config.hosts = sizes[i][0];
    config.fault_domains = sizes[i][1];
    config.seed = 50 + static_cast<uint64_t>(i);
    executors.push_back(std::make_unique<SimExecutor>());
    shards.push_back(std::make_unique<FleetController>(*executors.back(), config));
    shards.back()->Start();
  }
  const auto all_drained = [&shards] {
    return std::all_of(shards.begin(), shards.end(),
                       [](const auto& shard) { return shard->drained(); });
  };
  int steals = 0;
  int adopted_racks_stolen = 0;
  for (SimTime barrier = Seconds(3); !all_drained(); barrier += Seconds(3)) {
    ASSERT_LT(barrier, Seconds(3600));
    for (auto& executor : executors) {
      executor->RunUntil(barrier);
    }
    for (size_t i = 0; i < shards.size(); ++i) {
      ExpectStealableDomainsMatchTheScan(*shards[i], "shard " + std::to_string(i) + " at " +
                                                         std::to_string(ToSeconds(barrier)));
    }
    // Each drained shard takes one rack from the next shard that has one,
    // alternating between its lowest and its highest stealable rack. Every
    // other time the third shard then takes the adopted rack onwards, so
    // adopted domains are detached too.
    for (size_t t = 0; t < shards.size(); ++t) {
      FleetController& thief = *shards[t];
      if (!thief.drained()) {
        continue;
      }
      for (size_t k = 1; k < shards.size(); ++k) {
        FleetController& donor = *shards[(t + k) % shards.size()];
        const std::vector<StealableDomain> domains = donor.StealableDomains();
        if (domains.empty()) {
          continue;
        }
        const int domain = steals % 2 == 0 ? domains.front().domain : domains.back().domain;
        thief.AdoptHosts(donor.DetachDomain(domain));
        ++steals;
        ExpectStealableDomainsMatchTheScan(thief, "thief after steal " + std::to_string(steals));
        ExpectStealableDomainsMatchTheScan(donor, "donor after steal " + std::to_string(steals));
        if (steals % 2 == 0) {
          FleetController& relay = *shards[(t + 2 * k) % shards.size()];
          const std::vector<StealableDomain> adopted = thief.StealableDomains();
          ASSERT_FALSE(adopted.empty());
          ASSERT_GE(adopted.back().domain, thief.config().fault_domains);
          relay.AdoptHosts(thief.DetachDomain(adopted.back().domain));
          ++adopted_racks_stolen;
          ExpectStealableDomainsMatchTheScan(thief, "after relay " + std::to_string(steals));
          ExpectStealableDomainsMatchTheScan(relay, "relay after " + std::to_string(steals));
        }
        break;
      }
    }
  }
  EXPECT_GE(steals, 4);
  EXPECT_GT(adopted_racks_stolen, 0);
  int retries = 0;
  int refused = 0;
  for (auto& shard : shards) {
    EXPECT_TRUE(shard->StealableDomains().empty());
    shard->FinalizeDrained();
    retries += shard->report().retries;
    refused += shard->report().refused;
  }
  EXPECT_GT(retries, 0);
  EXPECT_GT(refused, 0);
}

// Two started 60-host storm controllers, with failures and rollbacks, whose
// waves a barrier governor holds while `throttled` (the caller sets it when
// the last barrier saw more than 10% of the fleet out of service).
struct ThrottledStorm {
  std::vector<std::unique_ptr<SimExecutor>> executors;
  std::vector<std::unique_ptr<FleetController>> shards;
};
ThrottledStorm StartThrottledStorm(const bool& throttled) {
  FleetConfig config = BaseConfig();
  config.hosts = 60;
  config.parallel_hosts = 12;
  config.drain_time = Seconds(4);
  config.failure_probability = 0.2;
  config.post_pause_fraction = 0.5;
  config.rollback_failure_probability = 0.2;
  config.crash_storm.rate_per_hour = 1800.0;
  config.crash_storm.burst = 2;
  config.crash_storm.duration = Seconds(120);
  config.crash_storm.recovery_time = Seconds(6);
  config.crash_storm.pre_pause_fraction = 0.2;
  config.crash_storm.stale_commit_fraction = 0.1;
  config.crash_storm.recovery_failure_probability = 0.2;
  config.wave_pacer = [&throttled](int, SimTime) { return throttled ? Seconds(5) : 0; };
  ThrottledStorm storm;
  for (int i = 0; i < 2; ++i) {
    config.seed = 70 + static_cast<uint64_t>(i);
    storm.executors.push_back(std::make_unique<SimExecutor>());
    storm.shards.push_back(std::make_unique<FleetController>(*storm.executors.back(), config));
    storm.shards.back()->Start();
  }
  return storm;
}

// unavailable_hosts() is a running count kept by every state write. In a
// storm with failures and rollbacks, whose waves a barrier governor holds
// while too many hosts are down, it equals a recount at every barrier.
TEST(FleetControllerTest, UnavailableCountMatchesARecountInAThrottledStorm) {
  bool throttled = false;
  ThrottledStorm storm = StartThrottledStorm(throttled);
  std::vector<std::unique_ptr<SimExecutor>>& executors = storm.executors;
  std::vector<std::unique_ptr<FleetController>>& shards = storm.shards;
  const auto recount = [](const FleetController& controller) {
    int down = 0;
    for (const FleetHost& host : controller.hosts()) {
      down += host.state == FleetHostState::kDraining ||
              host.state == FleetHostState::kTransplanting ||
              host.state == FleetHostState::kRollingBack ||
              host.state == FleetHostState::kCrashed ||
              host.state == FleetHostState::kRecovering;
    }
    return down;
  };
  int throttled_barriers = 0;
  int busy_barriers = 0;
  // A fixed horizon well past the storm window: the check is the count, at
  // every barrier, whether or not a shard has finished by then.
  for (SimTime barrier = Seconds(2); barrier <= Seconds(400); barrier += Seconds(2)) {
    int down = 0;
    for (size_t i = 0; i < shards.size(); ++i) {
      executors[i]->RunUntil(barrier);
      EXPECT_EQ(shards[i]->unavailable_hosts(), recount(*shards[i]))
          << "shard " << i << " at " << ToSeconds(barrier);
      down += shards[i]->unavailable_hosts();
    }
    busy_barriers += down > 0;
    throttled = down > 12;
    throttled_barriers += throttled;
  }
  EXPECT_GT(throttled_barriers, 0);
  EXPECT_GT(busy_barriers, throttled_barriers);
  EXPECT_GT(shards[0]->report().crashes + shards[1]->report().crashes, 0);
  EXPECT_GT(shards[0]->report().rollbacks + shards[1]->report().rollbacks, 0);
}

// A recovery that finishes while the pacer holds the next wave composes
// that wave itself; the held event, when it fires, must not compose a second
// one beside it. One wave chain means every wave start is followed by its
// wave's end before the next start, and every rollout finishes with no host
// left mid-transplant.
TEST(FleetControllerTest, PacerHoldsAndRecoveriesKeepOneWaveChain) {
  bool throttled = false;
  ThrottledStorm storm = StartThrottledStorm(throttled);
  std::vector<std::unique_ptr<SimExecutor>>& executors = storm.executors;
  std::vector<std::unique_ptr<FleetController>>& shards = storm.shards;
  int throttled_barriers = 0;
  for (SimTime barrier = Seconds(2); barrier <= Seconds(7200); barrier += Seconds(2)) {
    int down = 0;
    bool all_finished = true;
    for (size_t i = 0; i < shards.size(); ++i) {
      executors[i]->RunUntil(barrier);
      down += shards[i]->unavailable_hosts();
      all_finished = all_finished && shards[i]->finished();
    }
    if (all_finished) {
      break;
    }
    throttled = down > 12;
    throttled_barriers += throttled;
  }
  EXPECT_GT(throttled_barriers, 0);
  for (size_t i = 0; i < shards.size(); ++i) {
    const FleetController& shard = *shards[i];
    ASSERT_TRUE(shard.finished()) << "shard " << i;
    EXPECT_GT(shard.report().crashes, 0) << "shard " << i;
    ASSERT_EQ(shard.trace().dropped(), 0u);
    int open_wave = -1;
    for (const FleetEvent& event : shard.trace().Events()) {
      if (event.type == FleetEventType::kWaveStart) {
        EXPECT_EQ(open_wave, -1) << "shard " << i << ": wave " << event.wave
                                 << " starts while wave " << open_wave << " is in flight";
        open_wave = event.wave;
      } else if (event.type == FleetEventType::kWaveDone) {
        EXPECT_EQ(event.wave, open_wave) << "shard " << i;
        open_wave = -1;
      }
    }
    EXPECT_EQ(open_wave, -1) << "shard " << i;
    for (const FleetHost& host : shard.hosts()) {
      EXPECT_NE(host.state, FleetHostState::kDraining) << "shard " << i;
      EXPECT_NE(host.state, FleetHostState::kTransplanting) << "shard " << i;
    }
  }
}

TEST(FleetControllerTest, LatencyJitterSpreadsWaveLatencies) {
  SimExecutor executor;
  FleetConfig config = BaseConfig();
  config.latency_jitter = 0.3;
  FleetController controller(executor, config);
  const FleetRolloutReport& report = controller.Run();
  EXPECT_TRUE(report.complete);
  // Each wave ends on its slowest host, so jitter pushes waves past 10 s
  // and different waves see different maxima.
  EXPECT_GT(report.wave_latency_seconds.max(), report.wave_latency_seconds.min());
  EXPECT_GT(report.makespan, Seconds(100));
}

TEST(FleetTraceTest, RingBufferDropsOldestAndCounts) {
  FleetTrace trace(4);
  for (int i = 0; i < 10; ++i) {
    trace.Record(FleetEvent{Seconds(i), FleetEventType::kDrainStart, i, 0, 0});
  }
  EXPECT_EQ(trace.size(), 4u);
  EXPECT_EQ(trace.total_recorded(), 10u);
  EXPECT_EQ(trace.dropped(), 6u);
  const auto events = trace.Events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().host, 6);  // Oldest surviving.
  EXPECT_EQ(events.back().host, 9);
}

TEST(FleetTraceTest, WraparoundReplaysChronologically) {
  // Regression: Events() unwrapped the ring modulo ring_.size() while
  // Record() advanced head_ modulo capacity_. Drive the ring more than two
  // full laps so head_ lands mid-buffer and any modulus mismatch scrambles
  // the replay order.
  constexpr int kCapacity = 5;
  constexpr int kEvents = 2 * kCapacity + 3;  // 13 events into 5 slots.
  FleetTrace trace(kCapacity);
  for (int i = 0; i < kEvents; ++i) {
    trace.Record(FleetEvent{Seconds(i), FleetEventType::kDrainStart, i, 0, 0});
  }
  EXPECT_EQ(trace.size(), static_cast<size_t>(kCapacity));
  EXPECT_EQ(trace.total_recorded(), static_cast<uint64_t>(kEvents));
  EXPECT_EQ(trace.dropped(), static_cast<uint64_t>(kEvents - kCapacity));

  const auto events = trace.Events();
  ASSERT_EQ(events.size(), static_cast<size_t>(kCapacity));
  for (int i = 0; i < kCapacity; ++i) {
    // The newest kCapacity events, strictly chronological.
    EXPECT_EQ(events[static_cast<size_t>(i)].host, kEvents - kCapacity + i);
    EXPECT_EQ(events[static_cast<size_t>(i)].time, Seconds(kEvents - kCapacity + i));
  }
}

TEST(FleetTraceTest, JsonExportIsWellFormed) {
  SimExecutor executor;
  FleetConfig config = BaseConfig();
  config.hosts = 5;
  FleetController controller(executor, config);
  controller.Run();
  const std::string json = FleetTraceToJson(controller.trace());
  EXPECT_NE(json.find(R"("kind":"fleet_trace")"), std::string::npos);
  EXPECT_NE(json.find(R"("type":"rollout_start")"), std::string::npos);
  EXPECT_NE(json.find(R"("type":"rollout_complete")"), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');

  const std::string report_json = FleetRolloutReportToJson(controller.report());
  EXPECT_NE(report_json.find(R"("kind":"fleet_rollout")"), std::string::npos);
  EXPECT_NE(report_json.find(R"("upgraded":5)"), std::string::npos);
  EXPECT_NE(report_json.find(R"("p50")"), std::string::npos);
}

// Expects ValidateFleetConfig to reject `config` with kInvalidArgument whose
// message names `field`, and the controller built from it to be inert.
void ExpectRejected(FleetConfig config, std::string_view field) {
  Result<void> valid = ValidateFleetConfig(config);
  ASSERT_FALSE(valid.ok()) << "expected rejection on " << field;
  EXPECT_EQ(valid.error().code(), ErrorCode::kInvalidArgument);
  EXPECT_NE(valid.error().message().find(field), std::string::npos)
      << valid.error().message();

  SimExecutor executor;
  FleetController controller(executor, config);
  ASSERT_TRUE(controller.config_error().has_value());
  EXPECT_TRUE(controller.finished());
  const FleetRolloutReport& report = controller.Run();  // Inert: nothing runs.
  EXPECT_EQ(report.hosts, 0);
  EXPECT_EQ(report.upgraded, 0);
  EXPECT_EQ(executor.now(), 0);
}

TEST(FleetConfigValidationTest, RejectsNonPositiveHosts) {
  FleetConfig config = BaseConfig();
  config.hosts = 0;
  ExpectRejected(config, "hosts");
  config.hosts = -3;
  ExpectRejected(config, "hosts");
}

TEST(FleetConfigValidationTest, RejectsNonPositiveParallelHosts) {
  FleetConfig config = BaseConfig();
  config.parallel_hosts = 0;
  ExpectRejected(config, "parallel_hosts");
  config.parallel_hosts = -1;
  ExpectRejected(config, "parallel_hosts");
}

TEST(FleetConfigValidationTest, RejectsProbabilitiesOutsideUnitInterval) {
  FleetConfig config = BaseConfig();
  config.failure_probability = -0.1;
  ExpectRejected(config, "failure_probability");
  config = BaseConfig();
  config.failure_probability = 1.5;
  ExpectRejected(config, "failure_probability");
  config = BaseConfig();
  config.post_pause_fraction = -1.0;
  ExpectRejected(config, "post_pause_fraction");
  config = BaseConfig();
  config.rollback_failure_probability = 2.0;
  ExpectRejected(config, "rollback_failure_probability");
}

TEST(FleetConfigValidationTest, RejectsNegativeDurationsAndBudgets) {
  FleetConfig config = BaseConfig();
  config.retry_backoff = -Seconds(1);
  ExpectRejected(config, "retry_backoff");
  config = BaseConfig();
  config.drain_time = -1;
  ExpectRejected(config, "drain_time");
  config = BaseConfig();
  config.rollback_time = -Seconds(2);
  ExpectRejected(config, "rollback_time");
  config = BaseConfig();
  config.max_retries = -1;
  ExpectRejected(config, "max_retries");
  config = BaseConfig();
  config.abort_threshold = -0.25;
  ExpectRejected(config, "abort_threshold");
  config = BaseConfig();
  config.latency_jitter = -0.3;
  ExpectRejected(config, "latency_jitter");
  config = BaseConfig();
  config.fault_domains = 0;
  ExpectRejected(config, "fault_domains");
}

TEST(FleetConfigValidationTest, ErrorMessageNamesFieldAndValue) {
  FleetConfig config = BaseConfig();
  config.hosts = -3;
  Result<void> valid = ValidateFleetConfig(config);
  ASSERT_FALSE(valid.ok());
  EXPECT_EQ(valid.error().message(), "FleetConfig::hosts must be > 0, got -3");
}

TEST(FleetConfigValidationTest, AcceptsDisabledAbortThresholdAboveOne) {
  FleetConfig config = BaseConfig();
  config.abort_threshold = 2.5;  // Above 1.0 just disables the abort.
  Result<void> r = ValidateFleetConfig(config);
  EXPECT_TRUE(r.ok());
}

TEST(SaturatingBackoffTest, SmallCountsMatchLegacyDoubling) {
  // Below the ceiling the saturating form is bit-for-bit the old shift, so
  // every existing seeded replay keeps its retry schedule.
  const SimDuration base = Seconds(5);
  for (int failures = 0; failures < 10; ++failures) {
    EXPECT_EQ(SaturatingBackoff(base, failures), base << failures) << failures;
  }
}

TEST(SaturatingBackoffTest, StaysFiniteAndMonotoneAtManyFailures) {
  // The naive `base << failures` overflows int64 nanoseconds at ~33 doublings
  // of a 5 s base; a storm-struck host parked in retry easily reaches 30+.
  const SimDuration base = Seconds(5);
  SimDuration previous = 0;
  for (int failures = 0; failures <= 128; ++failures) {
    const SimDuration backoff = SaturatingBackoff(base, failures);
    EXPECT_GT(backoff, 0) << failures;
    EXPECT_LE(backoff, kRetryBackoffCeiling) << failures;
    EXPECT_GE(backoff, previous) << failures;  // Monotone in the failure count.
    previous = backoff;
  }
  EXPECT_EQ(SaturatingBackoff(base, 40), kRetryBackoffCeiling);
}

TEST(SaturatingBackoffTest, BaseAboveCeilingIsNeverShortened) {
  const SimDuration huge = kRetryBackoffCeiling * 2;
  EXPECT_EQ(SaturatingBackoff(huge, 5), huge);
  EXPECT_EQ(SaturatingBackoff(0, 5), 0);
}

TEST(FleetControllerTest, ParkedHostNextRetryStaysFiniteAndMonotone) {
  // One host that fails every attempt across a deep retry budget: the old
  // `retry_backoff << attempts` overflowed SimDuration near attempt 33 and
  // scheduled the next retry in the past. Every retry must now land at a
  // strictly later, finite sim time.
  SimExecutor executor;
  FleetConfig config = BaseConfig();
  config.hosts = 1;
  config.parallel_hosts = 1;
  config.failure_probability = 1.0;
  config.max_retries = 40;
  FleetController controller(executor, config);
  const FleetRolloutReport& report = controller.Run();
  EXPECT_EQ(report.failed, 1);
  EXPECT_EQ(report.retries, 40);
  SimTime previous = -1;
  int starts = 0;
  for (const FleetEvent& event : controller.trace().Events()) {
    if (event.type != FleetEventType::kTransplantStart) {
      continue;
    }
    ++starts;
    EXPECT_GT(event.time, previous);  // Monotone: never scheduled in the past.
    previous = event.time;
  }
  EXPECT_EQ(starts, 41);  // Initial attempt + 40 retries, all of them ran.
  EXPECT_GE(report.makespan, 0);
  // The tail retries saturate at the ceiling instead of wrapping negative.
  EXPECT_LT(report.makespan, kRetryBackoffCeiling * 41);
}

TEST(FleetConfigValidationTest, RejectsMalformedCrashStorm) {
  const auto expect_rejected = [](FleetConfig config, std::string_view field) {
    const Result<void> result = ValidateFleetConfig(config);
    ASSERT_FALSE(result.ok()) << field;
    EXPECT_NE(result.error().message().find(field), std::string::npos)
        << result.error().message();
  };
  FleetConfig config = BaseConfig();
  config.crash_storm.rate_per_hour = -1.0;
  expect_rejected(config, "crash_storm.rate_per_hour");

  config = BaseConfig();
  config.crash_storm.rate_per_hour = 1.0;
  config.crash_storm.burst = 0;
  expect_rejected(config, "crash_storm.burst");

  config = BaseConfig();
  config.crash_storm.rate_per_hour = 1.0;
  config.crash_storm.recovery_backoff = -Seconds(1);
  expect_rejected(config, "crash_storm.recovery_backoff");

  config = BaseConfig();
  config.crash_storm.rate_per_hour = 1.0;
  config.crash_storm.pre_pause_fraction = 1.5;
  expect_rejected(config, "crash_storm.pre_pause_fraction");

  config = BaseConfig();
  config.crash_storm.rate_per_hour = 1.0;
  config.crash_storm.pre_pause_fraction = 0.6;
  config.crash_storm.scrubbed_fraction = 0.6;
  expect_rejected(config, "fractions must sum to <= 1");

  // A disabled storm skips the detailed checks entirely: legacy configs with
  // default-constructed storms never trip them.
  config = BaseConfig();
  EXPECT_TRUE(ValidateFleetConfig(config).ok());
}

TEST(FleetControllerTest, StartThenAbortFinalizesAsAborted) {
  SimExecutor executor;
  FleetConfig config = BaseConfig();  // 100 hosts, 10 wide, 10 s each.
  FleetController controller(executor, config);
  controller.Start();
  executor.RunUntil(Seconds(15));  // One full wave + part of the second.
  EXPECT_FALSE(controller.finished());
  controller.Abort();
  EXPECT_TRUE(controller.finished());
  const FleetRolloutReport& report = controller.report();
  EXPECT_TRUE(report.aborted);
  EXPECT_FALSE(report.complete);
  EXPECT_EQ(report.upgraded, 10);
  EXPECT_GT(report.untouched, 0);
  // Abort is idempotent and Run() after finalization is a no-op.
  controller.Abort();
  EXPECT_EQ(&controller.Run(), &report);
  EXPECT_EQ(report.upgraded, 10);
}

TEST(FleetControllerTest, AbortBeforeStartLeavesEveryHostUntouched) {
  SimExecutor executor;
  FleetController controller(executor, BaseConfig());
  controller.Abort();
  EXPECT_TRUE(controller.finished());
  EXPECT_TRUE(controller.report().aborted);
  EXPECT_EQ(controller.report().untouched, 100);
  EXPECT_EQ(controller.report().upgraded, 0);
}

TEST(FleetControllerTest, WavePacerDefersWaveComposition) {
  SimExecutor executor;
  FleetConfig config = BaseConfig();
  config.hosts = 20;  // Two waves of 10.
  std::vector<int> consulted;
  config.wave_pacer = [&](int wave, SimTime) -> SimDuration {
    consulted.push_back(wave);
    return wave == 1 && consulted.size() < 3 ? Seconds(30) : 0;
  };
  FleetController controller(executor, config);
  const FleetRolloutReport& report = controller.Run();
  EXPECT_TRUE(report.complete);
  // Wave 0 at t=0 (10 s), wave 1 deferred 30 s from t=10, runs at t=40.
  EXPECT_EQ(report.makespan, Seconds(50));
  ASSERT_EQ(consulted.size(), 3u);
  EXPECT_EQ(consulted[0], 0);
  EXPECT_EQ(consulted[1], 1);
  EXPECT_EQ(consulted[2], 1);  // Re-consulted when the hold fired.
}

TEST(FleetPolicyTest, FixedModeReportJsonCarriesAZeroPolicyBlock) {
  SimExecutor executor;
  FleetController controller(executor, BaseConfig());  // mode == kFixed.
  const FleetRolloutReport& report = controller.Run();
  EXPECT_FALSE(report.policy_adaptive);
  EXPECT_EQ(report.refused, 0);
  // One key set for every rollout: the fixed policy reports its mode and
  // zero per-VM decisions.
  const std::string json = FleetRolloutReportToJson(report);
  EXPECT_NE(json.find(R"("refused":0,"policy":{"mode":"fixed","inplace_vms":0,)"
                      R"("migrate_vms":0,"refused_vms":0,"vm_downtime_ms":0})"),
            std::string::npos)
      << json;
}

TEST(FleetPolicyTest, AdaptiveRolloutPricesEveryVmAndReportsDecisions) {
  SimExecutor executor;
  FleetConfig config = BaseConfig();
  config.policy.mode = policy::PolicyMode::kAdaptive;
  Tracer tracer;
  config.tracer = &tracer;
  FleetController controller(executor, config);
  const FleetRolloutReport& report = controller.Run();

  EXPECT_TRUE(report.policy_adaptive);
  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.refused, 0);  // Default budgets refuse nothing.
  // Every guest of every host got a decision.
  EXPECT_EQ(report.policy_inplace_vms + report.policy_migrate_vms + report.policy_refused_vms,
            config.hosts * config.policy.vms_per_host);
  // The synthetic mix has streaming and fat guests, so both mechanisms fire.
  EXPECT_GT(report.policy_inplace_vms, 0);
  EXPECT_GT(report.policy_migrate_vms, 0);
  EXPECT_GT(report.policy_vm_downtime, 0);

  const std::string json = FleetRolloutReportToJson(report);
  EXPECT_NE(json.find("\"policy\":{\"mode\":\"adaptive\""), std::string::npos);

  // One policy:decision instant per wave on the "policy" track.
  const std::string trace = tracer.ToChromeTraceJson();
  size_t decisions = 0;
  for (size_t at = trace.find("policy:decision"); at != std::string::npos;
       at = trace.find("policy:decision", at + 1)) {
    ++decisions;
  }
  EXPECT_EQ(decisions, static_cast<size_t>(report.waves));
}

TEST(FleetPolicyTest, RefusedHostsStayExposedAndAreNeverTouched) {
  SimExecutor executor;
  FleetConfig config = BaseConfig();
  config.policy.mode = policy::PolicyMode::kAdaptive;
  config.policy.max_vm_pause = 0;  // No pause fits...
  config.policy.link_gbps = 0.0;   // ...and no migration link: refuse all.
  FleetController controller(executor, config);
  const FleetRolloutReport& report = controller.Run();

  EXPECT_EQ(report.refused, config.hosts);
  EXPECT_EQ(report.upgraded, 0);
  EXPECT_EQ(report.untouched, 0);  // Refused is its own disposition.
  EXPECT_FALSE(report.complete);
  EXPECT_EQ(report.policy_refused_vms, config.hosts * config.policy.vms_per_host);
  // Refused hosts keep serving the vulnerable hypervisor.
  for (const FleetHost& host : controller.hosts()) {
    EXPECT_EQ(host.state, FleetHostState::kServing);
    EXPECT_FALSE(host.upgraded);
  }
  // One kHostRefused event per host, in id order, before any wave work.
  int refused_events = 0;
  int last_host = -1;
  for (const FleetEvent& event : controller.trace().Events()) {
    if (event.type == FleetEventType::kHostRefused) {
      EXPECT_GT(event.host, last_host);
      last_host = event.host;
      ++refused_events;
    }
    EXPECT_NE(event.type, FleetEventType::kTransplantStart);
  }
  EXPECT_EQ(refused_events, config.hosts);
}

TEST(FleetPolicyTest, PartialRefusalUpgradesTheRestOfTheFleet) {
  SimExecutor executor;
  FleetConfig config = BaseConfig();
  config.policy.mode = policy::PolicyMode::kAdaptive;
  // A congested 0.5 Gbps link: fat cpumem/streaming guests can neither pause
  // nor evacuate within budget, so their hosts are refused; everyone else
  // upgrades.
  config.policy.link_gbps = 0.5;
  FleetController controller(executor, config);
  const FleetRolloutReport& report = controller.Run();

  EXPECT_GT(report.refused, 0);
  EXPECT_LT(report.refused, config.hosts);
  EXPECT_EQ(report.upgraded, config.hosts - report.refused);
  EXPECT_EQ(report.untouched, 0);
  EXPECT_FALSE(report.complete);
}

TEST(FleetPolicyTest, AdaptiveDecisionsAreInvariantUnderHostIdRelabeling) {
  // The same global ids in a different local order must produce the same
  // decision multiset — the property campaign sharding relies on.
  FleetConfig config = BaseConfig();
  config.hosts = 20;
  config.policy.mode = policy::PolicyMode::kAdaptive;

  SimExecutor a_exec;
  FleetConfig a = config;
  for (int i = 0; i < config.hosts; ++i) {
    a.policy_host_global_ids.push_back(i);
  }
  FleetController a_ctrl(a_exec, a);
  const FleetRolloutReport& a_report = a_ctrl.Run();

  SimExecutor b_exec;
  FleetConfig b = config;
  for (int i = config.hosts - 1; i >= 0; --i) {
    b.policy_host_global_ids.push_back(i);  // Reversed local assignment.
  }
  FleetController b_ctrl(b_exec, b);
  const FleetRolloutReport& b_report = b_ctrl.Run();

  EXPECT_EQ(a_report.policy_inplace_vms, b_report.policy_inplace_vms);
  EXPECT_EQ(a_report.policy_migrate_vms, b_report.policy_migrate_vms);
  EXPECT_EQ(a_report.policy_refused_vms, b_report.policy_refused_vms);
  EXPECT_EQ(a_report.policy_vm_downtime, b_report.policy_vm_downtime);
}

TEST(FleetPolicyTest, PhaseIndexedPlansMatchDirectPerHostPlans) {
  // Oracle for the controller's cycle table: scattered, large global ids and
  // budgets tight enough to refuse some hosts, checked against one direct
  // PlanHost call per host.
  FleetConfig config = BaseConfig();
  config.hosts = 120;
  config.policy.mode = policy::PolicyMode::kAdaptive;
  config.policy.vms_per_host = 7;  // Period 40: every phase of the cycle.
  // Thin idle and CPU+mem guests pause in budget, thin streaming and fat
  // idle ones migrate, and a fat busy guest fits neither budget, so its host
  // is refused.
  config.policy.max_vm_pause = Millis(200);
  config.policy.max_migration_duration = Seconds(20);
  for (int i = 0; i < config.hosts; ++i) {
    config.policy_host_global_ids.push_back((int64_t{1} << 40) + int64_t{7919} * i * i + 13 * i);
  }

  const policy::MechanismPolicy oracle(config.policy);
  const policy::EnvSignals env = oracle.DefaultEnv();
  std::vector<policy::HostPolicyPlan> plans;
  int64_t inplace = 0;
  int64_t migrate = 0;
  int64_t refused_vms = 0;
  int refused = 0;
  SimDuration downtime = 0;
  for (const int64_t id : config.policy_host_global_ids) {
    plans.push_back(oracle.PlanHost(id, env, config.per_host_transplant, config.drain_time, 1));
    const policy::HostPolicyPlan& plan = plans.back();
    inplace += plan.inplace_vms;
    migrate += plan.migrate_vms;
    refused_vms += plan.refused_vms;
    refused += plan.refused();
    downtime += plan.vm_downtime;
  }
  ASSERT_GT(refused, 0);
  ASSERT_LT(refused, config.hosts);
  ASSERT_GT(inplace, 0);
  ASSERT_GT(migrate, 0);

  SimExecutor executor;
  FleetController controller(executor, config);
  const FleetRolloutReport& report = controller.Run();
  EXPECT_EQ(report.policy_inplace_vms, inplace);
  EXPECT_EQ(report.policy_migrate_vms, migrate);
  EXPECT_EQ(report.policy_refused_vms, refused_vms);
  EXPECT_EQ(report.refused, refused);
  EXPECT_EQ(report.upgraded, config.hosts - refused);
  EXPECT_EQ(report.policy_vm_downtime, downtime);
  // Without jitter or failures each upgraded host's legs last exactly its
  // plan's drain and transplant times.
  const std::map<int, HostLegs> legs = LegsByHost(controller);
  for (int id = 0; id < static_cast<int>(controller.hosts().size()); ++id) {
    const FleetHost& host = controller.hosts()[static_cast<size_t>(id)];
    const policy::HostPolicyPlan& plan = plans[static_cast<size_t>(id)];
    EXPECT_EQ(host.upgraded, !plan.refused()) << id;
    if (host.upgraded) {
      const HostLegs& leg = legs.at(id);
      EXPECT_EQ(leg.transplant_start - leg.drain_start, plan.drain_time) << id;
      EXPECT_EQ(leg.transplant_done - leg.transplant_start, plan.transplant_time) << id;
    }
  }
}

TEST(FleetConfigValidationTest, RejectsOutOfRangePolicyKnobsAndStaysInert) {
  FleetConfig config = BaseConfig();
  config.policy.link_gbps = -2.0;
  Result<void> valid = ValidateFleetConfig(config);
  ASSERT_FALSE(valid.ok());
  EXPECT_NE(valid.error().ToString().find("FleetConfig::policy.link_gbps"), std::string::npos)
      << valid.error().ToString();

  // The controller built from it is inert: config_error set, nothing runs.
  SimExecutor executor;
  FleetController controller(executor, config);
  ASSERT_TRUE(controller.config_error().has_value());
  const FleetRolloutReport& report = controller.Run();
  EXPECT_EQ(report.upgraded, 0);
  EXPECT_FALSE(report.complete);

  config = BaseConfig();
  config.policy.vms_per_host = 0;
  ExpectRejected(config, "policy.vms_per_host");

  config = BaseConfig();
  config.policy.min_migration_headroom = 2.0;
  ExpectRejected(config, "policy.min_migration_headroom");
}

TEST(FleetConfigValidationTest, RejectsMalformedPolicyHostGlobalIds) {
  FleetConfig config = BaseConfig();
  config.policy_host_global_ids = {1, 2, 3};  // Wrong size for 100 hosts.
  ExpectRejected(config, "policy_host_global_ids");

  config = BaseConfig();
  config.policy_host_global_ids.assign(static_cast<size_t>(config.hosts), 0);
  config.policy_host_global_ids[5] = -7;
  ExpectRejected(config, "policy_host_global_ids");
}

}  // namespace
}  // namespace hypertp
