#include "src/scenario/operational.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "src/base/json.h"
#include "src/campaign/campaign.h"
#include "src/fleet/fleet_controller.h"
#include "src/obs/trace.h"
#include "src/sim/executor.h"
#include "src/sim/rng.h"
#include "src/vulndb/vulndb.h"

namespace hypertp {
namespace {

constexpr double kDaySeconds = 24.0 * 3600.0;

SimDuration Days(double d) { return static_cast<SimDuration>(d * kDaySeconds * 1e9); }

std::string Stamp(SimTime t) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "day %6.1f", ToSeconds(t) / kDaySeconds);
  return buf;
}

}  // namespace

OperationalReport RunOperationalSimulation(const OperationalConfig& config) {
  OperationalReport report;
  Rng rng(config.seed);
  SimExecutor executor;
  Tracer* const tracer = config.tracer;

  // Dedicated stream for fleet rollouts, forked unconditionally so the
  // disclosure sequence is identical across fleet modes for one seed.
  Rng fleet_stream = rng.Fork();
  const bool adaptive = config.fleet_policy.adaptive();
  report.policy_adaptive = adaptive;
  const int total_vms = config.fleet.hosts * config.vms_per_host;
  // One nested executor reused across every rollout of the year (an aborted
  // rollout's Stop() must not poison the next one).
  SimExecutor fleet_executor;

  // A rejected config (degenerate knobs) runs nothing: no rollout is counted,
  // the field-naming error lands in the event log, and every host stays
  // stranded on the vulnerable hypervisor for the residual window.
  auto reject_rollout = [&](const Error& error, double residual_exposure_days) -> SimDuration {
    report.event_log.push_back("rollout rejected: " + error.ToString());
    report.fleet_stranded_hosts += config.fleet.hosts;
    report.exposure_days_hypertp += residual_exposure_days;
    return 0;
  };

  // Charges a rollout that ran to the year, whichever mode ran it (a
  // FleetRolloutReport or a CampaignReport: both carry these fields).
  // Downtime is the plans' modeled per-VM downtime under the adaptive policy,
  // else the flat Fig. 6 charge. Hosts neither upgraded nor lost (failed,
  // never reached because the rollout aborted, or refused by the policy)
  // stay exposed for `residual_exposure_days` — the rest of the patch wait.
  // Lost hosts are dead, not exposed.
  auto tally = [&](const auto& rollout, double residual_exposure_days) {
    ++report.fleet_rollouts;
    report.fleet_retries += rollout.retries;
    report.fleet_stranded_hosts += rollout.failed + rollout.untouched;
    report.fleet_aborts += rollout.aborted;
    report.fleet_post_pause_faults += rollout.post_pause_faults;
    report.fleet_rollbacks += rollout.rollbacks;
    report.fleet_rollback_failures += rollout.rollback_failures;
    report.fleet_crashes += rollout.crashes;
    report.fleet_crash_salvages += rollout.crash_salvages;
    report.fleet_crash_live_recoveries += rollout.crash_live_recoveries;
    report.fleet_crash_rollbacks += rollout.crash_rollbacks;
    report.fleet_lost += rollout.lost;
    report.fleet_refused_hosts += rollout.refused;
    report.policy_inplace_vms += rollout.policy_inplace_vms;
    report.policy_migrate_vms += rollout.policy_migrate_vms;
    report.policy_refused_vms += rollout.policy_refused_vms;
    report.vm_downtime_paid +=
        adaptive ? rollout.policy_vm_downtime : config.per_vm_downtime * total_vms;
    if (rollout.hosts > 0 && rollout.upgraded < rollout.hosts) {
      report.exposure_days_hypertp += static_cast<double>(rollout.hosts - rollout.upgraded -
                                                          rollout.lost) /
                                      rollout.hosts * residual_exposure_days;
    }
  };

  // Runs one fleet-wide transplant through the event-driven control plane
  // and returns its makespan.
  auto fleet_rollout = [&](double residual_exposure_days) -> SimDuration {
    FleetConfig fleet_config;
    fleet_config.hosts = config.fleet.hosts;
    fleet_config.parallel_hosts = config.fleet.parallel_hosts;
    fleet_config.per_host_transplant = config.fleet.per_host_transplant;
    fleet_config.failure_probability = config.fleet_failure_probability;
    fleet_config.latency_jitter = config.fleet_latency_jitter;
    fleet_config.max_retries = config.fleet_max_retries;
    fleet_config.abort_threshold = config.fleet_abort_threshold;
    fleet_config.post_pause_fraction = config.fleet_post_pause_fraction;
    fleet_config.rollback_failure_probability = config.fleet_rollback_failure_probability;
    fleet_config.rollback_time = config.fleet_rollback_time;
    fleet_config.crash_storm = config.fleet_storm;
    if (adaptive) {
      fleet_config.policy = config.fleet_policy;
      fleet_config.policy.vms_per_host = config.vms_per_host;
    }
    fleet_config.seed = fleet_stream.NextU64();
    FleetController controller(fleet_executor, fleet_config);
    if (controller.config_error().has_value()) {
      return reject_rollout(*controller.config_error(), residual_exposure_days);
    }
    const FleetRolloutReport& rollout = controller.Run();
    tally(rollout, residual_exposure_days);
    return rollout.makespan;
  };

  // Same contract as fleet_rollout, but through the sharded campaign control
  // plane: N coordinated per-shard controllers under the SLO governor.
  auto campaign_rollout = [&](double residual_exposure_days) -> SimDuration {
    CampaignConfig cc;
    CampaignDatacenter dc;
    dc.name = "dc0";
    dc.racks = std::max(config.campaign_shards, 1);
    dc.hosts_per_rack = std::max(config.fleet.hosts / dc.racks, 1);
    dc.vms_per_host = config.vms_per_host;
    dc.crash_storm = config.fleet_storm;
    if (adaptive) {
      // The single synthetic DC carries the policy's environment signals.
      dc.link_gbps = config.fleet_policy.link_gbps;
      dc.host_headroom = config.fleet_policy.host_headroom;
      cc.policy = config.fleet_policy;
    }
    cc.datacenters.push_back(dc);
    cc.shards = dc.racks;
    cc.parallel_hosts_per_shard = std::max(config.fleet.parallel_hosts / cc.shards, 1);
    cc.per_host_transplant = config.fleet.per_host_transplant;
    cc.failure_probability = config.fleet_failure_probability;
    cc.latency_jitter = config.fleet_latency_jitter;
    cc.max_retries = config.fleet_max_retries;
    cc.post_pause_fraction = config.fleet_post_pause_fraction;
    cc.rollback_failure_probability = config.fleet_rollback_failure_probability;
    cc.rollback_time = config.fleet_rollback_time;
    cc.slo = config.campaign_slo;
    cc.seed = fleet_stream.NextU64();
    Result<CampaignReport> run = CampaignPlanner(std::move(cc)).Run();
    if (!run.ok()) {
      return reject_rollout(run.error(), residual_exposure_days);
    }
    tally(*run, residual_exposure_days);
    report.fleet_throttled_epochs += run->throttled_epochs;
    return run->makespan;
  };

  // One fleet-wide transplant under the configured execution mode; returns
  // the charged makespan.
  auto run_rollout = [&](double residual_exposure_days) -> SimDuration {
    return config.fleet_mode == FleetExecutionMode::kCampaign
               ? campaign_rollout(residual_exposure_days)
               : fleet_rollout(residual_exposure_days);
  };

  // Historical disclosure rate: critical flaws affecting the home hypervisor
  // per year, averaged over the dataset's 7 years.
  std::vector<const CveRecord*> candidates;
  for (const CveRecord& r : VulnDatabase()) {
    if (r.severity() == VulnSeverity::kCritical && r.Affects(config.home)) {
      candidates.push_back(&r);
    }
  }
  if (candidates.empty()) {
    report.event_log.push_back("no critical history for this hypervisor; quiet year");
    return report;
  }
  const double per_year = static_cast<double>(candidates.size()) / 7.0;
  const SimDuration horizon = Days(365.0 * config.years);

  // Fleet state.
  HypervisorKind current = config.home;
  SimTime safe_until = -1;  // While transplanted away: when the patch lands.

  // Poisson arrivals: exponential inter-arrival times.
  std::function<void()> schedule_next = [&]() {
    const double u = std::max(rng.NextDouble(), 1e-12);
    const double gap_days = -std::log(u) * 365.0 / per_year;
    const SimTime at = executor.now() + Days(gap_days);
    if (at >= horizon) {
      return;
    }
    executor.ScheduleAt(at, [&, at]() {
      const CveRecord* cve = candidates[rng.NextBelow(candidates.size())];
      ++report.disclosures;
      const double window =
          cve->window_days >= 0 ? cve->window_days : config.fallback_window_days;
      const double traditional = window + config.patch_policy.apply_delay_days;
      report.exposure_days_traditional += traditional;
      SpanId disclosure_mark = 0;
      if (tracer != nullptr) {
        disclosure_mark = tracer->AddInstant("disclosure:" + cve->id, at, "disclosures");
        tracer->SetAttribute(disclosure_mark, "window_days", window);
      }

      if (current != config.home && at < safe_until) {
        // Already transplanted away; a home-hypervisor flaw cannot touch us.
        ++report.already_safe;
        if (tracer != nullptr) {
          tracer->SetAttribute(disclosure_mark, "outcome", "already_safe");
        }
        report.event_log.push_back(Stamp(at) + ": " + cve->id +
                                   " disclosed while fleet is on " +
                                   std::string(HypervisorKindName(current)) + " — unaffected");
      } else {
        auto decision = DecideTransplant(config.home, {{cve}}, config.pool);
        if (!decision.transplant_recommended) {
          ++report.no_safe_target;
          report.exposure_days_hypertp += traditional;  // Stuck waiting, like Fig. 1(a).
          if (tracer != nullptr) {
            tracer->SetAttribute(disclosure_mark, "outcome", "no_safe_target");
          }
          report.event_log.push_back(Stamp(at) + ": " + cve->id +
                                     " — no safe target, exposed " +
                                     std::to_string(static_cast<int>(traditional)) + " days");
        } else {
          // Transplant away after the reaction time; back when the patch lands.
          ++report.transplants_away;
          current = *decision.target;
          const SimDuration fleet_time = run_rollout(traditional);
          const SimDuration exposed = config.reaction_time + fleet_time;
          if (tracer != nullptr) {
            tracer->SetAttribute(disclosure_mark, "outcome", "transplant");
            const SpanId rollout = tracer->AddSpan(
                "rollout:away", at + config.reaction_time, fleet_time, 0, "fleet");
            tracer->SetAttribute(rollout, "cve", std::string_view(cve->id));
            tracer->SetAttribute(rollout, "target", HypervisorKindName(current));
          }
          report.exposure_days_hypertp += ToSeconds(exposed) / kDaySeconds;
          safe_until = at + Days(window);
          report.event_log.push_back(Stamp(at) + ": " + cve->id + " — fleet -> " +
                                     std::string(HypervisorKindName(current)));
          executor.ScheduleAt(safe_until, [&, when = safe_until]() {
            // Patch shipped and applied on the home hypervisor: return.
            if (current != config.home) {
              ++report.transplants_back;
              current = config.home;
              // The return trip is a rollout too; a straggler here is no
              // longer exposure (home is patched), just counted work.
              const SimDuration back_time = run_rollout(0.0);
              if (tracer != nullptr) {
                const SpanId rollout =
                    tracer->AddSpan("rollout:back", when, back_time, 0, "fleet");
                tracer->SetAttribute(rollout, "target", HypervisorKindName(config.home));
              }
              report.event_log.push_back(Stamp(when) + ": patch applied — fleet -> " +
                                         std::string(HypervisorKindName(config.home)));
            }
          });
        }
      }
      schedule_next();
    });
  };
  schedule_next();
  executor.RunUntil(horizon);
  return report;
}

std::string OperationalReportToJson(const OperationalReport& report) {
  JsonWriter j;
  j.BeginObject();
  j.Key("kind").String("operational_year");
  j.Key("disclosures").Number(static_cast<int64_t>(report.disclosures));
  j.Key("transplants_away").Number(static_cast<int64_t>(report.transplants_away));
  j.Key("transplants_back").Number(static_cast<int64_t>(report.transplants_back));
  j.Key("no_safe_target").Number(static_cast<int64_t>(report.no_safe_target));
  j.Key("already_safe").Number(static_cast<int64_t>(report.already_safe));
  j.Key("exposure_days_traditional").Number(report.exposure_days_traditional);
  j.Key("exposure_days_hypertp").Number(report.exposure_days_hypertp);
  j.Key("exposure_reduction_factor").Number(report.exposure_reduction_factor());
  j.Key("vm_downtime_ms").Number(ToMillis(report.vm_downtime_paid));
  j.Key("fleet").BeginObject();
  j.Key("rollouts").Number(static_cast<int64_t>(report.fleet_rollouts));
  j.Key("retries").Number(static_cast<int64_t>(report.fleet_retries));
  j.Key("stranded_hosts").Number(static_cast<int64_t>(report.fleet_stranded_hosts));
  j.Key("aborts").Number(static_cast<int64_t>(report.fleet_aborts));
  j.Key("post_pause_faults").Number(static_cast<int64_t>(report.fleet_post_pause_faults));
  j.Key("rollbacks").Number(static_cast<int64_t>(report.fleet_rollbacks));
  j.Key("rollback_failures").Number(static_cast<int64_t>(report.fleet_rollback_failures));
  j.Key("crashes").Number(static_cast<int64_t>(report.fleet_crashes));
  j.Key("crash_salvages").Number(static_cast<int64_t>(report.fleet_crash_salvages));
  j.Key("crash_live_recoveries").Number(static_cast<int64_t>(report.fleet_crash_live_recoveries));
  j.Key("crash_rollbacks").Number(static_cast<int64_t>(report.fleet_crash_rollbacks));
  j.Key("lost").Number(static_cast<int64_t>(report.fleet_lost));
  j.Key("throttled_epochs").Number(static_cast<int64_t>(report.fleet_throttled_epochs));
  j.EndObject();
  j.Key("policy").BeginObject();
  j.Key("mode").String(report.policy_adaptive ? "adaptive" : "fixed");
  j.Key("refused_hosts").Number(static_cast<int64_t>(report.fleet_refused_hosts));
  j.Key("inplace_vms").Number(static_cast<int64_t>(report.policy_inplace_vms));
  j.Key("migrate_vms").Number(static_cast<int64_t>(report.policy_migrate_vms));
  j.Key("refused_vms").Number(static_cast<int64_t>(report.policy_refused_vms));
  j.EndObject();
  j.Key("event_log").BeginArray();
  for (const std::string& line : report.event_log) {
    j.String(line);
  }
  j.EndArray();
  j.EndObject();
  return j.Take();
}

}  // namespace hypertp
