#include "src/scenario/operational.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "src/base/json.h"
#include "src/base/logging.h"
#include "src/fleet/fleet_controller.h"
#include "src/obs/trace.h"
#include "src/sim/executor.h"
#include "src/sim/rng.h"
#include "src/vulndb/vulndb.h"

namespace hypertp {
namespace {

constexpr double kDaySeconds = 24.0 * 3600.0;
// Operator reaction: disclosure -> fleet transplant begins.
constexpr SimDuration kReactionTime = Seconds(4 * 3600);
// Per-VM downtime charged by one InPlaceTP pass under the fixed policy (Fig. 6).
constexpr SimDuration kPerVmDowntime = SecondsF(1.7);

SimDuration Days(double d) { return static_cast<SimDuration>(d * kDaySeconds * 1e9); }

std::string Stamp(SimTime t) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "day %6.1f", ToSeconds(t) / kDaySeconds);
  return buf;
}

// Every rollout of the year shares one config, so it is checked once and
// its errors name the OperationalConfig field the caller set.
Result<void> ValidateOperationalConfig(const OperationalConfig& config) {
  HYPERTP_RETURN_IF_ERROR(CheckPositive("OperationalConfig::",
                                        {{"hosts", config.hosts},
                                         {"parallel_hosts", config.parallel_hosts},
                                         {"vms_per_host", config.vms_per_host}}));
  HYPERTP_RETURN_IF_ERROR(ValidateRolloutKnobs(config, "OperationalConfig"));
  return ValidateCrashStorm(config.crash_storm, "OperationalConfig");
}

}  // namespace

OperationalReport RunOperationalSimulation(const OperationalConfig& config) {
  OperationalReport report;
  Rng rng(config.seed);
  SimExecutor executor;
  Tracer* const tracer = config.tracer;

  // Dedicated stream for fleet rollouts, forked unconditionally so the
  // disclosure sequence is the same for one seed whatever the rollouts draw.
  Rng fleet_stream = rng.Fork();
  const bool adaptive = config.policy.adaptive();
  report.policy_adaptive = adaptive;
  const Result<void> valid = ValidateOperationalConfig(config);
  // One nested executor reused across every rollout of the year (an aborted
  // rollout's Stop() must not poison the next one).
  SimExecutor fleet_executor;

  // Runs one fleet-wide transplant through the event-driven control plane,
  // charges it to the year and returns its makespan. Downtime is the plans'
  // modeled per-VM downtime under the adaptive policy, else the flat Fig. 6
  // charge for every VM of every host transplanted. Hosts neither upgraded
  // nor lost (failed, never reached because the rollout aborted, or refused
  // by the policy) stay exposed for `residual_exposure_days` — the rest of
  // the patch wait. Lost hosts are dead, not exposed. A rejected config
  // runs nothing: no rollout is counted, the field-naming error lands in the
  // event log, and every host stays stranded for the residual window.
  auto run_rollout = [&](double residual_exposure_days) -> SimDuration {
    if (!valid.ok()) {
      report.event_log.push_back("rollout rejected: " + valid.error().ToString());
      report.fleet.untouched += std::max(config.hosts, 0);
      report.exposure_days_hypertp += residual_exposure_days;
      return 0;
    }
    FleetConfig fleet_config;
    static_cast<RolloutKnobs&>(fleet_config) = config;
    fleet_config.hosts = config.hosts;
    fleet_config.parallel_hosts = config.parallel_hosts;
    fleet_config.crash_storm = config.crash_storm;
    if (adaptive) {
      fleet_config.policy.vms_per_host = config.vms_per_host;
    }
    fleet_config.seed = fleet_stream.NextU64();
    FleetController controller(fleet_executor, fleet_config);
    // ValidateOperationalConfig checked every field this config sets.
    HYPERTP_CHECK(!controller.config_error().has_value());
    const FleetRolloutReport& rollout = controller.Run();
    ++report.fleet_rollouts;
    report.fleet += rollout;
    report.fleet_aborts += rollout.aborted;
    report.vm_downtime_paid +=
        adaptive ? rollout.policy_vm_downtime
                 : kPerVmDowntime * (static_cast<int64_t>(config.vms_per_host) *
                                     rollout.transplant_successes);
    if (rollout.hosts > 0 && rollout.upgraded < rollout.hosts) {
      report.exposure_days_hypertp += static_cast<double>(rollout.hosts - rollout.upgraded -
                                                          rollout.lost) /
                                      rollout.hosts * residual_exposure_days;
    }
    return rollout.makespan;
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
          const SimDuration exposed = kReactionTime + fleet_time;
          if (tracer != nullptr) {
            tracer->SetAttribute(disclosure_mark, "outcome", "transplant");
            const SpanId rollout = tracer->AddSpan(
                "rollout:away", at + kReactionTime, fleet_time, 0, "fleet");
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
  const RolloutTally& fleet = report.fleet;
  j.Key("rollouts").Number(static_cast<int64_t>(report.fleet_rollouts));
  j.Key("retries").Number(static_cast<int64_t>(fleet.retries));
  j.Key("stranded_hosts").Number(static_cast<int64_t>(report.stranded_hosts()));
  j.Key("aborts").Number(static_cast<int64_t>(report.fleet_aborts));
  j.Key("post_pause_faults").Number(static_cast<int64_t>(fleet.post_pause_faults));
  j.Key("rollbacks").Number(static_cast<int64_t>(fleet.rollbacks));
  j.Key("rollback_failures").Number(static_cast<int64_t>(fleet.rollback_failures));
  j.Key("crashes").Number(static_cast<int64_t>(fleet.crashes));
  j.Key("crash_salvages").Number(static_cast<int64_t>(fleet.crash_salvages));
  j.Key("crash_live_recoveries").Number(static_cast<int64_t>(fleet.crash_live_recoveries));
  j.Key("crash_rollbacks").Number(static_cast<int64_t>(fleet.crash_rollbacks));
  j.Key("lost").Number(static_cast<int64_t>(fleet.lost));
  j.EndObject();
  j.Key("policy").BeginObject();
  j.Key("mode").String(report.policy_adaptive ? "adaptive" : "fixed");
  j.Key("refused_hosts").Number(static_cast<int64_t>(fleet.refused));
  j.Key("inplace_vms").Number(static_cast<int64_t>(fleet.policy_inplace_vms));
  j.Key("migrate_vms").Number(static_cast<int64_t>(fleet.policy_migrate_vms));
  j.Key("refused_vms").Number(static_cast<int64_t>(fleet.policy_refused_vms));
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
