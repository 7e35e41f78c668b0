// Operational simulation: a year (or more) in the life of a HyperTP
// datacenter, driven by the discrete-event executor.
//
// Critical disclosures arrive as a Poisson process at the dataset's
// historical rate for the fleet's home hypervisor. Each disclosure runs the
// transplant policy: when a safe alternate exists the fleet transplants away
// within the reaction time and transplants back once the patch ships (the
// CVE's recorded window, or a fallback); common flaws leave the fleet
// exposed for the full patch-wait. The report aggregates both worlds'
// exposure and the downtime HyperTP charged — the paper's Fig. 1 story,
// played forward as a stochastic process.

#ifndef HYPERTP_SRC_SCENARIO_OPERATIONAL_H_
#define HYPERTP_SRC_SCENARIO_OPERATIONAL_H_

#include <string>
#include <vector>

#include "src/fleet/fleet_types.h"
#include "src/sim/time.h"
#include "src/vulndb/window_model.h"

namespace hypertp {

class Tracer;

// The inherited RolloutKnobs drive every rollout of the year: one
// FleetController over the whole fleet per transplant away and back. With
// `policy` kFixed (the default) every transplanted VM pays the flat Fig. 6
// InPlaceTP downtime and the timings are the configured constants; with
// kAdaptive each rollout prices every VM individually (in-place guests pay
// their modeled pause, migrated guests the switchover brownout) and hosts
// with refused guests stay exposed. Unlike a bare FleetConfig, a year aborts
// a rollout once more than a quarter of its hosts have failed for good.
struct OperationalConfig : RolloutKnobs {
  OperationalConfig() { abort_threshold = 0.25; }

  HypervisorKind home = HypervisorKind::kXen;
  std::vector<HypervisorKind> pool = {HypervisorKind::kXen, HypervisorKind::kKvm};
  // The fleet: host count and wave width (the blast-radius bound).
  int hosts = 100;
  int parallel_hosts = 10;
  PatchPolicy patch_policy;
  int years = 1;
  uint64_t seed = 1;
  double fallback_window_days = 60.0;
  // Guests per host: the flat downtime charge's multiplier and the adaptive
  // policy's per-host population.
  int vms_per_host = 10;

  // Hypervisor-crash storm replayed against every rollout of the year when
  // enabled: seeded crashes mid-traffic, each answered by an unplanned
  // InPlaceTP recovery from the last PRAM image (ReHype-mode salvage) — or
  // lost when the crash tore the ledger.
  CrashStormConfig crash_storm;

  // Observability: when non-null the year's timeline is recorded — one
  // instant per disclosure (track "disclosures") and one span per fleet-wide
  // rollout (track "fleet"). The nested fleet executor's internal timeline is
  // not propagated: its clock restarts per rollout and is unrelated to the
  // operational clock. Null (the default) records nothing.
  Tracer* tracer = nullptr;
};

struct OperationalReport {
  int disclosures = 0;
  int transplants_away = 0;
  int transplants_back = 0;
  int no_safe_target = 0;   // Common flaws: HyperTP cannot help.
  int already_safe = 0;     // Disclosed while the fleet was transplanted away.
  double exposure_days_traditional = 0.0;  // Patch-wait world.
  double exposure_days_hypertp = 0.0;      // This world.
  // Cumulative per-VM downtime HyperTP charged (both directions).
  SimDuration vm_downtime_paid = 0;
  // The outcome tally of every rollout the year ran, summed (retries,
  // post-pause recovery, crash-storm outcomes, policy decisions...). A
  // rollout whose config was rejected runs nothing and is not counted as a
  // rollout: its error lands in event_log and all its hosts join
  // fleet.untouched, stranded for the residual window.
  RolloutTally fleet;
  int fleet_rollouts = 0;
  int fleet_aborts = 0;
  bool policy_adaptive = false;  // OperationalConfig::policy was kAdaptive.
  std::vector<std::string> event_log;

  // Hosts left on the vulnerable hypervisor: failed, or never reached
  // because a rollout aborted or was rejected.
  int stranded_hosts() const { return fleet.failed + fleet.untouched; }

  double exposure_reduction_factor() const {
    return exposure_days_hypertp > 0.0 ? exposure_days_traditional / exposure_days_hypertp
                                       : 0.0;
  }
};

OperationalReport RunOperationalSimulation(const OperationalConfig& config);

// Year-in-the-life report as JSON: disclosure buckets, both worlds'
// exposure, downtime paid, fleet-rollout aggregates, and the event log.
std::string OperationalReportToJson(const OperationalReport& report);

}  // namespace hypertp

#endif  // HYPERTP_SRC_SCENARIO_OPERATIONAL_H_
