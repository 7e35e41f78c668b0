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

#include "src/campaign/campaign.h"
#include "src/sim/time.h"
#include "src/vulndb/window_model.h"

namespace hypertp {

class Tracer;

// How each disclosure's fleet-wide transplant is executed. Both modes are
// event-driven and inject the configured faults (and `fleet_storm`, when
// enabled); with neither, a rollout's makespan is the closed-form
// FleetTransplantTime.
enum class FleetExecutionMode : uint8_t {
  // One rollout through src/fleet's FleetController: wave scheduling,
  // injected failures, retries with backoff, abort threshold.
  kFleetController,
  // Sharded campaign through src/campaign's CampaignPlanner: the fleet is
  // laid out as one datacenter of `campaign_shards` racks and every
  // disclosure's rollout runs N coordinated per-shard controllers under the
  // `campaign_slo` budgets. Hosts round down to a whole number of racks.
  kCampaign,
};

struct OperationalConfig {
  HypervisorKind home = HypervisorKind::kXen;
  std::vector<HypervisorKind> pool = {HypervisorKind::kXen, HypervisorKind::kKvm};
  FleetProfile fleet;
  PatchPolicy patch_policy;
  // Operator reaction: disclosure -> fleet transplant begins.
  SimDuration reaction_time = Seconds(4 * 3600);  // 4 hours.
  int years = 1;
  uint64_t seed = 1;
  double fallback_window_days = 60.0;
  // Per-VM downtime charged by one InPlaceTP pass (Fig. 6).
  SimDuration per_vm_downtime = SecondsF(1.7);
  int vms_per_host = 10;

  FleetExecutionMode fleet_mode = FleetExecutionMode::kFleetController;
  // Fault-injection knobs, applied in either mode.
  double fleet_failure_probability = 0.0;
  double fleet_latency_jitter = 0.0;
  int fleet_max_retries = 3;
  double fleet_abort_threshold = 0.25;
  // Post-pause recovery (failure-atomic transplant): fraction of failed
  // attempts stranded past the point of no return, chance the PRAM ledger
  // rollback itself fails, and the rollback's duration.
  double fleet_post_pause_fraction = 0.0;
  double fleet_rollback_failure_probability = 0.0;
  SimDuration fleet_rollback_time = Seconds(5);
  // Hypervisor-crash storm replayed against every rollout of the year when
  // enabled: seeded crashes mid-traffic, each answered by an unplanned
  // InPlaceTP recovery from the last PRAM image (ReHype-mode salvage) — or
  // lost when the crash tore the ledger. In kCampaign mode it is the
  // datacenter's storm, thinned across the shards by host count.
  CrashStormConfig fleet_storm;

  // Adaptive mechanism selection (src/policy/) for every rollout of the
  // year. With kFixed (the default) per-VM downtime is the flat
  // per_vm_downtime charge and rollout timings are the configured constants.
  // With kAdaptive each rollout prices every VM individually: in-place
  // guests are charged their modeled pause, migrated guests the switchover
  // brownout, and hosts with refused guests stay exposed. vms_per_host above
  // feeds the policy's per-host population.
  policy::PolicyConfig fleet_policy;

  // kCampaign mode: shard count and fleet-wide SLO budgets for the sharded
  // campaign control plane. The per-shard wave width is
  // fleet.parallel_hosts / campaign_shards (at least 1), so total in-flight
  // capacity matches the single-controller modes.
  int campaign_shards = 4;
  CampaignSlo campaign_slo;

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
  // kCampaign mode: epoch barriers the SLO governor spent throttled, summed
  // over every campaign of the year.
  int fleet_throttled_epochs = 0;
  bool policy_adaptive = false;  // fleet_policy was kAdaptive.
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
