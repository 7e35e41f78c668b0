// Sharded campaign control plane: one fleet-wide transplant campaign over
// 100k+ hosts, executed as N per-shard FleetControllers coordinated by a
// top-level planner.
//
// The single event-loop FleetController (src/fleet/) is the right abstraction
// for one datacenter-scale rollout; a planet-scale campaign is a different
// job: partition the fleet into shards that never split a rack (cross-shard
// anti-affinity by construction), admit shards under per-datacenter WAN
// bandwidth slots and a global concurrency cap, advance every admitted shard
// in deterministic lockstep epochs, and govern the whole campaign against
// fleet-wide SLOs — throttling wave admission when the rollback storm or the
// concurrently-unavailable fraction crosses its budget, aborting outright
// when the hard budgets do. Shard events feed a live ExposureStream
// (src/vulndb/exposure_stream.h), so the campaign emits the "fraction of the
// fleet still vulnerable" curve while it runs instead of after.
//
// Determinism contract: per-shard RNG streams fork from the campaign seed in
// shard-id order; shards share no mutable state while an epoch advances (so
// epochs may run on real threads — wall-clock only); governor decisions read
// only barrier-committed state; barrier merges iterate shards in id order and
// sort events by (time, shard). Two runs with the same config produce
// byte-identical reports, curves and trace JSON for any thread count —
// campaign_test pins this.

#ifndef HYPERTP_SRC_CAMPAIGN_CAMPAIGN_H_
#define HYPERTP_SRC_CAMPAIGN_CAMPAIGN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/result.h"
#include "src/fleet/fleet_types.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/sim/stats.h"
#include "src/sim/time.h"
#include "src/vulndb/exposure_stream.h"

namespace hypertp {

// One datacenter of the campaign topology: `racks` racks of `hosts_per_rack`
// hosts, each host carrying `vms_per_host` guests.
struct CampaignDatacenter {
  std::string name;
  int racks = 1;
  int hosts_per_rack = 1;
  int vms_per_host = 10;
  // Bandwidth-aware pacing: one in-flight shard's evacuation + image traffic
  // occupies one slot of the datacenter's WAN links; at most this many of the
  // DC's shards transplant concurrently (0 = unconstrained). Further shards
  // queue in id order and are admitted as slots free up.
  int bandwidth_slots = 0;
  // Per-DC environment signals for the adaptive mechanism policy: migration
  // link bandwidth and spare host capacity. Only consulted when
  // CampaignConfig::policy is adaptive; a congested DC (low link_gbps or
  // headroom) shifts its VMs toward InPlaceTP or refusal.
  double link_gbps = 10.0;
  double host_headroom = 0.5;
  // Seeded hypervisor-crash storm over this datacenter's hosts (disabled by
  // default). The DC-wide Poisson rate is split across the DC's shards in
  // proportion to their host counts (Poisson thinning), so the storm's
  // expected intensity is independent of the sharding and every draw stays
  // inside one shard's deterministic stream.
  CrashStormConfig crash_storm;
  // Heterogeneous per-DC timing: host class (CPU generation), reboot cost
  // (firmware/microcode path) and link generation scale this DC's per-host
  // transplant and drain durations (policy::DcTimingModel). Defaults are all
  // 1.0 — byte-identical to the homogeneous campaign.
  policy::DcTimingModel timing;

  // PlanCampaign rejects a topology whose host count overflows int.
  int hosts() const { return racks * hosts_per_rack; }
  int64_t vms() const { return static_cast<int64_t>(hosts()) * vms_per_host; }
};

// Fleet-wide SLO budgets, evaluated at every epoch barrier. The fourth hard
// abort, on the permanently-failed fraction, is CampaignConfig::abort_threshold.
struct CampaignSlo {
  // Downtime budget: fraction of all campaign hosts concurrently out of
  // service (draining / transplanting / rolling back). Above it, shards defer
  // new waves until the fraction drops. 1.0 disables.
  double max_unavailable_fraction = 1.0;
  // Rollback-storm budgets: post-pause faults per completed transplant
  // attempt over the trailing `rate_window_epochs` barriers. Crossing the
  // throttle budget defers every shard's next wave by `throttle_hold`;
  // crossing the abort budget kills the campaign. >= 1.0 disables either.
  double throttle_rollback_rate = 1.0;
  double abort_rollback_rate = 1.0;
  int rate_window_epochs = 4;
  SimDuration throttle_hold = Seconds(30);
  // Crash-storm budgets, kept apart from the upgrade-induced ones so a storm
  // can never masquerade as a bad image (and vice versa): the rates above
  // count only post-pause faults of *upgrade* attempts, the ones below only
  // crash-induced rollbacks (an unplanned salvage reverting an upgraded
  // host). Same trailing window, same semantics; distinct abort_reason
  // ("crash_rollback_rate"). >= 1.0 disables either.
  double throttle_crash_rollback_rate = 1.0;
  double abort_crash_rollback_rate = 1.0;
  // Hard abort when this fraction of all campaign hosts was lost to crashes
  // (ledger data loss or recovery exhaustion); abort_reason
  // "crash_loss_fraction". >= 1.0 disables.
  double abort_crash_loss_fraction = 1.0;
};

// Deterministic rack work-stealing, decided only at epoch barriers: when a
// shard's remaining-work estimate (pending per-host cost / wave width) falls
// below `threshold_epochs` epochs, the planner re-homes whole fully-unstarted
// racks from the most-loaded shard to it. Rack-integral moves preserve
// cross-shard anti-affinity by construction; id-order tie-breaking keeps the
// steal plan — and every output byte — independent of thread count.
struct CampaignStealConfig {
  bool enabled = false;
  // A shard becomes a thief when its remaining-work estimate drops under
  // threshold_epochs * epoch.
  double threshold_epochs = 2.0;
  // Cap on racks re-homed per barrier (0 = unlimited).
  int max_racks_per_epoch = 0;
};

// The inherited RolloutKnobs are every shard's FleetController knobs, two of
// them read at campaign scope. `abort_threshold` is the SLO governor's abort
// on the failed fraction of all campaign hosts (abort_reason
// "failed_fraction"); shard controllers never abort on it. `policy` has its
// environment overridden per datacenter (link_gbps / host_headroom) and keys
// every host plan on the host's campaign-global id, so decisions are
// byte-identical across shard and thread counts.
struct CampaignConfig : RolloutKnobs {
  std::vector<CampaignDatacenter> datacenters;
  // Shard count: >= datacenters (every DC runs at least one shard) and
  // <= total racks (a shard owns whole racks).
  int shards = 1;
  // Lockstep quantum: every admitted shard advances to the next multiple of
  // `epoch`, then the governor/analytics barrier runs.
  SimDuration epoch = Seconds(5);
  // Global capacity constraint: at most this many shards in flight across
  // all datacenters (0 = unconstrained).
  int max_concurrent_shards = 0;

  // Per-shard wave width and per-rack anti-affinity cap
  // (FleetConfig::parallel_hosts / max_per_domain_in_flight of each shard).
  int parallel_hosts_per_shard = 100;
  int max_per_rack_in_flight = 0;

  // Straggler-tail mitigation (stealing off by default; the stride never
  // changes output).
  CampaignStealConfig steal;
  // Adaptive epoch stride: when no admitted shard has an event before the
  // next k epoch boundaries and the governor is quiescent, the coordinator
  // strides straight to the next interesting boundary instead of running k
  // empty barriers. Skipped epochs count as executed (identical reports);
  // the campaign_idle_epochs_skipped counter and the report's
  // idle_epochs_skipped field tally them.
  bool adaptive_stride = true;

  CampaignSlo slo;
  uint64_t seed = 1;
  // Real OS threads for epoch advancement (wall-clock only — output bytes
  // are identical for any value). 0 = the HYPERTP_PARALLEL env var.
  int real_threads = 0;
  // Safety horizon: the campaign aborts after this many epochs (0 = never).
  int max_epochs = 1 << 20;
  // ExposureStream downsampling epsilon (see ExposureStreamOptions).
  double exposure_min_fraction_delta = 0.001;

  // Observability (campaign scope only; shard-internal tracing stays off so
  // output is thread-count independent): campaign/shard spans, SLO instants,
  // exposure curve instants, campaign_* counters and gauges.
  Tracer* tracer = nullptr;
  MetricsRegistry* metrics = nullptr;
};

// One shard of the plan: whole racks of exactly one datacenter.
struct CampaignShardPlan {
  int id = 0;
  int datacenter = 0;
  std::vector<int> racks;  // DC-local rack indices owned by this shard.
  int hosts = 0;
  int vms_per_host = 0;
};

struct CampaignPlan {
  std::vector<CampaignShardPlan> shards;
  std::vector<int> shards_per_datacenter;
  int total_hosts = 0;
  int64_t total_vms = 0;
  int total_racks = 0;
};

// Rack-aware partition: shards are apportioned to datacenters by host count
// (D'Hondt, every DC >= 1), racks round-robin over the DC's shards. Rejects
// empty/degenerate topologies, shard counts outside [datacenters, racks],
// and invalid rollout knobs or crash storms with an error naming the field
// the caller set (`CampaignConfig::max_retries`, or
// `CampaignDatacenter::crash_storm.burst` after the datacenter's name).
Result<CampaignPlan> PlanCampaign(const CampaignConfig& config);

// Per-shard outcome, in shard-id order: the shard controller's tally plus
// where the shard sat in the campaign.
struct CampaignShardSummary : RolloutTally {
  int id = 0;
  int datacenter = 0;
  // Work-stealing traffic: hosts adopted from / handed to sibling shards.
  // `hosts` is the final responsibility set (initial + in - out).
  int stolen_in = 0;
  int stolen_out = 0;
  bool aborted = false;
  bool complete = false;
  SimTime admitted = -1;  // -1: the campaign aborted before admission.
  SimDuration makespan = 0;
};

// Campaign totals: the sum of every shard's tally (upgrade-induced recovery
// traffic and crash-storm traffic stay separate counters, so neither
// contaminates the other's SLO rate) plus campaign-scope outcomes.
struct CampaignReport : RolloutTally {
  int shards = 0;
  int datacenters = 0;
  int64_t vms = 0;
  bool policy_adaptive = false;  // Policy mode kAdaptive planned the hosts.
  // Work-stealing totals (zero without CampaignConfig::steal).
  int steals = 0;        // Rack moves across all barriers.
  int stolen_hosts = 0;  // Hosts those racks carried.
  // Epoch barriers the adaptive stride skipped.
  int idle_epochs_skipped = 0;
  // Wall-clock of CampaignPlanner::Run() in milliseconds; -1 = not measured.
  // Host time, so never serialized: the report JSON stays deterministic.
  double wall_ms = -1.0;
  int epochs = 0;
  int throttled_epochs = 0;
  bool aborted = false;   // SLO (or horizon) abort.
  bool complete = false;  // Every host of every shard upgraded.
  std::string abort_reason;
  SimDuration makespan = 0;
  // Final state + running integrals of the live exposure stream.
  double final_fraction_vulnerable = 1.0;
  double exposed_host_days = 0.0;
  double exposed_vm_days = 0.0;
  std::vector<ExposureCurvePoint> exposure_curve;
  std::vector<CampaignShardSummary> shard_summaries;
  SampleSet shard_makespan_seconds;
  // Crash-to-serving latency of every successful unplanned recovery, merged
  // across shards in shard-id order (deterministic for any thread count).
  SampleSet recovery_latency_seconds;
};

// {"kind":"campaign", fleet totals, SLO outcome, exposure, shards} in the
// OperationalReportToJson house style. Deterministic: same report -> same
// bytes.
std::string CampaignReportToJson(const CampaignReport& report);

class CampaignPlanner {
 public:
  explicit CampaignPlanner(CampaignConfig config);

  // Plans and executes the campaign to completion or SLO abort.
  // Single-shot: a second call returns kFailedPrecondition.
  Result<CampaignReport> Run();

 private:
  CampaignConfig config_;
  bool ran_ = false;
  // Barrier-committed wave hold read by every shard's wave pacer; nonzero
  // while the governor throttles. Written only between epochs.
  SimDuration governor_hold_ = 0;
};

}  // namespace hypertp

#endif  // HYPERTP_SRC_CAMPAIGN_CAMPAIGN_H_
