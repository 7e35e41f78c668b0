// Fleet control-plane vocabulary: host state machine, rollout configuration
// and the structured events every transition emits.
//
// A fleet rollout is the datacenter-wide act behind Fig. 1(b): once the
// transplant decision is made, hundreds-to-thousands of hosts must each
// drain, micro-reboot into the alternate hypervisor and come back — under a
// blast-radius cap, with real failures and retries. The closed-form
// `FleetTransplantTime` collapses all of that into one multiplication; the
// types here are what the event-driven `FleetController` executes instead.

#ifndef HYPERTP_SRC_FLEET_FLEET_TYPES_H_
#define HYPERTP_SRC_FLEET_FLEET_TYPES_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

#include "src/policy/policy.h"
#include "src/pram/ledger.h"
#include "src/sim/time.h"

namespace hypertp {

class Tracer;

// Host lifecycle: kServing -> kDraining -> kTransplanting -> kServing
// (upgraded) | kFailed. A failed transplant retries from kTransplanting;
// only exhausting the retry budget parks the host in kFailed. A post-pause
// fault (the host died after committing to the micro-reboot) detours through
// kRollingBack: the host re-instantiates the source hypervisor from its PRAM
// ledger, and either resumes serving un-upgraded (the failure was
// recoverable — normal retry policy applies) or is lost for good (fatal; no
// retry can help a host whose ledger rollback failed).
enum class FleetHostState : uint8_t {
  kServing,
  kDraining,
  kTransplanting,
  kFailed,
  kRollingBack,  // Appended: keep serialized values stable.
  // Appended (ReHype-mode crash recovery): the host's hypervisor crashed
  // mid-traffic. kCrashed hosts queue for an unplanned micro-reboot recovery
  // (priority over upgrade waves); kRecovering hosts are mid-recovery.
  kCrashed,
  kRecovering,
  // Appended (campaign work-stealing): the host's whole rack was re-homed to
  // another shard's controller at an epoch barrier. A detached host is no
  // longer this controller's responsibility — it leaves the report totals and
  // the exposure count, and no event ever targets it again.
  kDetached,
};

struct FleetHost {
  int id = 0;
  // Anti-affinity bucket (rack / power feed); assigned round-robin.
  int fault_domain = 0;
  FleetHostState state = FleetHostState::kServing;
  bool upgraded = false;
  int attempts = 0;  // Transplant attempts so far.
  // Crash-recovery bookkeeping (only meaningful once a storm struck this
  // host): when the crash hit, what the crash left of the ledger, and how
  // many unplanned-recovery attempts have run.
  SimTime crash_started = -1;
  CrashLedgerState crash_ledger = CrashLedgerState::kCleanCommit;
  int recovery_attempts = 0;
};

enum class FleetEventType : uint8_t {
  kRolloutStart,
  kWaveStart,
  kDrainStart,
  kTransplantStart,
  kTransplantDone,
  kTransplantFailed,   // One attempt failed; a retry may follow.
  kRetryScheduled,
  kHostFailed,         // Retry budget exhausted.
  kWaveDone,
  kRolloutComplete,
  kRolloutAborted,     // Fleet-level abort threshold crossed.
  // Appended (replay/JSON compatibility): post-pause recovery detour.
  kRollbackStart,      // Post-pause fault; host attempts PRAM ledger rollback.
  kRollbackSucceeded,  // Back to serving the source hypervisor; retry follows.
  kRollbackFailed,     // Ledger torn/uncommitted: host lost, no retry.
  // Appended: ReHype-mode crash recovery under a fault storm.
  kHostCrashed,        // Injected hypervisor crash struck a serving host.
  kRecoveryStart,      // Unplanned micro-reboot recovery attempt begins.
  kRecoveryRetry,      // Recovery attempt failed; a retry is scheduled.
  kRecoveryDone,       // Host back to serving (salvaged or live-recovered).
  kCrashRollback,      // Salvage reverted an upgraded host to the vulnerable
                       // source kind (crash-induced rollback; re-exposes).
  kHostLost,           // VMs lost: torn/stale ledger, recovery budget
                       // exhausted, or a fixed fleet that cannot recover.
  // Appended: adaptive mechanism policy (src/policy/).
  kHostRefused,        // Policy refused a guest on this host: neither
                       // mechanism met its budget. Host keeps serving the
                       // vulnerable hypervisor, never enters a wave.
  // Appended: campaign work-stealing (whole-rack re-homing at barriers).
  kHostDetached,       // This unstarted host's rack was stolen by another
                       // shard; it leaves this controller's books.
  kHostsAdopted,       // A stolen rack arrived: `attempt` carries the host
                       // count, `host` the first adopted local id.
};

std::string_view FleetEventTypeName(FleetEventType type);

// One timestamped state transition. `host`/`wave` are -1 for fleet-scope
// events; `attempt` is 1-based for transplant attempts, 0 otherwise.
struct FleetEvent {
  SimTime time = 0;
  FleetEventType type = FleetEventType::kRolloutStart;
  int host = -1;
  int wave = -1;
  int attempt = 0;
};

// The additive outcome counters of a rollout. One FleetController fills one
// tally; the campaign sums its shards' tallies into per-shard summaries and
// the campaign report, and its SLO governor diffs barrier snapshots of the
// sum. A new outcome counter goes here and nowhere else.
struct RolloutTally {
  int hosts = 0;
  int upgraded = 0;
  int failed = 0;      // Permanently failed (retry budget exhausted).
  int untouched = 0;   // Never started (rollout aborted first).
  int retries = 0;     // Re-attempts across all hosts.
  // Monotone count of successful transplant attempts. `upgraded` is the net
  // serving-upgraded population (crash rollbacks and lost hosts decrement
  // it); rate governors need the gross attempt outcome instead.
  int transplant_successes = 0;
  int waves = 0;
  // Post-pause recovery: attempts that failed after the point of no return,
  // how many of those hosts salvaged themselves by PRAM ledger rollback
  // (and then re-entered the retry policy), and how many were lost because
  // the rollback itself failed (counted in `failed` too).
  int post_pause_faults = 0;
  int rollbacks = 0;
  int rollback_failures = 0;
  // ReHype-mode crash recovery under a fault storm (all zero without one).
  int crashes = 0;                // Hosts struck by an injected hypervisor crash.
  int crash_salvages = 0;         // Recovered from the committed PRAM image.
  int crash_live_recoveries = 0;  // Pre-commit ledger: re-adopted live state.
  int crash_rollbacks = 0;        // Salvage reverted an upgraded host to the
                                  // vulnerable kind (re-exposed, re-queued).
  int crash_upgrades = 0;         // Cross-kind salvage upgraded a host early.
  int crash_data_loss = 0;        // Torn/stale ledger refused every salvage.
  int crash_recovery_retries = 0;
  int lost = 0;  // Hosts permanently down from crashes: ledger data loss,
                 // recovery budget exhausted, or a fleet that cannot recover.
  // Adaptive mechanism policy (all zero with policy mode kFixed).
  int refused = 0;             // Hosts excluded: a guest refused both mechanisms.
  int policy_inplace_vms = 0;  // Per-VM decisions across the whole fleet.
  int policy_migrate_vms = 0;
  int policy_refused_vms = 0;
  // Per-VM downtime actually charged by upgraded hosts' plans (each in-place
  // guest's expected pause + each migrated guest's switchover brownout).
  SimDuration policy_vm_downtime = 0;

  RolloutTally& operator+=(const RolloutTally& other);
};

// Upper bound for saturated retry backoff: far beyond any simulated rollout,
// yet small enough that `now + backoff` can never overflow SimTime no matter
// how many times it compounds.
inline constexpr SimDuration kRetryBackoffCeiling = Seconds(30) * 86400;  // 30 days.

// Exponential backoff that saturates instead of overflowing: base, 2x, 4x...
// per consecutive failure, clamped at kRetryBackoffCeiling. The naive
// `base << failures` overflows SimDuration (int64 ns) after ~33 doublings of
// a 5 s base — a long fault storm reaches 30+ retries — flipping the next
// retry time negative. Saturation keeps a parked host's next-retry time
// finite and monotone in the failure count. A base already above the ceiling
// is returned unchanged (never shorten a configured backoff).
constexpr SimDuration SaturatingBackoff(SimDuration base, int consecutive_failures) {
  if (base <= 0) {
    return 0;
  }
  if (consecutive_failures <= 0 || base >= kRetryBackoffCeiling) {
    return base;
  }
  const int shift = std::min(consecutive_failures, 62);
  if (base > (kRetryBackoffCeiling >> shift)) {
    return kRetryBackoffCeiling;
  }
  return base << shift;
}

// Seeded hypervisor-crash storm: hosts suffer unplanned crashes mid-traffic
// and the fleet answers with ReHype-mode micro-reboot recoveries from the
// last PRAM image. All defaults off: a zero rate schedules no crash and
// draws nothing from the storm stream.
struct CrashStormConfig {
  // Poisson arrival rate of crash events per hour of sim time, fleet-wide.
  // 0 disables the storm entirely.
  double rate_per_hour = 0.0;
  // Hosts struck per crash event (correlated bursts: a rack PDU dip, a bad
  // microcode push). Victims draw uniformly from currently-serving hosts.
  int burst = 1;
  // Storm window relative to rollout start; duration 0 = the storm lasts as
  // long as the rollout does.
  SimDuration start = 0;
  SimDuration duration = 0;
  // Crash-time ledger state mix (CrashLedgerState, src/pram/ledger.h): the
  // fraction of crashes that find each non-clean state. The remainder finds
  // a cleanly committed image. Outcomes follow DecideSalvage(), so the
  // simulated distribution and the byte-level ledger triage share one table.
  double pre_pause_fraction = 0.0;
  double mid_save_torn_fraction = 0.0;
  double stale_commit_fraction = 0.0;
  double scrubbed_fraction = 0.0;
  // false replays the same storm against a fixed fleet that cannot recover:
  // crashed hosts stay down with their VMs lost (the control arm of the
  // fixed-vs-recovering comparison).
  bool recover = true;
  // Unplanned-recovery scheduling: micro-reboot + salvage/adopt duration,
  // per-attempt failure odds, and a retry budget with *saturating* backoff —
  // distinct from the upgrade retry policy so a storm cannot starve it.
  SimDuration recovery_time = Seconds(8);
  double recovery_failure_probability = 0.0;
  int recovery_max_retries = 3;
  SimDuration recovery_backoff = Seconds(2);
  // Probability a salvage re-instantiates the campaign's *target* kind from
  // the kind-neutral UISR image instead of the ledger's source kind: an
  // upgraded host keeps its upgrade through the crash, an un-upgraded one
  // comes back upgraded early. Same-kind salvage of an upgraded host is a
  // crash-induced rollback (the host re-exposes and re-queues).
  double cross_kind_fraction = 0.0;

  bool enabled() const { return rate_per_hour > 0.0; }
};

// The knobs of one rollout, declared once and inherited by every config that
// drives one (FleetConfig, CampaignConfig, OperationalConfig): a layer hands
// them down with `static_cast<RolloutKnobs&>(fleet) = config;` and checks
// them with ValidateRolloutKnobs (fleet_controller.h).
struct RolloutKnobs {
  // Per-host timings. With the defaults (no drain, 10 s per host, no jitter,
  // no failures) the rollout makespan equals the closed-form
  // FleetTransplantTime exactly. The adaptive policy re-prices both per host
  // (MechanismPolicy::PlanHost).
  SimDuration drain_time = 0;
  SimDuration per_host_transplant = Seconds(10);

  // Fault injection (all draws come from per-host forks of the seed, so the
  // outcome of host i never depends on scheduling order).
  double failure_probability = 0.0;  // Per transplant attempt.
  double latency_jitter = 0.0;       // Lognormal sigma on per-host durations.
  int max_retries = 3;               // Retries after the initial attempt.
  // Doubles per consecutive failure, saturating at kRetryBackoffCeiling
  // (see SaturatingBackoff above).
  SimDuration retry_backoff = Seconds(5);
  // Abort the rollout when the permanently-failed fraction strictly exceeds
  // this; >= 1.0 disables the abort.
  double abort_threshold = 1.0;
  // Fraction of failed attempts that are post-pause faults (the host already
  // committed its ledger and micro-rebooted): those hosts must roll back via
  // PRAM before the retry policy applies. A zero fraction draws nothing:
  // Rng::NextBool(0) returns without consuming the host's stream.
  double post_pause_fraction = 0.0;
  // Probability a rollback itself fails (torn ledger / corrupt image): the
  // host is lost immediately, bypassing the retry budget.
  double rollback_failure_probability = 0.0;
  SimDuration rollback_time = Seconds(5);  // Second micro-reboot + restore.

  // Adaptive mechanism selection (src/policy/). With the default mode
  // (kFixed) the policy is inert: the configured timings apply and no host
  // is refused. With kAdaptive, every host's guests are priced per VM and the
  // per-host drain/transplant durations and per-VM downtime come from the
  // resulting HostPolicyPlan; hosts with a refused guest are excluded from
  // the rollout.
  policy::PolicyConfig policy;
};

struct FleetConfig : RolloutKnobs {
  int hosts = 100;
  // Wave width: at most this many transplants in flight at once (the
  // blast-radius bound, mirroring FleetProfile::parallel_hosts).
  int parallel_hosts = 10;

  // Anti-affinity: hosts spread round-robin over `fault_domains`; a wave
  // holds at most `max_per_domain_in_flight` hosts of one domain
  // (0 = unconstrained).
  int fault_domains = 1;
  int max_per_domain_in_flight = 0;

  // Campaign work-stealing mode. Two coupled behavior changes, both off by
  // default (a standalone rollout finalizes itself):
  //   1. The pending queue fills domain-major (rack 0's hosts first) instead
  //      of id-order, so waves pack into the lowest racks and whole high
  //      racks stay fully unstarted — the unit a barrier steal can re-home.
  //   2. A drained rollout (no pending, in-flight or recovery work) does NOT
  //      self-finalize; it records drained_at() and waits for the coordinator
  //      to either AdoptHosts() more work or FinalizeDrained() it, with the
  //      makespan stamped at the drain instant, not the barrier.
  bool hold_open = false;

  // Injected hypervisor-crash storm + unplanned recovery policy. Disabled by
  // default (rate 0).
  CrashStormConfig crash_storm;

  // Global host ids for partition invariance: the adaptive policy prices
  // local host i's guests (SyntheticVmSignals) under entry i, its fleet-wide
  // id. Empty = identity (local id == global id). The campaign planner fills
  // this from the datacenter rack layout so a fleet split into any number of
  // shards prices the same VM population identically.
  std::vector<int64_t> policy_host_global_ids;
  uint64_t seed = 1;
  size_t trace_capacity = 65536;  // Ring buffer: oldest events drop first.

  // Wave admission gate for an external coordinator (the campaign control
  // plane's SLO governor): consulted with the next wave's index and the
  // current sim time before each wave is composed. A positive return defers
  // the wave by that long (and the gate is consulted again when it fires);
  // <= 0 admits the wave immediately. Null (the default) never defers.
  // Determinism contract: the gate must be a pure function of sim time and
  // of state that only changes at coordinator barriers, never of wall-clock
  // or cross-shard event interleaving.
  std::function<SimDuration(int wave, SimTime now)> wave_pacer;

  // Observability: when non-null, every host state transition opens/closes a
  // span on that host's track (an upgrade wave renders as one swimlane per
  // host in Perfetto), waves and the rollout get spans of their own, and
  // timestamps come from the driving executor. One event->span table in the
  // controller drives them all. Null records nothing; the FleetTrace ring
  // above is unaffected either way.
  Tracer* tracer = nullptr;
};

}  // namespace hypertp

#endif  // HYPERTP_SRC_FLEET_FLEET_TYPES_H_
