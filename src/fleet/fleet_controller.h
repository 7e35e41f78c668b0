// Event-driven fleet control plane: executes a datacenter-wide hypervisor
// transplant as concurrent, failure-prone work on the discrete-event
// executor, subsuming the closed-form FleetTransplantTime.
//
// The controller owns N FleetHost state machines and a wave scheduler that
// keeps at most `parallel_hosts` transplants in flight, composing each wave
// under the anti-affinity constraint (at most `max_per_domain_in_flight`
// hosts per fault domain). Each host drains, transplants (per-host duration
// with optional lognormal jitter), and either returns to serving upgraded or
// retries with exponential backoff until the budget runs out. Crossing the
// fleet abort threshold stops the rollout gracefully: remaining hosts keep
// serving the vulnerable hypervisor and the report states the partial
// exposure. Every transition goes through one Emit(), which records it in the
// FleetTrace and, with a tracer attached, drives the rollout, wave and host
// spans. Exposure leaves the controller only as ExposureDelta records; an
// ExposureStream (src/vulndb/) integrates them.

#ifndef HYPERTP_SRC_FLEET_FLEET_CONTROLLER_H_
#define HYPERTP_SRC_FLEET_FLEET_CONTROLLER_H_

#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/base/result.h"
#include "src/fleet/fleet_trace.h"
#include "src/fleet/fleet_types.h"
#include "src/obs/trace.h"
#include "src/sim/executor.h"
#include "src/sim/rng.h"
#include "src/sim/stats.h"

namespace hypertp {

struct FleetRolloutReport : RolloutTally {
  bool policy_adaptive = false;  // Policy mode kAdaptive planned the hosts.
  // Campaign work-stealing traffic (zero without FleetConfig::hold_open):
  // hosts this controller handed to / received from sibling shards. The
  // tally's `hosts` tracks the *current* responsibility set, so after steals
  // hosts == initial + adopted - detached.
  int adopted_hosts = 0;
  int detached_hosts = 0;
  bool aborted = false;
  bool complete = false;  // Every host upgraded.
  SimDuration makespan = 0;
  SampleSet wave_latency_seconds;
  // Crash-to-serving latency of every successful unplanned recovery.
  SampleSet recovery_latency_seconds;
};

// {"kind":"fleet_rollout", summary counters, wave-latency percentiles}.
std::string FleetRolloutReportToJson(const FleetRolloutReport& report);

// Rejects degenerate configurations with a field-naming kInvalidArgument
// instead of the silent clamping the controller used to do: hosts and
// parallel_hosts must be positive, fault_domains >= 1, max_retries >= 0,
// durations non-negative, probabilities/fractions inside [0, 1] and the
// jitter sigma non-negative. abort_threshold may exceed 1.0 (that disables
// the abort) but not be negative.
Result<void> ValidateFleetConfig(const FleetConfig& config);

// One change of a controller's exposed-host count: at `time`, `hosts` more
// hosts run the vulnerable hypervisor (negative: that many reached safety or
// died). Changes at one instant coalesce into one entry, so a batch of
// entries is strictly increasing in time.
struct ExposureDelta {
  SimTime time = 0;
  int hosts = 0;
};

// One fully-unstarted fault domain (rack) a barrier steal could re-home:
// every non-detached member host is still queued with zero attempts.
struct StealableDomain {
  int domain = 0;
  int hosts = 0;
  // Uniform per-host durations of the rack's hosts (DC-scaled by the campaign
  // at construction, or carried along from a previous adoption).
  SimDuration drain_time = 0;
  SimDuration transplant_time = 0;
};

// A rack in flight between two controllers: DetachDomain() produces it,
// AdoptHosts() consumes it. Each host's RNG stream travels with the host, so
// its jitter/failure draws are a function of the steal plan, not of which
// controller happens to schedule it — deterministic for any thread count.
struct DetachedRack {
  int hosts = 0;
  SimDuration drain_time = 0;
  SimDuration transplant_time = 0;
  std::vector<Rng> rngs;
};

class FleetController {
 public:
  // The executor is borrowed, not owned: the operational scenario reuses one
  // executor across many rollouts (an abort must not poison the next run —
  // see SimExecutor::Stop()). Scheduling is relative to executor.now().
  FleetController(SimExecutor& executor, FleetConfig config);
  ~FleetController();
  FleetController(const FleetController&) = delete;
  FleetController& operator=(const FleetController&) = delete;

  // Drives the executor until the rollout completes or aborts.
  const FleetRolloutReport& Run();

  // Schedules the rollout without draining the executor, for coordinators
  // (the campaign control plane) that advance the executor in bounded steps
  // via RunUntil. Run() == Start() + executor.Run().
  void Start();

  // Externally finalizes an in-flight rollout as aborted (the campaign SLO
  // governor crossing a fleet-wide budget). No-op once finished.
  void Abort();

  // True once the rollout finalized (complete or aborted) — or when the
  // config was rejected at construction and there is nothing to run.
  bool finished() const { return finished_; }

  // Set when the FleetConfig failed validation at construction: the
  // controller is inert (Start/Run return an all-zero report) and the error
  // names the offending field.
  const std::optional<Error>& config_error() const { return config_error_; }

  const FleetRolloutReport& report() const { return report_; }
  // Takes the exposure changes recorded since the last call, oldest first,
  // and clears them. The rollout starts with every host exposed and records
  // no entry for that; re-homing a rack (DetachDomain/AdoptHosts) records
  // none either — ownership moves, exposure does not. The controller keeps
  // no integral: a standalone caller feeds these into an ExposureStream that
  // opens at Start() with every host exposed and seals at the rollout's end.
  std::vector<ExposureDelta> TakeExposureDeltas();
  const FleetTrace& trace() const { return trace_; }
  const std::vector<FleetHost>& hosts() const { return hosts_; }
  const FleetConfig& config() const { return config_; }

  // --- Campaign work-stealing surface (FleetConfig::hold_open mode). All of
  // these are coordinator-only calls, made strictly at epoch barriers while
  // no shard is advancing, so they need no synchronization.

  // True when the rollout ran dry under hold_open: no pending, in-flight or
  // recovery work, but not finalized — awaiting adoption or FinalizeDrained().
  bool drained() const { return drained_; }
  // Sim time the rollout ran dry (-1 while it has work).
  SimTime drained_at() const { return drained_at_; }

  // Aggregate (drain + transplant) cost of every unstarted host — the
  // numerator of the shard's remaining-work estimate.
  SimDuration PendingWork() const;

  // Fault domains whose every live member is still unstarted, in ascending
  // domain order — the racks a barrier steal may re-home without ever
  // splitting one across shards.
  std::vector<StealableDomain> StealableDomains() const;

  // Re-homes the whole (fully-unstarted) domain out of this controller: hosts
  // become kDetached and leave the pending queue and the report totals. No
  // exposure delta is recorded: ownership moves, exposure does not change.
  DetachedRack DetachDomain(int domain);

  // Adopts a stolen rack as a fresh fault domain: new hosts appended with the
  // rack's per-host durations and travelling RNG streams, queued behind the
  // existing pending work. Restarts the wave loop if the rollout was drained.
  void AdoptHosts(const DetachedRack& rack);

  // Finalizes a drained hold-open rollout as complete, with the makespan
  // (and the rollout span's end) stamped at drained_at() — the instant the
  // last work finished — not at the barrier that got around to calling this.
  void FinalizeDrained();

 private:
  // Records a transition in the FleetTrace and, with a tracer, applies its
  // span rule (kSpanRules): the one writer of both.
  void Emit(FleetEventType type, int host, int attempt = 0);
  void StartNextWave();
  void StartDrain(int host);
  void StartTransplant(int host);
  void FinishAttempt(int host);
  // Post-pause recovery resolution: the host either returns to serving the
  // source hypervisor (then retries like any failed attempt) or is lost.
  void FinishRollback(int host);
  // Shared tail of every recoverable failure: retry with backoff while the
  // budget lasts, else park the host in kFailed.
  void ScheduleRetryOrFail(int host);
  void HostDone(int host);
  // Records that `hosts` more hosts are exposed as of now (negative: fewer),
  // coalesced per instant, for TakeExposureDeltas().
  void ChangeExposure(int hosts);
  // Hosts neither upgraded, failed, lost nor refused: the rest of the books.
  void SettleUntouched();
  void Finalize(FleetEventType terminal);
  // Per-host durations: adopted hosts carry their origin rack's (DC-scaled)
  // timings; native hosts use the config (or policy plan) values.
  SimDuration HostDrainTime(int host) const;
  SimDuration HostTransplantTime(int host) const;
  // ReHype-mode crash recovery (active only when config_.crash_storm is
  // enabled). Crash arrivals draw from storm_rng_, recovery durations and
  // outcome draws from the struck host's own rng.
  void ScheduleNextCrash();
  void CrashEvent();
  void CrashHost(int host);
  CrashLedgerState SampleCrashLedgerState();
  void TryStartRecoveries();
  void StartRecovery(int host);
  void FinishRecovery(int host);
  // Permanently retires a crashed host (VMs lost). `ledger_data_loss` marks
  // losses where the ledger itself refused every salvage, as opposed to a
  // recovery budget running out or a fleet configured not to recover.
  void LoseHost(int host, bool ledger_data_loss);
  // Finalizes kRolloutComplete once no upgrade *and* no recovery work remains.
  void MaybeFinishRollout();
  SimDuration Jittered(SimDuration base, Rng& rng);
  // Wraps a member-call closure with a liveness guard so events left queued
  // after an abort (or controller destruction) dispatch as no-ops.
  std::function<void()> Guarded(void (FleetController::*method)(int), int host);
  std::function<void()> Guarded(void (FleetController::*method)());

  SimExecutor& executor_;
  FleetConfig config_;
  std::optional<Error> config_error_;
  // Adaptive mechanism policy (engaged when config_.policy.mode == kAdaptive):
  // per-host plans are computed once at construction from each host's global
  // id — pure functions of config, so any partition of the fleet agrees.
  std::optional<policy::MechanismPolicy> policy_;
  std::vector<policy::HostPolicyPlan> host_plans_;
  std::vector<FleetHost> hosts_;
  std::vector<Rng> host_rngs_;  // Forked in id order: interleaving-independent.
  FleetTrace trace_;
  FleetRolloutReport report_;
  std::shared_ptr<bool> alive_;
  // Span bookkeeping, written only by Emit() (all 0 without a tracer).
  SpanId rollout_span_ = 0;
  SpanId wave_span_ = 0;
  std::vector<SpanId> host_spans_;  // The one open span per host.

  std::deque<int> pending_;
  // Work-stealing state (hold_open mode): live fault-domain count (grows as
  // racks are adopted), the drained-but-not-finalized flag/instant, and the
  // per-host duration overrides (empty until the first adoption; then entry i
  // is host i's duration — adopted hosts differ from the config values).
  int fault_domain_count_ = 1;
  bool drained_ = false;
  SimTime drained_at_ = -1;
  std::vector<SimDuration> host_drain_override_;
  std::vector<SimDuration> host_transplant_override_;
  // Crash-storm state: a dedicated RNG stream (forked after every host stream
  // on every run, so no host draw depends on the storm), the queue of crashed
  // hosts awaiting an unplanned recovery, how many recoveries hold worker
  // slots, and when the storm window closes (-1 = open-ended).
  Rng storm_rng_{0};
  std::deque<int> recovery_queue_;
  int recovering_ = 0;
  SimTime storm_end_ = -1;
  int wave_ = -1;
  int wave_in_flight_ = 0;
  SimTime wave_started_ = 0;
  SimTime base_ = 0;
  std::vector<ExposureDelta> exposure_deltas_;
  bool started_ = false;
  bool finished_ = false;
};

}  // namespace hypertp

#endif  // HYPERTP_SRC_FLEET_FLEET_CONTROLLER_H_
