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

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/base/result.h"
#include "src/fleet/fleet_trace.h"
#include "src/fleet/fleet_types.h"
#include "src/obs/trace.h"
#include "src/sim/executor.h"
#include "src/sim/id_fifo.h"
#include "src/sim/rank_index.h"
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

// Rejects degenerate rollout knobs with errors naming `<owner>::<field>`:
// max_retries >= 0, durations non-negative, probabilities inside [0, 1], the
// jitter sigma and abort_threshold non-negative (>= 1.0 disables the abort),
// and a valid policy.
Result<void> ValidateRolloutKnobs(const RolloutKnobs& knobs, std::string_view owner);
// The same for a crash storm, fields named `crash_storm.<field>`.
Result<void> ValidateCrashStorm(const CrashStormConfig& storm, std::string_view owner);

// Rejects degenerate configurations with a field-naming kInvalidArgument
// instead of the silent clamping the controller used to do: hosts,
// parallel_hosts and fault_domains must be positive, and the knobs and
// storm must pass the validators above (owner "FleetConfig").
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
// every live member is queued with zero attempts or refused, and `work` is
// the queued members' drain + transplant, each under its own plan.
struct StealableDomain {
  int domain = 0;
  SimDuration work = 0;
};

// A rack in flight between two controllers: DetachDomain() produces it,
// AdoptHosts() consumes it. Each host carries its plan and RNG stream, so its
// timings, tallies and draws are a function of the steal plan, not of which
// controller happens to schedule it — deterministic for any thread count.
struct DetachedRack {
  struct Host {
    policy::HostPolicyPlan plan;
    Rng rng;
  };
  std::vector<Host> hosts;  // In the donor's id order.
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
  // The plan host `host` runs under: its drain and transplant durations, its
  // per-VM decisions and whether it is refused.
  const policy::HostPolicyPlan& HostPlan(int host) const {
    return plans_[plan_index_[static_cast<size_t>(host)]];
  }
  const FleetConfig& config() const { return config_; }

  // The closure of every event the controller schedules: which event method
  // to run, for which host (-1: none). Trivially copyable and two words, so
  // std::function stores it inline and no fleet event allocates.
  struct EventCall {
    enum class Op : uint8_t {
      kStartNextWave, kStartTransplant, kFinishAttempt, kFinishRollback,
      kScheduleNextCrash, kCrashEvent, kStartRecovery, kFinishRecovery
    };
    FleetController* controller = nullptr;
    int host = -1;
    Op op = Op::kStartNextWave;
    void operator()() const { controller->Dispatch(op, host); }
  };

  // --- Campaign work-stealing surface (FleetConfig::hold_open mode). All of
  // these are coordinator-only calls, made strictly at epoch barriers while
  // no shard is advancing, so they need no synchronization.

  // True when the rollout ran dry under hold_open: no pending, in-flight or
  // recovery work, but not finalized — awaiting adoption or FinalizeDrained().
  bool drained() const { return drained_; }
  // Sim time the rollout ran dry (-1 while it has work).
  SimTime drained_at() const { return drained_at_; }

  // Aggregate (drain + transplant) cost of every unstarted host — the
  // numerator of the shard's remaining-work estimate. A running sum, O(1).
  SimDuration PendingWork() const { return pending_work_; }

  // Fault domains whose every live member is unstarted and that hold queued
  // work, in ascending domain order — the racks a barrier steal may re-home
  // without ever splitting one across shards. Requires no crash storm.
  std::vector<StealableDomain> StealableDomains() const;

  // Re-homes the whole (fully-unstarted) domain out of this controller: hosts
  // become kDetached and leave the pending queue and the report totals. No
  // exposure delta is recorded: ownership moves, exposure does not change.
  DetachedRack DetachDomain(int domain);

  // Adopts a stolen rack as a fresh fault domain: its hosts are appended with
  // their plans and RNG streams and, unless refused, queued behind the
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
  // The one writer of a host's state; keeps the victim index current.
  void SetState(int host, FleetHostState state);
  // Queues `host` for a wave / takes it out of the queue (a no-op when it is
  // not queued), keeping PendingWork() and the victim index current.
  void Enqueue(int host);
  void Unqueue(int host);
  // Re-derives whether `host` is a crash candidate — serving, and upgraded or
  // queued — into victims_. A no-op without a storm, and held back while a
  // burst strikes (CrashEvent() re-derives its victims once it ends).
  void Reindex(int host);
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
  void HostDone();
  // Records that `hosts` more hosts are exposed as of now (negative: fewer),
  // coalesced per instant, for TakeExposureDeltas().
  void ChangeExposure(int hosts);
  // Hosts neither upgraded, failed, lost nor refused: the rest of the books.
  void SettleUntouched();
  void Finalize(FleetEventType terminal);
  // Adds (sign +1) or removes (-1) a host's refusal and VM decision tallies.
  void TallyPlan(const policy::HostPolicyPlan& plan, int sign);
  // The plans_ entry equal to `plan`, appended when new.
  uint16_t PlanIndex(const policy::HostPolicyPlan& plan);
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
  // Schedules event `op` for `host` `delay` from now, tagged with owner_.
  void Schedule(SimDuration delay, EventCall::Op op, int host = -1);
  // Runs one scheduled event; a no-op once the rollout has finished.
  void Dispatch(EventCall::Op op, int host);

  SimExecutor& executor_;
  FleetConfig config_;
  std::optional<Error> config_error_;
  // The plan table: host h runs under plans_[plan_index_[h]]. A fixed-policy
  // controller starts with one entry (the configured timings, zero VM
  // tallies); an adaptive one with one period of MechanismPolicy::PlanHost
  // (at most kSyntheticVmPeriod entries, indexed by global id mod the
  // period). Adopted hosts bring their own plans, deduplicated. The index is
  // a dense vector, not a FleetHost field: StealableDomains() scans it per
  // barrier.
  std::vector<policy::HostPolicyPlan> plans_;
  std::vector<uint16_t> plan_index_;
  std::vector<FleetHost> hosts_;
  std::vector<Rng> host_rngs_;  // Forked in id order: interleaving-independent.
  FleetTrace trace_;
  FleetRolloutReport report_;
  SimExecutor::Owner owner_;  // Tags our events; the destructor disowns them.
  // Span bookkeeping, written only by Emit() (all 0 without a tracer).
  SpanId rollout_span_ = 0;
  SpanId wave_span_ = 0;
  std::vector<SpanId> host_spans_;  // The one open span per host; tracer only.

  // Hosts awaiting an upgrade wave, first come first served, and the sum of
  // their drain + transplant times.
  IdFifo pending_;
  SimDuration pending_work_ = 0;
  // Work-stealing state (hold_open mode): live fault-domain count (grows as
  // racks are adopted) and the drained-but-not-finalized flag/instant.
  int fault_domain_count_ = 1;
  bool drained_ = false;
  SimTime drained_at_ = -1;
  // Crash-storm state: a dedicated RNG stream (forked after every host stream
  // on every run, so no host draw depends on the storm), the queue of crashed
  // hosts awaiting an unplanned recovery, how many recoveries hold worker
  // slots, and when the storm window closes (-1 = open-ended).
  Rng storm_rng_{0};
  std::deque<int> recovery_queue_;
  int recovering_ = 0;
  SimTime storm_end_ = -1;
  // The hosts a crash may strike, kept exact by Reindex(), and one burst's
  // scratch (CrashEvent): its (position, host) overrides and its victims.
  RankIndex victims_;
  std::vector<std::pair<int, int>> burst_moves_;
  std::vector<int> struck_;
  bool burst_open_ = false;
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
