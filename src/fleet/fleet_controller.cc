#include "src/fleet/fleet_controller.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <utility>

#include "src/base/json.h"
#include "src/base/logging.h"

namespace hypertp {
namespace {

// What a fleet event does to the tracer's spans: the whole span vocabulary
// of the controller in one table, indexed by FleetEventType.
enum class SpanOp : uint8_t {
  kNone,
  kBeginRollout,  // Opens "fleet_rollout" (hosts, parallel_hosts).
  kEndRollout,    // Closes every open span at the rollout's end; `label` is
                  // the rollout's outcome.
  kBeginWave,     // Opens "wave-<n>" on track "waves" (hosts_in_wave).
  kEndWave,
  kOpenHost,      // Closes the host's open span and opens `label`.
  kCloseHost,     // Tags the host's open span outcome=`label` and closes it.
};

struct SpanRule {
  constexpr SpanRule(SpanOp op, std::string_view label = {}, bool attempt = false)
      : op(op), label(label), attempt(attempt) {}

  SpanOp op;
  std::string_view label;
  bool attempt;  // kOpenHost: tag the span with the event's attempt.
};

constexpr SpanRule kSpanRules[] = {
    {SpanOp::kBeginRollout},                  // kRolloutStart
    {SpanOp::kBeginWave},                     // kWaveStart
    {SpanOp::kOpenHost, "drain"},             // kDrainStart
    {SpanOp::kOpenHost, "transplant", true},  // kTransplantStart
    {SpanOp::kCloseHost, "upgraded"},         // kTransplantDone
    {SpanOp::kCloseHost, "failed"},           // kTransplantFailed
    {SpanOp::kNone},                          // kRetryScheduled
    {SpanOp::kNone},                          // kHostFailed
    {SpanOp::kEndWave},                       // kWaveDone
    {SpanOp::kEndRollout, "complete"},        // kRolloutComplete
    {SpanOp::kEndRollout, "aborted"},         // kRolloutAborted
    {SpanOp::kOpenHost, "rollback"},          // kRollbackStart
    {SpanOp::kCloseHost, "recovered"},        // kRollbackSucceeded
    {SpanOp::kCloseHost, "lost"},             // kRollbackFailed
    {SpanOp::kOpenHost, "crashed"},           // kHostCrashed
    {SpanOp::kOpenHost, "recover", true},     // kRecoveryStart
    {SpanOp::kOpenHost, "recovery_backoff"},  // kRecoveryRetry
    {SpanOp::kCloseHost, "recovered"},        // kRecoveryDone
    {SpanOp::kNone},                          // kCrashRollback
    {SpanOp::kCloseHost, "lost"},             // kHostLost
    {SpanOp::kNone},                          // kHostRefused
    {SpanOp::kNone},                          // kHostDetached
    {SpanOp::kNone},                          // kHostsAdopted
};
static_assert(std::size(kSpanRules) == static_cast<size_t>(FleetEventType::kHostsAdopted) + 1,
              "one span rule per FleetEventType");

}  // namespace

std::string FleetRolloutReportToJson(const FleetRolloutReport& report) {
  JsonWriter j;
  j.BeginObject();
  j.Key("kind").String("fleet_rollout");
  j.Key("hosts").Number(static_cast<int64_t>(report.hosts));
  j.Key("upgraded").Number(static_cast<int64_t>(report.upgraded));
  j.Key("failed").Number(static_cast<int64_t>(report.failed));
  j.Key("untouched").Number(static_cast<int64_t>(report.untouched));
  j.Key("retries").Number(static_cast<int64_t>(report.retries));
  j.Key("transplant_successes").Number(static_cast<int64_t>(report.transplant_successes));
  j.Key("waves").Number(static_cast<int64_t>(report.waves));
  j.Key("post_pause_faults").Number(static_cast<int64_t>(report.post_pause_faults));
  j.Key("rollbacks").Number(static_cast<int64_t>(report.rollbacks));
  j.Key("rollback_failures").Number(static_cast<int64_t>(report.rollback_failures));
  j.Key("crashes").Number(static_cast<int64_t>(report.crashes));
  j.Key("crash_salvages").Number(static_cast<int64_t>(report.crash_salvages));
  j.Key("crash_live_recoveries").Number(static_cast<int64_t>(report.crash_live_recoveries));
  j.Key("crash_rollbacks").Number(static_cast<int64_t>(report.crash_rollbacks));
  j.Key("crash_upgrades").Number(static_cast<int64_t>(report.crash_upgrades));
  j.Key("crash_data_loss").Number(static_cast<int64_t>(report.crash_data_loss));
  j.Key("crash_recovery_retries").Number(static_cast<int64_t>(report.crash_recovery_retries));
  j.Key("lost").Number(static_cast<int64_t>(report.lost));
  j.Key("refused").Number(static_cast<int64_t>(report.refused));
  j.Key("policy").BeginObject();
  j.Key("mode").String(report.policy_adaptive ? "adaptive" : "fixed");
  j.Key("inplace_vms").Number(static_cast<int64_t>(report.policy_inplace_vms));
  j.Key("migrate_vms").Number(static_cast<int64_t>(report.policy_migrate_vms));
  j.Key("refused_vms").Number(static_cast<int64_t>(report.policy_refused_vms));
  j.Key("vm_downtime_ms").Number(ToMillis(report.policy_vm_downtime));
  j.EndObject();
  j.Key("aborted").Bool(report.aborted);
  j.Key("complete").Bool(report.complete);
  j.Key("makespan_ms").Number(ToMillis(report.makespan));
  j.Key("wave_latency_seconds").BeginObject();
  j.Key("count").Number(static_cast<uint64_t>(report.wave_latency_seconds.count()));
  if (!report.wave_latency_seconds.empty()) {
    j.Key("p50").Number(report.wave_latency_seconds.Percentile(50));
    j.Key("p90").Number(report.wave_latency_seconds.Percentile(90));
    j.Key("p99").Number(report.wave_latency_seconds.Percentile(99));
    j.Key("max").Number(report.wave_latency_seconds.max());
  }
  j.EndObject();
  j.Key("recovery_latency_seconds").BeginObject();
  j.Key("count").Number(static_cast<uint64_t>(report.recovery_latency_seconds.count()));
  if (!report.recovery_latency_seconds.empty()) {
    j.Key("p50").Number(report.recovery_latency_seconds.Percentile(50));
    j.Key("p90").Number(report.recovery_latency_seconds.Percentile(90));
    j.Key("p99").Number(report.recovery_latency_seconds.Percentile(99));
    j.Key("max").Number(report.recovery_latency_seconds.max());
  }
  j.EndObject();
  j.EndObject();
  return j.Take();
}

RolloutTally& RolloutTally::operator+=(const RolloutTally& other) {
  hosts += other.hosts;
  upgraded += other.upgraded;
  failed += other.failed;
  untouched += other.untouched;
  retries += other.retries;
  transplant_successes += other.transplant_successes;
  waves += other.waves;
  post_pause_faults += other.post_pause_faults;
  rollbacks += other.rollbacks;
  rollback_failures += other.rollback_failures;
  crashes += other.crashes;
  crash_salvages += other.crash_salvages;
  crash_live_recoveries += other.crash_live_recoveries;
  crash_rollbacks += other.crash_rollbacks;
  crash_upgrades += other.crash_upgrades;
  crash_data_loss += other.crash_data_loss;
  crash_recovery_retries += other.crash_recovery_retries;
  lost += other.lost;
  refused += other.refused;
  policy_inplace_vms += other.policy_inplace_vms;
  policy_migrate_vms += other.policy_migrate_vms;
  policy_refused_vms += other.policy_refused_vms;
  policy_vm_downtime += other.policy_vm_downtime;
  return *this;
}

Result<void> ValidateRolloutKnobs(const RolloutKnobs& knobs, std::string_view owner) {
  const std::string prefix = std::string(owner) + "::";
  if (knobs.max_retries < 0) {
    return InvalidFieldError(prefix, "max_retries", ">= 0", std::to_string(knobs.max_retries));
  }
  HYPERTP_RETURN_IF_ERROR(
      CheckDurations(prefix, {{"drain_time", knobs.drain_time},
                              {"per_host_transplant", knobs.per_host_transplant},
                              {"retry_backoff", knobs.retry_backoff},
                              {"rollback_time", knobs.rollback_time}}));
  HYPERTP_RETURN_IF_ERROR(CheckUnitRange(
      prefix, "probability",
      {{"failure_probability", knobs.failure_probability},
       {"post_pause_fraction", knobs.post_pause_fraction},
       {"rollback_failure_probability", knobs.rollback_failure_probability}}));
  // An abort_threshold >= 1.0 just disables the abort.
  for (const auto& [field, v] : NamedFields<double>{{"abort_threshold", knobs.abort_threshold},
                                                    {"latency_jitter", knobs.latency_jitter}}) {
    if (!(v >= 0.0)) return InvalidFieldError(prefix, field, ">= 0", std::to_string(v));
  }
  return policy::ValidatePolicyConfig(knobs.policy, prefix + "policy.");
}

Result<void> ValidateCrashStorm(const CrashStormConfig& storm, std::string_view owner) {
  const std::string prefix = std::string(owner) + "::crash_storm.";
  if (!(storm.rate_per_hour >= 0.0) || !std::isfinite(storm.rate_per_hour)) {
    return InvalidFieldError(prefix, "rate_per_hour", "finite and >= 0",
                             std::to_string(storm.rate_per_hour));
  }
  if (!storm.enabled()) {
    return OkResult();
  }
  if (storm.burst < 1) {
    return InvalidFieldError(prefix, "burst", ">= 1", std::to_string(storm.burst));
  }
  if (storm.recovery_max_retries < 0) {
    return InvalidFieldError(prefix, "recovery_max_retries", ">= 0",
                             std::to_string(storm.recovery_max_retries));
  }
  HYPERTP_RETURN_IF_ERROR(CheckDurations(prefix, {{"start", storm.start},
                                                  {"duration", storm.duration},
                                                  {"recovery_time", storm.recovery_time},
                                                  {"recovery_backoff", storm.recovery_backoff}}));
  HYPERTP_RETURN_IF_ERROR(
      CheckUnitRange(prefix, "probability",
                     {{"pre_pause_fraction", storm.pre_pause_fraction},
                      {"mid_save_torn_fraction", storm.mid_save_torn_fraction},
                      {"stale_commit_fraction", storm.stale_commit_fraction},
                      {"scrubbed_fraction", storm.scrubbed_fraction},
                      {"recovery_failure_probability", storm.recovery_failure_probability},
                      {"cross_kind_fraction", storm.cross_kind_fraction}}));
  const double mix = storm.pre_pause_fraction + storm.mid_save_torn_fraction +
                     storm.stale_commit_fraction + storm.scrubbed_fraction;
  if (mix > 1.0) {
    return InvalidArgumentError(std::string(owner) +
                                "::crash_storm ledger-state fractions must sum to <= 1, got " +
                                std::to_string(mix));
  }
  return OkResult();
}

Result<void> ValidateFleetConfig(const FleetConfig& config) {
  HYPERTP_RETURN_IF_ERROR(CheckPositive("FleetConfig::",
                                        {{"hosts", config.hosts},
                                         {"parallel_hosts", config.parallel_hosts},
                                         {"fault_domains", config.fault_domains}}));
  if (config.max_per_domain_in_flight < 0) {
    return InvalidFieldError("FleetConfig::", "max_per_domain_in_flight", ">= 0",
                             std::to_string(config.max_per_domain_in_flight));
  }
  if (config.trace_capacity == 0) {
    return InvalidArgumentError("FleetConfig::trace_capacity must be > 0");
  }
  HYPERTP_RETURN_IF_ERROR(ValidateRolloutKnobs(config, "FleetConfig"));
  HYPERTP_RETURN_IF_ERROR(ValidateCrashStorm(config.crash_storm, "FleetConfig"));
  if (!config.policy_host_global_ids.empty()) {
    if (static_cast<int>(config.policy_host_global_ids.size()) != config.hosts) {
      return InvalidArgumentError(
          "FleetConfig::policy_host_global_ids must be empty or have one entry per host, got " +
          std::to_string(config.policy_host_global_ids.size()) + " for " +
          std::to_string(config.hosts) + " hosts");
    }
    for (int64_t id : config.policy_host_global_ids) {
      if (id < 0) {
        return InvalidArgumentError("FleetConfig::policy_host_global_ids must be >= 0, got " +
                                    std::to_string(id));
      }
    }
  }
  return OkResult();
}

FleetController::FleetController(SimExecutor& executor, FleetConfig config)
    : executor_(executor),
      config_(std::move(config)),
      trace_(std::max<size_t>(config_.trace_capacity, 1)),
      owner_(executor.NewOwner()) {
  if (Result<void> valid = ValidateFleetConfig(config_); !valid.ok()) {
    config_error_ = valid.error();
    finished_ = true;  // Inert: Start()/Run() have nothing to execute.
    HYPERTP_LOG(kError, "fleet") << "rejected config: " << config_error_->ToString();
    return;
  }

  // Plan table: the fixed policy is one plan of the configured timings; the
  // adaptive one prices every host up front. Plans are pure functions of
  // (PolicyConfig, global host id, env) — no RNG — so the decision set is
  // identical however the fleet is partitioned or scheduled. They repeat with
  // period HostPlanPeriod() in the global id, so one period is priced and
  // each host records only its phase into it.
  if (config_.policy.adaptive()) {
    const policy::MechanismPolicy policy(config_.policy);
    policy::EnvSignals env;
    env.link_gbps = config_.policy.link_gbps;
    env.host_headroom = config_.policy.host_headroom;
    env.rollback_risk =
        policy::LedgerRollbackRisk(config_.failure_probability, config_.post_pause_fraction);
    env.migration_overhead = config_.policy.migration_overhead;
    for (int phase = 0; phase < policy.HostPlanPeriod(); ++phase) {
      plans_.push_back(policy.PlanHost(phase, env, config_.per_host_transplant,
                                       config_.drain_time, /*conversion_workers=*/1));
    }
    report_.policy_adaptive = true;
  } else {
    policy::HostPolicyPlan fixed;
    fixed.drain_time = config_.drain_time;
    fixed.transplant_time = config_.per_host_transplant;
    plans_.push_back(fixed);
  }
  const auto period = static_cast<int64_t>(plans_.size());

  fault_domain_count_ = config_.fault_domains;
  domain_tallies_.resize(static_cast<size_t>(config_.fault_domains));
  hosts_.reserve(static_cast<size_t>(config_.hosts));
  host_rngs_.reserve(static_cast<size_t>(config_.hosts));
  if (config_.tracer != nullptr) {
    host_spans_.resize(static_cast<size_t>(config_.hosts), 0);
  }
  pending_.Resize(config_.hosts);
  plan_index_.reserve(static_cast<size_t>(config_.hosts));
  Rng root(config_.seed);
  for (int i = 0; i < config_.hosts; ++i) {
    FleetHost host;
    host.fault_domain = i % config_.fault_domains;
    const int64_t global_id = config_.policy_host_global_ids.empty()
                                  ? i
                                  : config_.policy_host_global_ids[static_cast<size_t>(i)];
    plan_index_.push_back(static_cast<uint16_t>(global_id % period));
    hosts_.push_back(host);
    TallyPlan(HostPlan(i), +1);
    // One stream per host, forked in id order: a host's failure/jitter draws
    // never depend on how the waves interleave.
    host_rngs_.push_back(root.Fork());
  }
  // The storm stream forks *after* every host stream and `root` draws
  // nothing more, so no host draw depends on whether a storm is configured.
  storm_rng_ = root.Fork();
  report_.hosts = config_.hosts;
  // The global ids live on only as plan_index_; free their 8 bytes a host.
  std::vector<int64_t>().swap(config_.policy_host_global_ids);
}

FleetController::~FleetController() { executor_.Disown(owner_); }

void FleetController::Schedule(SimDuration delay, EventCall::Op op, int host) {
  executor_.ScheduleAfter(delay, EventCall{this, host, op}, owner_);
}

void FleetController::Dispatch(EventCall::Op op, int host) {
  if (finished_) {
    return;  // Stale event from an aborted rollout.
  }
  switch (op) {
    case EventCall::Op::kStartNextWave:
      return StartNextWave();
    case EventCall::Op::kStartTransplant:
      return StartTransplant(host);
    case EventCall::Op::kFinishAttempt:
      return FinishAttempt(host);
    case EventCall::Op::kFinishRollback:
      return FinishRollback(host);
    case EventCall::Op::kScheduleNextCrash:
      return ScheduleNextCrash();
    case EventCall::Op::kCrashEvent:
      return CrashEvent();
    case EventCall::Op::kStartRecovery:
      return StartRecovery(host);
    case EventCall::Op::kFinishRecovery:
      return FinishRecovery(host);
  }
}

const FleetRolloutReport& FleetController::Run() {
  Start();
  if (!finished_) {
    executor_.Run();
  }
  return report_;
}

void FleetController::Abort() {
  if (finished_) {
    return;
  }
  if (!started_) {
    // Aborted before the rollout ever scheduled: nothing ran, every host the
    // policy did not refuse is untouched, and no events exist to finalize
    // against.
    finished_ = true;
    SettleUntouched();
    report_.aborted = true;
    return;
  }
  Finalize(FleetEventType::kRolloutAborted);
}

void FleetController::Start() {
  if (finished_ || started_) {
    return;
  }
  started_ = true;
  base_ = executor_.now();
  Emit(FleetEventType::kRolloutStart, -1);
  for (int i = 0; i < config_.hosts; ++i) {
    // A host with a refused guest never enters the rollout: it keeps serving
    // the vulnerable hypervisor (and keeps accruing exposure). Emitted in id
    // order, before any wave work, so the trace is partition-independent.
    if (HostPlan(i).refused()) {
      Emit(FleetEventType::kHostRefused, i);
    }
  }
  if (config_.crash_storm.enabled()) {
    victims_.Resize(config_.hosts);
    crash_records_.resize(static_cast<size_t>(config_.hosts));
    burst_moves_.reserve(static_cast<size_t>(config_.crash_storm.burst));
    struck_.reserve(static_cast<size_t>(config_.crash_storm.burst));
  }
  // Id order, or in work-stealing mode domain-major (host i is in domain
  // i % fault_domains), so waves pack into the lowest racks and whole high
  // racks stay fully unstarted — the unit a barrier steal can re-home.
  const int stride = config_.hold_open ? config_.fault_domains : 1;
  for (int domain = 0; domain < stride; ++domain) {
    for (int i = domain; i < config_.hosts; i += stride) {
      if (!HostPlan(i).refused()) {
        Enqueue(i);
      }
    }
  }
  if (config_.crash_storm.enabled()) {
    const CrashStormConfig& storm = config_.crash_storm;
    storm_end_ = storm.duration > 0 ? base_ + storm.start + storm.duration : -1;
    Schedule(storm.start, EventCall::Op::kScheduleNextCrash);
  }
  Schedule(0, EventCall::Op::kStartNextWave);
}

void FleetController::Emit(FleetEventType type, int host, int attempt) {
  const SimTime now = executor_.now();
  trace_.Record(FleetEvent{now, type, host, wave_, attempt});
  Tracer* const tracer = config_.tracer;
  if (tracer == nullptr) {
    return;
  }
  const SpanRule& rule = kSpanRules[static_cast<size_t>(type)];
  switch (rule.op) {
    case SpanOp::kNone:
      return;
    case SpanOp::kBeginRollout:
      rollout_span_ = tracer->BeginSpan("fleet_rollout", now);
      tracer->SetAttribute(rollout_span_, "hosts", static_cast<int64_t>(config_.hosts));
      tracer->SetAttribute(rollout_span_, "parallel_hosts",
                           static_cast<int64_t>(config_.parallel_hosts));
      return;
    case SpanOp::kEndRollout: {
      // An abort leaves in-flight hosts mid-state: close their spans where
      // the rollout stopped, so every track ends at the rollout's end (for a
      // drained hold-open rollout, its drain instant, not the barrier).
      const SimTime end = base_ + report_.makespan;
      for (SpanId& slot : host_spans_) {
        tracer->EndSpan(slot, end);
        slot = 0;
      }
      tracer->EndSpan(wave_span_, end);
      wave_span_ = 0;
      tracer->SetAttribute(rollout_span_, "upgraded", static_cast<int64_t>(report_.upgraded));
      tracer->SetAttribute(rollout_span_, "failed", static_cast<int64_t>(report_.failed));
      tracer->SetAttribute(rollout_span_, "outcome", rule.label);
      tracer->EndSpan(rollout_span_, end);
      return;
    }
    case SpanOp::kBeginWave:
      wave_span_ = tracer->BeginSpan("wave-" + std::to_string(wave_), now, rollout_span_, "waves");
      tracer->SetAttribute(wave_span_, "hosts_in_wave", static_cast<int64_t>(wave_in_flight_));
      return;
    case SpanOp::kEndWave:
      tracer->EndSpan(wave_span_, now);
      wave_span_ = 0;
      return;
    case SpanOp::kOpenHost: {
      SpanId& slot = host_spans_[static_cast<size_t>(host)];
      tracer->EndSpan(slot, now);
      slot = tracer->BeginSpan(rule.label, now, rollout_span_, "host-" + std::to_string(host));
      if (rule.attempt) {
        tracer->SetAttribute(slot, "attempt", static_cast<int64_t>(attempt));
      }
      return;
    }
    case SpanOp::kCloseHost: {
      SpanId& slot = host_spans_[static_cast<size_t>(host)];
      tracer->SetAttribute(slot, "outcome", rule.label);
      tracer->EndSpan(slot, now);
      slot = 0;
      return;
    }
  }
}

namespace {

// A live host that left the untouched state: out of kServing, upgraded, or
// past a transplant attempt. Detached hosts belong to no domain's tally.
bool Started(const FleetHost& h) {
  return h.state != FleetHostState::kDetached &&
         (h.state != FleetHostState::kServing || h.upgraded || h.attempts != 0);
}

// Out of service: the hosts the campaign's unavailability budget counts.
bool Unavailable(FleetHostState state) {
  return state == FleetHostState::kDraining || state == FleetHostState::kTransplanting ||
         state == FleetHostState::kRollingBack || state == FleetHostState::kCrashed ||
         state == FleetHostState::kRecovering;
}

}  // namespace

void FleetController::SetState(int host, FleetHostState state) {
  FleetHost& h = hosts_[static_cast<size_t>(host)];
  // `upgraded` and `attempts` only change while a host is out of kServing,
  // where it counts as started either way, so Started() before the write
  // is what the tally holds for it.
  const bool was_started = Started(h);
  unavailable_ -= Unavailable(h.state);
  h.state = state;
  domain_tallies_[static_cast<size_t>(h.fault_domain)].started += Started(h) - was_started;
  unavailable_ += Unavailable(state);
  Reindex(host);
}

void FleetController::Enqueue(int host) {
  pending_.PushBack(host);
  const policy::HostPolicyPlan& plan = HostPlan(host);
  const SimDuration work = plan.drain_time + plan.transplant_time;
  pending_work_ += work;
  const int domain = hosts_[static_cast<size_t>(host)].fault_domain;
  DomainTally& tally = domain_tallies_[static_cast<size_t>(domain)];
  ++tally.queued;
  tally.work += work;
  Reindex(host);
}

void FleetController::Unqueue(int host) {
  if (!pending_.Contains(host)) {
    return;
  }
  pending_.Erase(host);
  const policy::HostPolicyPlan& plan = HostPlan(host);
  const SimDuration work = plan.drain_time + plan.transplant_time;
  pending_work_ -= work;
  const int domain = hosts_[static_cast<size_t>(host)].fault_domain;
  DomainTally& tally = domain_tallies_[static_cast<size_t>(domain)];
  --tally.queued;
  tally.work -= work;
  Reindex(host);
}

void FleetController::Reindex(int host) {
  if (!config_.crash_storm.enabled() || burst_open_) {
    return;
  }
  const FleetHost& h = hosts_[static_cast<size_t>(host)];
  victims_.Set(host, h.state == FleetHostState::kServing && (h.upgraded || pending_.Contains(host)));
}

void FleetController::StartNextWave() {
  // One wave chain: a wave is composed only once the last one is done. A
  // recovery that completes while a pacer hold is queued composes the wave
  // itself (its freed slot goes to upgrade work); the held event then finds
  // that wave in flight and is stale, and the wave's end composes the next.
  if (wave_in_flight_ > 0) {
    return;
  }
  if (pending_.empty()) {
    MaybeFinishRollout();
    return;
  }
  // External admission gate (campaign SLO governor): a positive hold defers
  // the whole wave and re-consults the gate when the hold expires.
  if (config_.wave_pacer) {
    const SimDuration hold = config_.wave_pacer(wave_ + 1, executor_.now());
    if (hold > 0) {
      Schedule(hold, EventCall::Op::kStartNextWave);
      return;
    }
  }
  // Unplanned recoveries hold worker slots with priority over upgrade work:
  // the wave only gets what the storm left over. A zero width is fine —
  // recovery completions re-trigger wave scheduling.
  const int width = config_.parallel_hosts - recovering_;
  if (width <= 0) {
    return;
  }
  // Compose the wave: first-come order under the width and per-fault-domain
  // caps. Deferred hosts keep their queue position for the next wave.
  std::vector<int> wave_hosts;
  wave_hosts.reserve(static_cast<size_t>(width));
  std::vector<int> domain_in_flight(static_cast<size_t>(fault_domain_count_), 0);
  for (int host = pending_.front();
       host != IdFifo::kNone && static_cast<int>(wave_hosts.size()) < width;) {
    const int next = pending_.next(host);
    int& domain_count = domain_in_flight[static_cast<size_t>(hosts_[host].fault_domain)];
    if (config_.max_per_domain_in_flight == 0 ||
        domain_count < config_.max_per_domain_in_flight) {
      ++domain_count;
      wave_hosts.push_back(host);
      Unqueue(host);
    }
    host = next;
  }
  ++wave_;
  ++report_.waves;
  wave_started_ = executor_.now();
  wave_in_flight_ = static_cast<int>(wave_hosts.size());
  Emit(FleetEventType::kWaveStart, -1);
  // Per-wave policy decision marker: what the adaptive policy resolved for
  // this wave's guests (summed over the wave's hosts).
  if (report_.policy_adaptive && config_.tracer != nullptr) {
    int64_t wave_inplace = 0;
    int64_t wave_migrate = 0;
    for (int host : wave_hosts) {
      wave_inplace += HostPlan(host).inplace_vms;
      wave_migrate += HostPlan(host).migrate_vms;
    }
    const SpanId mark = config_.tracer->AddInstant("policy:decision", executor_.now(), "policy");
    config_.tracer->SetAttribute(mark, "wave", static_cast<int64_t>(wave_));
    config_.tracer->SetAttribute(mark, "inplace_vms", wave_inplace);
    config_.tracer->SetAttribute(mark, "migrate_vms", wave_migrate);
  }
  for (int host : wave_hosts) {
    StartDrain(host);
  }
}

void FleetController::StartDrain(int host) {
  SetState(host, FleetHostState::kDraining);
  Emit(FleetEventType::kDrainStart, host);
  Schedule(Jittered(HostPlan(host).drain_time, host_rngs_[static_cast<size_t>(host)]),
           EventCall::Op::kStartTransplant, host);
}

void FleetController::StartTransplant(int host) {
  FleetHost& h = hosts_[static_cast<size_t>(host)];
  SetState(host, FleetHostState::kTransplanting);
  ++h.attempts;
  Emit(FleetEventType::kTransplantStart, host, h.attempts);
  Schedule(Jittered(HostPlan(host).transplant_time, host_rngs_[static_cast<size_t>(host)]),
           EventCall::Op::kFinishAttempt, host);
}

void FleetController::FinishAttempt(int host) {
  FleetHost& h = hosts_[static_cast<size_t>(host)];
  if (!host_rngs_[static_cast<size_t>(host)].NextBool(config_.failure_probability)) {
    h.upgraded = true;
    SetState(host, FleetHostState::kServing);
    ++report_.upgraded;
    ++report_.transplant_successes;
    report_.policy_vm_downtime += HostPlan(host).vm_downtime;
    Emit(FleetEventType::kTransplantDone, host, h.attempts);
    ChangeExposure(-1);
    HostDone();
    return;
  }
  Emit(FleetEventType::kTransplantFailed, host, h.attempts);
  // Some failures strike after the point of no return (the micro-reboot
  // already happened): the host is stranded mid-transplant and must roll
  // back to its source hypervisor via the PRAM ledger before any retry.
  if (host_rngs_[static_cast<size_t>(host)].NextBool(config_.post_pause_fraction)) {
    ++report_.post_pause_faults;
    SetState(host, FleetHostState::kRollingBack);
    Emit(FleetEventType::kRollbackStart, host, h.attempts);
    Schedule(Jittered(config_.rollback_time, host_rngs_[static_cast<size_t>(host)]),
             EventCall::Op::kFinishRollback, host);
    return;
  }
  ScheduleRetryOrFail(host);
}

void FleetController::FinishRollback(int host) {
  FleetHost& h = hosts_[static_cast<size_t>(host)];
  if (host_rngs_[static_cast<size_t>(host)].NextBool(config_.rollback_failure_probability)) {
    // Fatal: the ledger was torn or the PRAM image corrupt — there is no
    // hypervisor to serve from, so retrying is meaningless.
    ++report_.rollback_failures;
    Emit(FleetEventType::kRollbackFailed, host, h.attempts);
    SetState(host, FleetHostState::kFailed);
    ++report_.failed;
    Emit(FleetEventType::kHostFailed, host, h.attempts);
    HostDone();
    return;
  }
  // Recoverable: the host serves un-upgraded on the source hypervisor again
  // (still exposed — no exposure change) and the normal retry policy applies.
  ++report_.rollbacks;
  Emit(FleetEventType::kRollbackSucceeded, host, h.attempts);
  SetState(host, FleetHostState::kServing);
  ScheduleRetryOrFail(host);
}

void FleetController::ScheduleRetryOrFail(int host) {
  FleetHost& h = hosts_[static_cast<size_t>(host)];
  if (h.attempts <= config_.max_retries) {
    ++report_.retries;
    Emit(FleetEventType::kRetryScheduled, host, h.attempts);
    // Exponential backoff per consecutive failure, saturating at the ceiling
    // instead of overflowing SimDuration at 30+ retries (fleet_types.h).
    const SimDuration backoff = SaturatingBackoff(config_.retry_backoff, h.attempts - 1);
    Schedule(backoff, EventCall::Op::kStartTransplant, host);
    return;
  }
  SetState(host, FleetHostState::kFailed);
  ++report_.failed;
  Emit(FleetEventType::kHostFailed, host, h.attempts);
  HostDone();  // Failed hosts stay exposed; no exposure change.
}

void FleetController::HostDone() {
  if (config_.abort_threshold < 1.0 && config_.hosts > 0 &&
      static_cast<double>(report_.failed) / config_.hosts > config_.abort_threshold) {
    Finalize(FleetEventType::kRolloutAborted);
    return;
  }
  --wave_in_flight_;
  // Every host completion frees a worker slot; queued unplanned recoveries
  // claim it before the next wave can.
  TryStartRecoveries();
  if (wave_in_flight_ == 0) {
    Emit(FleetEventType::kWaveDone, -1);
    report_.wave_latency_seconds.Add(ToSeconds(executor_.now() - wave_started_));
    StartNextWave();
  }
}

void FleetController::ChangeExposure(int hosts) {
  const SimTime now = executor_.now();
  if (!exposure_deltas_.empty() && exposure_deltas_.back().time == now) {
    exposure_deltas_.back().hosts += hosts;
    return;
  }
  exposure_deltas_.push_back(ExposureDelta{now, hosts});
}

void FleetController::TakeExposureDeltas(std::vector<ExposureDelta>& into) {
  into.clear();
  into.swap(exposure_deltas_);
}

void FleetController::SettleUntouched() {
  report_.untouched =
      report_.hosts - report_.upgraded - report_.failed - report_.lost - report_.refused;
}

void FleetController::Finalize(FleetEventType terminal) {
  finished_ = true;
  SettleUntouched();
  report_.aborted = terminal == FleetEventType::kRolloutAborted;
  report_.complete = report_.upgraded == report_.hosts;
  // A drained hold-open rollout finalizes at a later barrier; its makespan is
  // the instant the last work finished, not when the coordinator got to it.
  const SimTime rollout_end = (drained_ && drained_at_ >= 0) ? drained_at_ : executor_.now();
  report_.makespan = rollout_end - base_;
  Emit(terminal, -1);
  if (report_.aborted) {
    // Graceful stop: events already in flight dispatch as guarded no-ops on
    // the executor's next run.
    executor_.Stop();
  }
}

void FleetController::ScheduleNextCrash() {
  // Poisson arrivals: exponential inter-event gap. NextDouble() < 1, so the
  // log argument is never zero.
  const double rate_per_ns = config_.crash_storm.rate_per_hour / (3600.0 * 1e9);
  const double gap_ns = -std::log(1.0 - storm_rng_.NextDouble()) / rate_per_ns;
  // A gap past the end of representable time ends the arrival chain: the
  // next crash would never come. (A rate that underflows makes it inf or NaN.)
  if (!(gap_ns < 0x1p63)) {
    return;
  }
  const SimDuration gap = std::max<SimDuration>(1, static_cast<SimDuration>(gap_ns));
  if (gap > std::numeric_limits<SimTime>::max() - executor_.now()) {
    return;
  }
  Schedule(gap, EventCall::Op::kCrashEvent);
}

void FleetController::CrashEvent() {
  if (storm_end_ >= 0 && executor_.now() >= storm_end_) {
    return;  // Storm window closed; stop the arrival chain.
  }
  // Victims are hosts actually *serving traffic* right now: upgraded ones and
  // ones still queued for their upgrade. Hosts mid-drain/transplant/rollback
  // or parked in retry backoff have scheduled events pointed at them; crashing
  // those would fire stale transitions on a dead host, and the paper's storm
  // strikes running hypervisors anyway. victims_ holds exactly those hosts.
  //
  // Correlated burst: strike up to `burst` distinct victims, sampled without
  // replacement from the storm stream (scheduling-order independent). The
  // draw is a partial Fisher-Yates shuffle of the candidates in id order:
  // pick a position, strike its host, move the last candidate into the hole.
  // The list stays virtual: position p holds victims_.Select(p) unless a move
  // overrode it. victims_ keeps the burst's starting set until the burst
  // ends, which is exact because only the struck hosts change eligibility
  // meanwhile.
  const auto candidate = [this](int position) {
    for (auto it = burst_moves_.rbegin(); it != burst_moves_.rend(); ++it) {
      if (it->first == position) {
        return it->second;
      }
    }
    return victims_.Select(position);
  };
  int candidates = victims_.count();
  const int strikes = std::min(config_.crash_storm.burst, candidates);
  burst_moves_.clear();
  struck_.clear();
  burst_open_ = true;
  // A loss mid-burst can finalize the rollout; stop striking it then.
  for (int s = 0; s < strikes && !finished_; ++s) {
    const int pick = static_cast<int>(storm_rng_.NextBelow(static_cast<uint64_t>(candidates)));
    const int victim = candidate(pick);
    --candidates;
    burst_moves_.emplace_back(pick, candidate(candidates));
    struck_.push_back(victim);
    CrashHost(victim);
  }
  burst_open_ = false;
  for (const int host : struck_) {
    Reindex(host);
  }
  if (!finished_) {
    ScheduleNextCrash();
  }
}

CrashLedgerState FleetController::SampleCrashLedgerState() {
  const CrashStormConfig& storm = config_.crash_storm;
  const double u = storm_rng_.NextDouble();
  double edge = storm.pre_pause_fraction;
  if (u < edge) {
    return CrashLedgerState::kPrePause;
  }
  edge += storm.mid_save_torn_fraction;
  if (u < edge) {
    return CrashLedgerState::kMidSaveTorn;
  }
  edge += storm.stale_commit_fraction;
  if (u < edge) {
    return CrashLedgerState::kStaleCommit;
  }
  edge += storm.scrubbed_fraction;
  if (u < edge) {
    return CrashLedgerState::kScrubbed;
  }
  return CrashLedgerState::kCleanCommit;
}

void FleetController::CrashHost(int host) {
  CrashRecord& crash = crash_records_[static_cast<size_t>(host)];
  ++report_.crashes;
  SetState(host, FleetHostState::kCrashed);
  crash.started = executor_.now();
  crash.recovery_attempts = 0;
  // What the crash left of the transplant ledger decides everything
  // downstream, via the same DecideSalvage() table Assess() applies to real
  // ledger bytes.
  crash.ledger = SampleCrashLedgerState();
  Unqueue(host);
  Emit(FleetEventType::kHostCrashed, host);
  if (!config_.crash_storm.recover) {
    // Control arm: a fixed fleet has no ReHype path; crashed hosts stay down.
    LoseHost(host, false);
    return;
  }
  if (DecideSalvage(crash.ledger) == SalvageDecision::kDataLoss) {
    // Honest data loss: neither the PRAM image's currency nor the in-RAM
    // structures can be proven. No recovery attempt can change that verdict.
    LoseHost(host, true);
    return;
  }
  recovery_queue_.push_back(host);
  TryStartRecoveries();
}

void FleetController::TryStartRecoveries() {
  while (!recovery_queue_.empty() && recovering_ + wave_in_flight_ < config_.parallel_hosts) {
    const int host = recovery_queue_.front();
    recovery_queue_.pop_front();
    ++recovering_;  // Slot held until the recovery succeeds or the host is lost.
    StartRecovery(host);
  }
}

void FleetController::StartRecovery(int host) {
  CrashRecord& crash = crash_records_[static_cast<size_t>(host)];
  SetState(host, FleetHostState::kRecovering);
  ++crash.recovery_attempts;
  Emit(FleetEventType::kRecoveryStart, host, crash.recovery_attempts);
  Schedule(Jittered(config_.crash_storm.recovery_time, host_rngs_[static_cast<size_t>(host)]),
           EventCall::Op::kFinishRecovery, host);
}

void FleetController::FinishRecovery(int host) {
  FleetHost& h = hosts_[static_cast<size_t>(host)];
  const CrashRecord& crash = crash_records_[static_cast<size_t>(host)];
  const CrashStormConfig& storm = config_.crash_storm;
  Rng& rng = host_rngs_[static_cast<size_t>(host)];
  if (rng.NextBool(storm.recovery_failure_probability)) {
    if (crash.recovery_attempts <= storm.recovery_max_retries) {
      ++report_.crash_recovery_retries;
      Emit(FleetEventType::kRecoveryRetry, host, crash.recovery_attempts);
      // The recovery retry policy is distinct from the upgrade one: its own
      // base, its own budget, saturating backoff. The slot stays held —
      // a host mid-recovery is not schedulable capacity.
      Schedule(SaturatingBackoff(storm.recovery_backoff, crash.recovery_attempts - 1),
               EventCall::Op::kStartRecovery, host);
      return;
    }
    --recovering_;
    LoseHost(host, false);
    if (finished_) {
      return;
    }
    TryStartRecoveries();
    if (wave_in_flight_ == 0) {
      StartNextWave();
    }
    return;
  }
  --recovering_;
  report_.recovery_latency_seconds.Add(ToSeconds(executor_.now() - crash.started));
  if (DecideSalvage(crash.ledger) == SalvageDecision::kSalvageFromImage) {
    ++report_.crash_salvages;
    // Cross-kind salvage re-instantiates the campaign's *target* kind from
    // the kind-neutral UISR image; same-kind restores the ledger's source.
    const bool cross_kind = rng.NextBool(storm.cross_kind_fraction);
    if (cross_kind && !h.upgraded) {
      // The host comes back already upgraded: the crash did the campaign's
      // work for it.
      h.upgraded = true;
      ++report_.upgraded;
      ++report_.crash_upgrades;
      ChangeExposure(-1);
    } else if (!cross_kind && h.upgraded) {
      // Crash-induced rollback: the committed image predates the upgrade, so
      // a same-kind salvage reverts the host to the vulnerable source kind.
      // It re-exposes and re-queues for the campaign to upgrade again.
      h.upgraded = false;
      --report_.upgraded;
      ++report_.crash_rollbacks;
      Emit(FleetEventType::kCrashRollback, host);
      ChangeExposure(+1);
    }
  } else {
    // kRecoverLive: no committed image governs; the fresh hypervisor re-adopts
    // the in-RAM guests under whatever kind the host was running.
    ++report_.crash_live_recoveries;
  }
  if (!h.upgraded) {
    Enqueue(host);  // Unqueued at crash time, so never a duplicate.
  }
  SetState(host, FleetHostState::kServing);
  Emit(FleetEventType::kRecoveryDone, host, crash.recovery_attempts);
  TryStartRecoveries();
  if (wave_in_flight_ == 0) {
    StartNextWave();
  }
}

void FleetController::LoseHost(int host, bool ledger_data_loss) {
  FleetHost& h = hosts_[static_cast<size_t>(host)];
  ++report_.lost;
  if (ledger_data_loss) {
    ++report_.crash_data_loss;
  }
  if (h.upgraded) {
    // A dead host serves nothing: its completed upgrade leaves the fleet tally.
    --report_.upgraded;
  } else {
    // An exposed host that dies stops accruing exposure — its VMs are lost,
    // not running vulnerable.
    ChangeExposure(-1);
  }
  SetState(host, FleetHostState::kFailed);
  Emit(FleetEventType::kHostLost, host,
       crash_records_[static_cast<size_t>(host)].recovery_attempts);
  MaybeFinishRollout();
}

void FleetController::MaybeFinishRollout() {
  if (pending_.empty() && wave_in_flight_ == 0 && recovering_ == 0 && recovery_queue_.empty()) {
    if (config_.hold_open) {
      // Work-stealing mode: stay alive for the coordinator, which either
      // adopts more work into this controller or finalizes it at a barrier.
      if (!drained_) {
        drained_ = true;
        drained_at_ = executor_.now();
      }
      return;
    }
    Finalize(FleetEventType::kRolloutComplete);
  }
}

void FleetController::TallyPlan(const policy::HostPolicyPlan& plan, int sign) {
  report_.refused += sign * static_cast<int>(plan.refused());
  report_.policy_inplace_vms += sign * plan.inplace_vms;
  report_.policy_migrate_vms += sign * plan.migrate_vms;
  report_.policy_refused_vms += sign * plan.refused_vms;
}

uint16_t FleetController::PlanIndex(const policy::HostPolicyPlan& plan) {
  const auto found = std::find(plans_.begin(), plans_.end(), plan);
  if (found != plans_.end()) {
    return static_cast<uint16_t>(found - plans_.begin());
  }
  // Distinct plans are bounded by one period per datacenter environment, far
  // below the index range; never let an index wrap silently.
  HYPERTP_CHECK(plans_.size() <= std::numeric_limits<uint16_t>::max());
  plans_.push_back(plan);
  return static_cast<uint16_t>(plans_.size() - 1);
}

std::vector<StealableDomain> FleetController::StealableDomains() const {
  // Precondition (enforced by PlanCampaign): no crash storm, so at a barrier
  // an unstarted live host is queued exactly when it is not refused.
  std::vector<StealableDomain> out;
  for (int d = 0; d < fault_domain_count_; ++d) {
    const DomainTally& tally = domain_tallies_[static_cast<size_t>(d)];
    if (tally.started == 0 && tally.queued > 0) {
      out.push_back(StealableDomain{d, tally.work});
    }
  }
  return out;
}

DetachedRack FleetController::DetachDomain(int domain) {
  HYPERTP_CHECK(config_.hold_open && started_ && !finished_);
  HYPERTP_CHECK(domain >= 0 && domain < fault_domain_count_);
  DetachedRack rack;
  // Ownership moves; exposure does not, so no exposure delta is recorded and
  // the campaign's stream never sees a phantom safe/re-expose event.
  const auto detach = [&](int id) {
    const FleetHost& h = hosts_[static_cast<size_t>(id)];
    if (h.state == FleetHostState::kDetached) {
      return;
    }
    HYPERTP_CHECK(h.state == FleetHostState::kServing && !h.upgraded && h.attempts == 0);
    Unqueue(id);
    SetState(id, FleetHostState::kDetached);
    rack.hosts.push_back({HostPlan(id), host_rngs_[static_cast<size_t>(id)]});
    TallyPlan(rack.hosts.back().plan, -1);
    Emit(FleetEventType::kHostDetached, id);
  };
  // Members in ascending id order: a configured domain is every
  // fault_domains-th id, an adopted one the range AdoptHosts() appended.
  if (domain < config_.fault_domains) {
    for (int id = domain; id < config_.hosts; id += config_.fault_domains) {
      detach(id);
    }
  } else {
    const size_t k = static_cast<size_t>(domain - config_.fault_domains);
    const int end = k + 1 < adopted_first_ids_.size() ? adopted_first_ids_[k + 1]
                                                      : static_cast<int>(hosts_.size());
    for (int id = adopted_first_ids_[k]; id < end; ++id) {
      detach(id);
    }
  }
  HYPERTP_CHECK(!rack.hosts.empty());
  const int moved = static_cast<int>(rack.hosts.size());
  report_.hosts -= moved;
  report_.detached_hosts += moved;
  return rack;
}

void FleetController::AdoptHosts(const DetachedRack& rack) {
  HYPERTP_CHECK(config_.hold_open && started_ && !finished_);
  HYPERTP_CHECK(!rack.hosts.empty());
  const int domain = fault_domain_count_++;
  const int first_id = static_cast<int>(hosts_.size());
  domain_tallies_.emplace_back();
  adopted_first_ids_.push_back(first_id);
  for (const DetachedRack::Host& adopted : rack.hosts) {
    FleetHost host;
    host.fault_domain = domain;
    plan_index_.push_back(PlanIndex(adopted.plan));
    hosts_.push_back(host);
    host_rngs_.push_back(adopted.rng);
    TallyPlan(adopted.plan, +1);
  }
  const int size = static_cast<int>(hosts_.size());
  if (config_.tracer != nullptr) {
    host_spans_.resize(static_cast<size_t>(size), 0);
  }
  pending_.Resize(size);
  if (config_.crash_storm.enabled()) {
    victims_.Resize(size);
    crash_records_.resize(static_cast<size_t>(size));
  }
  for (int id = first_id; id < size; ++id) {
    if (!HostPlan(id).refused()) {
      Enqueue(id);
    }
  }
  const int moved = static_cast<int>(rack.hosts.size());
  report_.hosts += moved;
  report_.adopted_hosts += moved;
  Emit(FleetEventType::kHostsAdopted, first_id, moved);
  if (drained_ && !pending_.empty()) {
    drained_ = false;
    drained_at_ = -1;
    Schedule(0, EventCall::Op::kStartNextWave);
  }
}

void FleetController::FinalizeDrained() {
  if (finished_) {
    return;
  }
  HYPERTP_CHECK(config_.hold_open && drained_);
  Finalize(FleetEventType::kRolloutComplete);
}

SimDuration FleetController::Jittered(SimDuration base, Rng& rng) {
  if (config_.latency_jitter <= 0.0 || base <= 0) {
    return base;
  }
  // Lognormal multiplier: always positive, right-skewed like real
  // maintenance latencies.
  const double multiplier = std::exp(rng.NextGaussian() * config_.latency_jitter);
  return std::max<SimDuration>(1, static_cast<SimDuration>(static_cast<double>(base) * multiplier));
}

}  // namespace hypertp
