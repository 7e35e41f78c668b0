#include "src/fleet/fleet_trace.h"

#include <algorithm>

#include "src/base/json.h"

namespace hypertp {

std::string_view FleetHostStateName(FleetHostState state) {
  switch (state) {
    case FleetHostState::kServing:
      return "serving";
    case FleetHostState::kDraining:
      return "draining";
    case FleetHostState::kTransplanting:
      return "transplanting";
    case FleetHostState::kFailed:
      return "failed";
    case FleetHostState::kRollingBack:
      return "rolling_back";
    case FleetHostState::kCrashed:
      return "crashed";
    case FleetHostState::kRecovering:
      return "recovering";
    case FleetHostState::kDetached:
      return "detached";
  }
  return "unknown";
}

std::string_view FleetEventTypeName(FleetEventType type) {
  switch (type) {
    case FleetEventType::kRolloutStart:
      return "rollout_start";
    case FleetEventType::kWaveStart:
      return "wave_start";
    case FleetEventType::kDrainStart:
      return "drain_start";
    case FleetEventType::kTransplantStart:
      return "transplant_start";
    case FleetEventType::kTransplantDone:
      return "transplant_done";
    case FleetEventType::kTransplantFailed:
      return "transplant_failed";
    case FleetEventType::kRetryScheduled:
      return "retry_scheduled";
    case FleetEventType::kHostFailed:
      return "host_failed";
    case FleetEventType::kWaveDone:
      return "wave_done";
    case FleetEventType::kRolloutComplete:
      return "rollout_complete";
    case FleetEventType::kRolloutAborted:
      return "rollout_aborted";
    case FleetEventType::kRollbackStart:
      return "rollback_start";
    case FleetEventType::kRollbackSucceeded:
      return "rollback_succeeded";
    case FleetEventType::kRollbackFailed:
      return "rollback_failed";
    case FleetEventType::kHostCrashed:
      return "host_crashed";
    case FleetEventType::kRecoveryStart:
      return "recovery_start";
    case FleetEventType::kRecoveryRetry:
      return "recovery_retry";
    case FleetEventType::kRecoveryDone:
      return "recovery_done";
    case FleetEventType::kCrashRollback:
      return "crash_rollback";
    case FleetEventType::kHostLost:
      return "host_lost";
    case FleetEventType::kHostRefused:
      return "host_refused";
    case FleetEventType::kHostDetached:
      return "host_detached";
    case FleetEventType::kHostsAdopted:
      return "hosts_adopted";
  }
  return "unknown";
}

FleetTrace::FleetTrace(size_t capacity) : capacity_(std::max<size_t>(capacity, 1)) {
  ring_.reserve(std::min<size_t>(capacity_, 4096));
}

void FleetTrace::Record(FleetEvent event) {
  ++total_recorded_;
  if (ring_.size() < capacity_) {
    ring_.push_back(event);
    return;
  }
  // Full: overwrite the oldest slot.
  ring_[head_] = event;
  head_ = (head_ + 1) % capacity_;
}

std::vector<FleetEvent> FleetTrace::Events() const {
  std::vector<FleetEvent> out;
  out.reserve(ring_.size());
  // head_ advances modulo capacity_, so unwrapping must use the same
  // modulus. Using ring_.size() here only coincided while the ring was
  // partially filled (head_ == 0) or exactly full.
  for (size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(head_ + i) % capacity_]);
  }
  return out;
}

std::vector<FleetEvent> FleetTrace::EventsOfType(FleetEventType type) const {
  std::vector<FleetEvent> out;
  for (const FleetEvent& event : Events()) {
    if (event.type == type) {
      out.push_back(event);
    }
  }
  return out;
}

std::string FleetTraceToJson(const FleetTrace& trace) {
  JsonWriter j;
  j.BeginObject();
  j.Key("kind").String("fleet_trace");
  j.Key("total_recorded").Number(trace.total_recorded());
  j.Key("dropped").Number(trace.dropped());
  j.Key("events").BeginArray();
  for (const FleetEvent& event : trace.Events()) {
    j.BeginObject();
    j.Key("t_ns").Number(static_cast<int64_t>(event.time));
    j.Key("type").String(FleetEventTypeName(event.type));
    if (event.host >= 0) {
      j.Key("host").Number(static_cast<int64_t>(event.host));
    }
    if (event.wave >= 0) {
      j.Key("wave").Number(static_cast<int64_t>(event.wave));
    }
    if (event.attempt > 0) {
      j.Key("attempt").Number(static_cast<int64_t>(event.attempt));
    }
    j.EndObject();
  }
  j.EndArray();
  j.EndObject();
  return j.Take();
}

}  // namespace hypertp
