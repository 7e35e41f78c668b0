#include "src/fleet/fleet_trace.h"

#include <algorithm>
#include <iterator>

#include "src/base/json.h"

namespace hypertp {

// Indexed by FleetEventType: the JSON name of every event type.
constexpr std::string_view kFleetEventTypeNames[] = {
    "rollout_start",      "wave_start",         "drain_start",        "transplant_start",
    "transplant_done",    "transplant_failed",  "retry_scheduled",    "host_failed",
    "wave_done",          "rollout_complete",   "rollout_aborted",    "rollback_start",
    "rollback_succeeded", "rollback_failed",    "host_crashed",       "recovery_start",
    "recovery_retry",     "recovery_done",      "crash_rollback",     "host_lost",
    "host_refused",       "host_detached",      "hosts_adopted",
};
static_assert(std::size(kFleetEventTypeNames) ==
                  static_cast<size_t>(FleetEventType::kHostsAdopted) + 1,
              "one name per FleetEventType");

std::string_view FleetEventTypeName(FleetEventType type) {
  const auto index = static_cast<size_t>(type);
  return index < std::size(kFleetEventTypeNames) ? kFleetEventTypeNames[index] : "unknown";
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
  if (++head_ == capacity_) {
    head_ = 0;
  }
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
