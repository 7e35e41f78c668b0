// Structured trace for fleet rollouts: a bounded ring buffer of FleetEvents,
// exported as one JSON document. Exposure is not traced here: the controller
// hands its exposure changes to the campaign as drained deltas
// (FleetController::TakeExposureDeltas).
//
// The trace is the observability contract of the control plane: two runs
// with the same FleetConfig must serialize to byte-identical JSON, which is
// what fleet_replay_test pins.

#ifndef HYPERTP_SRC_FLEET_FLEET_TRACE_H_
#define HYPERTP_SRC_FLEET_FLEET_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/fleet/fleet_types.h"
#include "src/sim/time.h"

namespace hypertp {

class FleetTrace {
 public:
  explicit FleetTrace(size_t capacity);

  void Record(FleetEvent event);

  // Events oldest-to-newest (reassembled from the ring).
  std::vector<FleetEvent> Events() const;
  // Events of one type, oldest-to-newest.
  std::vector<FleetEvent> EventsOfType(FleetEventType type) const;

  size_t size() const { return ring_.size(); }
  uint64_t total_recorded() const { return total_recorded_; }
  uint64_t dropped() const { return total_recorded_ - ring_.size(); }

 private:
  size_t capacity_;
  std::vector<FleetEvent> ring_;  // Ring buffer; `head_` is the oldest slot.
  size_t head_ = 0;
  uint64_t total_recorded_ = 0;
};

// {"kind":"fleet_trace","total_recorded":n,"dropped":n,"events":[...]}.
// Deterministic: same trace -> same bytes.
std::string FleetTraceToJson(const FleetTrace& trace);

}  // namespace hypertp

#endif  // HYPERTP_SRC_FLEET_FLEET_TRACE_H_
