#include "src/sim/executor.h"

#include <algorithm>
#include <utility>

#include "src/base/logging.h"

namespace hypertp {

void SimExecutor::ScheduleAt(SimTime t, std::function<void()> fn, Owner owner) {
  HYPERTP_CHECK(t >= now_ && "cannot schedule in the past");
  if (free_slots_.empty()) {
    free_slots_.push_back(static_cast<uint32_t>(slots_.size()));
    slots_.emplace_back();
  }
  const uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  slots_[slot] = Slot{std::move(fn), owner};
  heap_.push_back(Key{t, next_seq_++, slot});
  std::push_heap(heap_.begin(), heap_.end(), KeyLater{});
}

void SimExecutor::ScheduleAfter(SimDuration d, std::function<void()> fn, Owner owner) {
  HYPERTP_CHECK(d >= 0);
  ScheduleAt(now_ + d, std::move(fn), owner);
}

void SimExecutor::Disown(Owner owner) {
  for (Slot& slot : slots_) {
    if (slot.owner == owner) {
      slot.fn = nullptr;
    }
  }
}

void SimExecutor::DispatchNext() {
  std::pop_heap(heap_.begin(), heap_.end(), KeyLater{});
  const Key key = heap_.back();
  heap_.pop_back();
  now_ = key.time;
  const std::function<void()> fn = std::exchange(slots_[key.slot].fn, nullptr);
  free_slots_.push_back(key.slot);
  if (fn) {
    fn();
  }
}

void SimExecutor::Run() {
  // Consume any Stop() left over from a previous (aborted) run so one
  // abort cannot poison later runs on the same executor.
  stopped_ = false;
  while (!heap_.empty() && !stopped_) {
    DispatchNext();
  }
}

void SimExecutor::RunUntil(SimTime t) {
  HYPERTP_CHECK(t >= now_);
  stopped_ = false;
  while (!heap_.empty() && !stopped_ && heap_.front().time <= t) {
    DispatchNext();
  }
  if (!stopped_) {
    now_ = t;
  }
}

void SimExecutor::AdvanceTo(SimTime t) {
  HYPERTP_CHECK(t >= now_);
  HYPERTP_CHECK((heap_.empty() || heap_.front().time >= t) &&
                "AdvanceTo would skip pending events");
  now_ = t;
}

}  // namespace hypertp
