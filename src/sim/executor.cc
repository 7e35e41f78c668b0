#include "src/sim/executor.h"

#include <algorithm>
#include <cassert>

namespace hypertp {

void SimExecutor::ScheduleAt(SimTime t, std::function<void()> fn) {
  assert(t >= now_ && "cannot schedule in the past");
  queue_.push_back(Event{t, next_seq_++, std::move(fn)});
  std::push_heap(queue_.begin(), queue_.end(), EventLater{});
}

void SimExecutor::ScheduleAfter(SimDuration d, std::function<void()> fn) {
  assert(d >= 0);
  ScheduleAt(now_ + d, std::move(fn));
}

SimExecutor::Event SimExecutor::PopNext() {
  std::pop_heap(queue_.begin(), queue_.end(), EventLater{});
  Event ev = std::move(queue_.back());
  queue_.pop_back();
  return ev;
}

void SimExecutor::Run() {
  // Consume any Stop() left over from a previous (aborted) run so one
  // abort cannot poison later runs on the same executor.
  stopped_ = false;
  while (!queue_.empty() && !stopped_) {
    Event ev = PopNext();
    now_ = ev.time;
    ev.fn();
  }
}

void SimExecutor::RunUntil(SimTime t) {
  assert(t >= now_);
  stopped_ = false;
  while (!queue_.empty() && !stopped_ && queue_.front().time <= t) {
    Event ev = PopNext();
    now_ = ev.time;
    ev.fn();
  }
  if (!stopped_) {
    now_ = t;
  }
}

void SimExecutor::AdvanceTo(SimTime t) {
  assert(t >= now_);
  assert((queue_.empty() || queue_.front().time >= t) && "AdvanceTo would skip pending events");
  now_ = t;
}

}  // namespace hypertp
