// Discrete-event simulation executor.
//
// The executor owns the simulated clock. Components schedule closures at
// absolute or relative simulated times; Run() dispatches them in time order
// (FIFO among equal timestamps). Cost models "charge" time by scheduling
// completions in the future, so concurrency (e.g. a migration overlapping a
// running workload) falls out of event interleaving.

#ifndef HYPERTP_SRC_SIM_EXECUTOR_H_
#define HYPERTP_SRC_SIM_EXECUTOR_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/sim/time.h"

namespace hypertp {

class SimExecutor {
 public:
  SimExecutor() = default;
  SimExecutor(const SimExecutor&) = delete;
  SimExecutor& operator=(const SimExecutor&) = delete;

  SimTime now() const { return now_; }

  // Schedules `fn` at absolute simulated time `t` (>= now).
  void ScheduleAt(SimTime t, std::function<void()> fn);
  // Schedules `fn` `d` nanoseconds from now.
  void ScheduleAfter(SimDuration d, std::function<void()> fn);

  // Dispatches events until the queue is empty or Stop() is called.
  void Run();
  // Dispatches events with timestamp <= t; the clock ends exactly at t.
  void RunUntil(SimTime t);
  // Moves the clock forward without dispatching (asserts no earlier events).
  void AdvanceTo(SimTime t);

  // Makes Run()/RunUntil() return after the current event completes. The
  // flag is consumed on the next Run()/RunUntil() entry, so an aborted run
  // (e.g. a fleet-rollout abort) never poisons later runs on the same
  // executor; abandoned events stay queued and dispatch on that next run.
  void Stop() { stopped_ = true; }
  bool stopped() const { return stopped_; }

  size_t pending_events() const { return queue_.size(); }

  // Timestamp of the earliest queued event, or -1 when the queue is empty.
  // Lets a coordinator that advances many executors in lockstep (the campaign
  // planner) stride over barriers it can prove would dispatch nothing.
  SimTime NextEventTime() const { return queue_.empty() ? -1 : queue_.front().time; }

 private:
  struct Event {
    SimTime time;
    uint64_t seq;  // Tie-breaker: FIFO among equal times.
    std::function<void()> fn;
  };
  struct EventLater {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) {
        return a.time > b.time;
      }
      return a.seq > b.seq;
    }
  };

  // Removes the earliest event and returns it by move: the closure is never
  // copied (a copy of a capturing std::function is a heap allocation).
  Event PopNext();

  // Binary min-heap on (time, seq) under EventLater; front() is the earliest.
  // (time, seq) is a total order, so the dispatch order is fully determined.
  std::vector<Event> queue_;
  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  bool stopped_ = false;
};

}  // namespace hypertp

// ParallelMakespan lives with the worker-pool primitive now (it is the
// schedule's makespan); included here so existing callers keep compiling.
#include "src/sim/worker_pool.h"  // IWYU pragma: export

#endif  // HYPERTP_SRC_SIM_EXECUTOR_H_
