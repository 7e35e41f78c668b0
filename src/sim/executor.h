// Discrete-event simulation executor.
//
// The executor owns the simulated clock. Components schedule closures at
// absolute or relative simulated times; Run() dispatches them in time order
// (FIFO among equal timestamps). Cost models "charge" time by scheduling
// completions in the future, so concurrency (e.g. a migration overlapping a
// running workload) falls out of event interleaving. Closures live in a
// recycled slot pool, so a warm executor allocates nothing per event beyond
// what std::function needs (nothing for a closure that fits inline).

#ifndef HYPERTP_SRC_SIM_EXECUTOR_H_
#define HYPERTP_SRC_SIM_EXECUTOR_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/sim/time.h"

namespace hypertp {

class SimExecutor {
 public:
  // Tags one scheduler's events (e.g. a fleet controller's) so they can be
  // disowned together. 0 is untagged.
  using Owner = uint64_t;

  SimExecutor() = default;
  SimExecutor(const SimExecutor&) = delete;
  SimExecutor& operator=(const SimExecutor&) = delete;

  SimTime now() const { return now_; }

  // Schedules `fn` at absolute simulated time `t` (>= now).
  void ScheduleAt(SimTime t, std::function<void()> fn, Owner owner = 0);
  // Schedules `fn` `d` (>= 0) nanoseconds from now.
  void ScheduleAfter(SimDuration d, std::function<void()> fn, Owner owner = 0);

  // Dispatches events until the queue is empty or Stop() is called.
  void Run();
  // Dispatches events with timestamp <= t (>= now); the clock ends exactly at t.
  void RunUntil(SimTime t);
  // Moves the clock forward to t without dispatching; no event may be earlier.
  void AdvanceTo(SimTime t);

  // Makes Run()/RunUntil() return after the current event completes. The
  // flag is consumed on the next Run()/RunUntil() entry, so an aborted run
  // (e.g. a fleet-rollout abort) never poisons later runs on the same
  // executor; abandoned events stay queued and dispatch on that next run.
  void Stop() { stopped_ = true; }
  bool stopped() const { return stopped_; }

  // A tag distinct from every earlier one, even for an owner at a reused address.
  Owner NewOwner() { return ++last_owner_; }
  // Turns the queued events of `owner` (a NewOwner() tag) into no-ops that
  // still dispatch at their own times, so the clock moves as if they ran;
  // pending_events() and NextEventTime() do not change.
  void Disown(Owner owner);

  size_t pending_events() const { return heap_.size(); }

  // Timestamp of the earliest queued event, or -1 when the queue is empty.
  // Lets a coordinator that advances many executors in lockstep (the campaign
  // planner) stride over barriers it can prove would dispatch nothing.
  SimTime NextEventTime() const { return heap_.empty() ? -1 : heap_.front().time; }

 private:
  struct Key {
    SimTime time;
    uint64_t seq;   // Tie-breaker: FIFO among equal times.
    uint32_t slot;  // Index into slots_.
  };
  struct KeyLater {
    bool operator()(const Key& a, const Key& b) const {
      return a.time != b.time ? a.time > b.time : a.seq > b.seq;
    }
  };
  struct Slot {
    std::function<void()> fn;  // Empty once disowned.
    Owner owner = 0;
  };

  // Pops the earliest event and moves its closure out of the slot before
  // the call, so a closure that grows the pool stays valid.
  void DispatchNext();

  // Binary min-heap on (time, seq) under KeyLater; front() is the earliest.
  // (time, seq) is a total order, so the dispatch order is fully determined.
  std::vector<Key> heap_;
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  Owner last_owner_ = 0;
  bool stopped_ = false;
};

}  // namespace hypertp

#endif  // HYPERTP_SRC_SIM_EXECUTOR_H_
