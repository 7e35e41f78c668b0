// Deterministic worker pool: one LPT schedule drives both the charged
// sim-time of a parallel phase and, optionally, real execution of the
// underlying work across OS threads.
//
// Two distinct worker counts exist on purpose and must never be conflated:
//
//  - `workers` (ScheduleWork) is the *modeled* core count — the paper's "one
//    worker per free core" (§3.4), i.e. Machine::worker_threads(). It decides
//    the charged phase durations, the per-task span offsets and therefore
//    every reported number. It is part of a run's deterministic output.
//
//  - `threads` (RunOnWorkerPool) is the *real* OS-thread count — the
//    HYPERTP_PARALLEL env var / InPlaceOptions::real_threads. It only affects
//    wall-clock speed. Identical inputs must produce byte-identical outputs
//    (reports, blobs, trace JSON) for any thread count; pipeline_test pins
//    this.

#ifndef HYPERTP_SRC_SIM_WORKER_POOL_H_
#define HYPERTP_SRC_SIM_WORKER_POOL_H_

#include <functional>
#include <vector>

#include "src/sim/time.h"

namespace hypertp {

// Which modeled worker runs each task of a cost vector, and when.
struct WorkSchedule {
  struct Task {
    int worker = 0;
    SimDuration start = 0;
    SimDuration end = 0;

    SimDuration duration() const { return end - start; }
  };
  std::vector<Task> tasks;  // In input (cost-vector) order.
  SimDuration makespan = 0;
  int workers = 1;
};

// Lays `costs` out over `workers` modeled workers with greedy
// longest-processing-time-first scheduling: sort descending, always assign to
// the least-loaded worker. Ties break deterministically — equal costs keep
// input order (stable sort), equal loads pick the lowest worker index — so
// the whole schedule, not just its makespan, is a pure function of the
// inputs. workers <= 1 (including bad input) runs everything back-to-back on
// worker 0.
WorkSchedule ScheduleWork(const std::vector<SimDuration>& costs, int workers);

// The LPT makespan alone. Implemented as ScheduleWork(...).makespan, so the
// analytic charge and the schedule can never disagree.
// Models the paper's parallelized per-VM translation/PRAM construction
// (one worker thread per free core).
SimDuration ParallelMakespan(std::vector<SimDuration> costs, int workers);

// Executes every task in `tasks` on the calling thread plus up to
// `threads` - 1 workers of one process-wide pool (threads <= 1: inline on
// the calling thread, in index order). The pool is created on first use,
// grows on demand to the largest worker count asked for (at most 255
// workers), and is never torn down.
//
// Tasks are claimed one at a time through a shared index, by the caller and
// the workers alike, so which thread runs a task is unspecified; each task
// must therefore only write its own pre-sized output slot. Under that
// contract the results are byte-identical for any thread count. The call
// returns once every task has run.
//
// Between calls a worker polls for the next one for a few tens of
// microseconds, then parks on a condition variable until it is released.
// A call made from inside a pool task, or while another thread is running
// tasks on the pool, runs its tasks inline in index order instead of waiting,
// so nesting and concurrent callers can never deadlock.
void RunOnWorkerPool(std::vector<std::function<void()>>& tasks, int threads);

// Real-thread count requested via the HYPERTP_PARALLEL env var.
// Unset, unparsable or < 1 means 1 (serial); values are capped at 256.
int ParallelThreadsFromEnv();

}  // namespace hypertp

#endif  // HYPERTP_SRC_SIM_WORKER_POOL_H_
