#include "src/sim/worker_pool.h"

#include <pthread.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <mutex>
#include <numeric>
#include <thread>

namespace hypertp {

WorkSchedule ScheduleWork(const std::vector<SimDuration>& costs, int workers) {
  WorkSchedule schedule;
  schedule.workers = workers <= 1 ? 1 : workers;
  schedule.tasks.resize(costs.size());
  if (costs.empty()) {
    return schedule;
  }
  // workers <= 1 degenerates to serial execution, covering bad input (0 or
  // negative) the same way ParallelMakespan always has.
  if (workers <= 1) {
    SimDuration t = 0;
    for (size_t i = 0; i < costs.size(); ++i) {
      schedule.tasks[i] = WorkSchedule::Task{0, t, t + costs[i]};
      t += costs[i];
    }
    schedule.makespan = t;
    return schedule;
  }
  // LPT order: cost descending; stable, so equal costs keep input order.
  std::vector<size_t> order(costs.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&costs](size_t a, size_t b) { return costs[a] > costs[b]; });
  std::vector<SimDuration> load(static_cast<size_t>(workers), 0);
  for (size_t idx : order) {
    // min_element returns the FIRST minimum: equal loads pick the lowest
    // worker index, keeping the schedule deterministic.
    auto slot = std::min_element(load.begin(), load.end());
    const int worker = static_cast<int>(slot - load.begin());
    schedule.tasks[idx] = WorkSchedule::Task{worker, *slot, *slot + costs[idx]};
    *slot += costs[idx];
  }
  schedule.makespan = *std::max_element(load.begin(), load.end());
  return schedule;
}

SimDuration ParallelMakespan(std::vector<SimDuration> costs, int workers) {
  return ScheduleWork(costs, workers).makespan;
}

namespace {

// Real threads per call, the caller included: HYPERTP_PARALLEL's cap.
constexpr int kMaxThreads = 256;

// How many times a worker polls for the next release, or the caller for the
// workers' check-out, before parking on the condition variable. At ~20 ns a
// pause (a 4-core Xeon VM) that is ~20 µs: long enough to bridge the
// coordinator's work between two campaign barriers without a futex round
// trip, short enough that an idle pool burns next to nothing.
constexpr int kSpinIterations = 1024;

inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

// True on pool workers, and on a caller while it runs tasks: a call made
// from there runs inline.
thread_local bool t_in_pool = false;

// Set in the child of a fork(): the parent's workers do not exist there, so
// the child runs every call inline.
bool g_forked_child = false;

class ParkedPool {
 public:
  // Runs `tasks` on the caller and `threads` - 1 workers. Returns false,
  // having run nothing, when another thread holds the pool.
  bool TryRun(std::vector<std::function<void()>>& tasks, int threads) {
    if (held_.exchange(true, std::memory_order_acquire)) {
      return false;
    }
    const int participants = threads - 1;
    Grow(participants);
    tasks_ = &tasks;
    next_.store(0, std::memory_order_relaxed);
    outstanding_.store(participants, std::memory_order_relaxed);
    {
      // Published under the mutex so a worker between its predicate check
      // and its wait cannot miss the notification.
      std::lock_guard<std::mutex> lock(mu_);
      const uint64_t generation = (release_.load(std::memory_order_relaxed) >> 16) + 1;
      release_.store(generation << 16 | static_cast<uint64_t>(participants),
                     std::memory_order_release);
    }
    wake_.notify_all();
    t_in_pool = true;
    RunClaimed();
    t_in_pool = false;
    // Every participant checks out before the call returns: none of them may
    // still read tasks_ or next_ when the next call reuses them.
    for (int spin = 0;
         spin < kSpinIterations && outstanding_.load(std::memory_order_acquire) != 0; ++spin) {
      CpuRelax();
    }
    if (outstanding_.load(std::memory_order_acquire) != 0) {
      std::unique_lock<std::mutex> lock(mu_);
      done_.wait(lock, [this] { return outstanding_.load(std::memory_order_acquire) == 0; });
    }
    tasks_ = nullptr;
    held_.store(false, std::memory_order_release);
    return true;
  }

 private:
  // Runs tasks until none is left to claim.
  void RunClaimed() {
    std::vector<std::function<void()>>& tasks = *tasks_;
    for (size_t i = next_.fetch_add(1, std::memory_order_relaxed); i < tasks.size();
         i = next_.fetch_add(1, std::memory_order_relaxed)) {
      tasks[i]();
    }
  }

  // Starts workers until `wanted` exist. Only the pool's holder calls it.
  // The workers are detached: the pool they use is never destroyed.
  void Grow(int wanted) {
    const uint64_t generation = release_.load(std::memory_order_relaxed) >> 16;
    while (workers_ < wanted) {
      std::thread(&ParkedPool::WorkerMain, this, workers_, generation).detach();
      ++workers_;
    }
  }

  // A worker's life: wait for a generation newer than `seen`, take part in
  // it if its index is below that call's participant count, check out.
  void WorkerMain(int index, uint64_t seen) {
    t_in_pool = true;
    for (;;) {
      uint64_t word = release_.load(std::memory_order_acquire);
      for (int spin = 0; spin < kSpinIterations && word >> 16 == seen; ++spin) {
        CpuRelax();
        word = release_.load(std::memory_order_acquire);
      }
      if (word >> 16 == seen) {
        std::unique_lock<std::mutex> lock(mu_);
        wake_.wait(lock, [&] {
          word = release_.load(std::memory_order_acquire);
          return word >> 16 != seen;
        });
      }
      seen = word >> 16;
      if (index >= static_cast<int>(word & 0xFFFF)) {
        continue;  // Not needed this time.
      }
      RunClaimed();
      if (outstanding_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        // Taking the mutex orders this notification after the caller's
        // predicate check, so the caller cannot sleep through it.
        { std::lock_guard<std::mutex> lock(mu_); }
        done_.notify_one();
      }
    }
  }

  std::atomic<bool> held_{false};
  std::mutex mu_;
  std::condition_variable wake_;  // Parked workers wait here.
  std::condition_variable done_;  // A caller waiting for check-outs waits here.
  // The release word: generation << 16 | participant count. One atomic, so a
  // worker reads a call's generation and its participant count together.
  std::atomic<uint64_t> release_{0};
  std::vector<std::function<void()>>* tasks_ = nullptr;
  std::atomic<size_t> next_{0};       // The next unclaimed task index.
  std::atomic<int> outstanding_{0};   // Participants not yet checked out.
  int workers_ = 0;                   // Written only by the pool's holder.
};

ParkedPool& Pool() {
  // Never destroyed: process exit must not wait for parked workers.
  static ParkedPool* const pool = [] {
    pthread_atfork(nullptr, nullptr, [] { g_forked_child = true; });
    return new ParkedPool;
  }();
  return *pool;
}

}  // namespace

void RunOnWorkerPool(std::vector<std::function<void()>>& tasks, int threads) {
  threads = std::min({threads, static_cast<int>(tasks.size()), kMaxThreads});
  if (threads <= 1 || t_in_pool || g_forked_child || !Pool().TryRun(tasks, threads)) {
    for (auto& task : tasks) {
      task();
    }
  }
}

int ParallelThreadsFromEnv() {
  const char* raw = std::getenv("HYPERTP_PARALLEL");
  if (raw == nullptr || *raw == '\0') {
    return 1;
  }
  char* end = nullptr;
  const long parsed = std::strtol(raw, &end, 10);
  if (end == raw || *end != '\0' || parsed < 1) {
    return 1;
  }
  return static_cast<int>(std::min(parsed, 256L));
}

}  // namespace hypertp
