// Tests for the deterministic worker pool (src/sim/worker_pool.h): the LPT
// schedule is valid and deterministic, ParallelMakespan is exactly the
// schedule's makespan, and real-thread execution never changes results.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <functional>
#include <numeric>
#include <thread>
#include <vector>

#include "src/sim/time.h"
#include "src/sim/worker_pool.h"

namespace hypertp {
namespace {

// A worker never runs two tasks at once, and every task sits on a worker in
// [0, workers).
void ExpectScheduleValid(const WorkSchedule& s, size_t n_tasks) {
  ASSERT_EQ(s.tasks.size(), n_tasks);
  SimDuration max_end = 0;
  for (size_t i = 0; i < s.tasks.size(); ++i) {
    const WorkSchedule::Task& a = s.tasks[i];
    EXPECT_GE(a.worker, 0);
    EXPECT_LT(a.worker, s.workers);
    EXPECT_GE(a.start, 0);
    EXPECT_LE(a.start, a.end);
    max_end = std::max(max_end, a.end);
    for (size_t j = i + 1; j < s.tasks.size(); ++j) {
      const WorkSchedule::Task& b = s.tasks[j];
      if (a.worker != b.worker) {
        continue;
      }
      const bool disjoint = a.end <= b.start || b.end <= a.start;
      EXPECT_TRUE(disjoint) << "tasks " << i << " and " << j << " overlap on worker "
                            << a.worker;
    }
  }
  EXPECT_EQ(s.makespan, max_end);
}

TEST(ScheduleWorkTest, SerialRunsBackToBackInInputOrder) {
  const std::vector<SimDuration> costs = {Millis(3), Millis(1), Millis(2)};
  const WorkSchedule s = ScheduleWork(costs, 1);
  ExpectScheduleValid(s, costs.size());
  EXPECT_EQ(s.workers, 1);
  SimDuration t = 0;
  for (size_t i = 0; i < costs.size(); ++i) {
    EXPECT_EQ(s.tasks[i].worker, 0);
    EXPECT_EQ(s.tasks[i].start, t);
    EXPECT_EQ(s.tasks[i].duration(), costs[i]);
    t += costs[i];
  }
  EXPECT_EQ(s.makespan, Millis(6));
}

TEST(ScheduleWorkTest, NonPositiveWorkersFallBackToSerial) {
  const std::vector<SimDuration> costs = {Millis(2), Millis(2)};
  for (int workers : {0, -1, -100}) {
    const WorkSchedule s = ScheduleWork(costs, workers);
    EXPECT_EQ(s.workers, 1);
    EXPECT_EQ(s.makespan, Millis(4));
  }
}

TEST(ScheduleWorkTest, EmptyCosts) {
  const WorkSchedule s = ScheduleWork({}, 4);
  EXPECT_TRUE(s.tasks.empty());
  EXPECT_EQ(s.makespan, 0);
}

TEST(ScheduleWorkTest, LptPacksLongestFirst) {
  // LPT classic: {5,4,3,3,3} on 2 workers. Greedy longest-first places
  // 5|4, then 3 after the 4, 3 after the 5, 3 after the 7 -> makespan 10
  // (the textbook 4/3-ratio example; optimal would be 9).
  const std::vector<SimDuration> costs = {Millis(3), Millis(5), Millis(3), Millis(4), Millis(3)};
  const WorkSchedule s = ScheduleWork(costs, 2);
  ExpectScheduleValid(s, costs.size());
  EXPECT_EQ(s.makespan, Millis(10));
  // Task durations stay attached to their input slots.
  for (size_t i = 0; i < costs.size(); ++i) {
    EXPECT_EQ(s.tasks[i].duration(), costs[i]);
  }
}

TEST(ScheduleWorkTest, MoreWorkersThanTasksStartEverythingAtZero) {
  const std::vector<SimDuration> costs = {Millis(7), Millis(2), Millis(4)};
  const WorkSchedule s = ScheduleWork(costs, 8);
  ExpectScheduleValid(s, costs.size());
  for (const WorkSchedule::Task& t : s.tasks) {
    EXPECT_EQ(t.start, 0);
  }
  EXPECT_EQ(s.makespan, Millis(7));
}

TEST(ScheduleWorkTest, DeterministicUnderEqualCosts) {
  // All-equal costs exercise every tie-break; the schedule must be a pure
  // function of the inputs.
  const std::vector<SimDuration> costs(9, Millis(2));
  const WorkSchedule a = ScheduleWork(costs, 4);
  const WorkSchedule b = ScheduleWork(costs, 4);
  ASSERT_EQ(a.tasks.size(), b.tasks.size());
  for (size_t i = 0; i < a.tasks.size(); ++i) {
    EXPECT_EQ(a.tasks[i].worker, b.tasks[i].worker);
    EXPECT_EQ(a.tasks[i].start, b.tasks[i].start);
    EXPECT_EQ(a.tasks[i].end, b.tasks[i].end);
  }
}

TEST(ScheduleWorkTest, ParallelMakespanEqualsScheduleMakespan) {
  // The equivalence the refactor pins: the analytic charge IS the schedule.
  const std::vector<std::vector<SimDuration>> cases = {
      {},
      {Millis(10)},
      {Millis(1), Millis(2), Millis(3), Millis(4)},
      {Millis(5), Millis(5), Millis(5)},
      {Millis(100), Millis(1), Millis(1), Millis(1), Millis(1), Millis(1)},
      std::vector<SimDuration>(31, Millis(7)),
  };
  for (const auto& costs : cases) {
    for (int workers : {-1, 0, 1, 2, 3, 4, 8, 64}) {
      EXPECT_EQ(ParallelMakespan(costs, workers), ScheduleWork(costs, workers).makespan)
          << costs.size() << " tasks on " << workers << " workers";
    }
  }
}

TEST(RunOnWorkerPoolTest, ExecutesEveryTaskForAnyThreadCount) {
  for (int threads : {1, 2, 3, 8, 64}) {
    const int n = 41;
    std::vector<int> out(n, 0);
    std::vector<std::function<void()>> tasks;
    tasks.reserve(n);
    for (int i = 0; i < n; ++i) {
      tasks.push_back([&out, i] { out[static_cast<size_t>(i)] = i * i; });
    }
    RunOnWorkerPool(tasks, threads);
    for (int i = 0; i < n; ++i) {
      EXPECT_EQ(out[static_cast<size_t>(i)], i * i) << "threads=" << threads;
    }
  }
}

TEST(RunOnWorkerPoolTest, ThreadedRunMatchesSerialByteForByte) {
  // Pure per-slot writers: results must be identical for any thread count.
  const int n = 100;
  auto run = [n](int threads) {
    std::vector<uint64_t> out(n, 0);
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < n; ++i) {
      tasks.push_back([&out, i] {
        uint64_t h = static_cast<uint64_t>(i) * 0x9E3779B97F4A7C15ull;
        h ^= h >> 31;
        out[static_cast<size_t>(i)] = h;
      });
    }
    RunOnWorkerPool(tasks, threads);
    return out;
  };
  const std::vector<uint64_t> serial = run(1);
  EXPECT_EQ(run(2), serial);
  EXPECT_EQ(run(8), serial);
}

TEST(RunOnWorkerPoolTest, EmptyTaskListIsFine) {
  std::vector<std::function<void()>> tasks;
  RunOnWorkerPool(tasks, 8);  // Must not hang or crash.
}

TEST(RunOnWorkerPoolTest, ReallyRunsConcurrently) {
  // With 4 threads and 4 tasks, all four tasks must be in flight at once:
  // each waits until every task has started.
  std::atomic<int> started{0};
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 4; ++i) {
    tasks.push_back([&started] {
      started.fetch_add(1);
      while (started.load() < 4) {
      }
    });
  }
  RunOnWorkerPool(tasks, 4);
  EXPECT_EQ(started.load(), 4);
}

TEST(RunOnWorkerPoolTest, NestedCallRunsEveryInnerAndOuterTask) {
  // A task that calls RunOnWorkerPool itself runs its inner tasks inline
  // instead of waiting for a pool it already occupies.
  const int outer = 6;
  const int inner = 5;
  std::vector<int> outer_out(outer, 0);
  std::vector<std::vector<int>> inner_out(outer, std::vector<int>(inner, 0));
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < outer; ++i) {
    tasks.push_back([&outer_out, &inner_out, i, inner] {
      std::vector<std::function<void()>> nested;
      for (int j = 0; j < inner; ++j) {
        nested.push_back([&inner_out, i, j] {
          inner_out[static_cast<size_t>(i)][static_cast<size_t>(j)] = 100 * i + j + 1;
        });
      }
      RunOnWorkerPool(nested, 4);
      outer_out[static_cast<size_t>(i)] = i + 1;
    });
  }
  RunOnWorkerPool(tasks, 4);
  for (int i = 0; i < outer; ++i) {
    EXPECT_EQ(outer_out[static_cast<size_t>(i)], i + 1);
    for (int j = 0; j < inner; ++j) {
      EXPECT_EQ(inner_out[static_cast<size_t>(i)][static_cast<size_t>(j)], 100 * i + j + 1)
          << i << "," << j;
    }
  }
}

TEST(RunOnWorkerPoolTest, ConcurrentCallersEachSeeAllTheirResults) {
  // Two threads share the one pool: whichever finds it held runs inline, and
  // neither ever sees a slot of the other's or misses one of its own.
  const auto caller = [](int salt, int* mismatches) {
    const int n = 23;
    for (int call = 0; call < 200; ++call) {
      std::vector<int> out(n, -1);
      std::vector<std::function<void()>> tasks;
      for (int i = 0; i < n; ++i) {
        tasks.push_back([&out, i, salt, call] { out[static_cast<size_t>(i)] = salt + call * n + i; });
      }
      RunOnWorkerPool(tasks, 4);
      for (int i = 0; i < n; ++i) {
        *mismatches += out[static_cast<size_t>(i)] != salt + call * n + i;
      }
    }
  };
  int mismatches_a = 0;
  int mismatches_b = 0;
  std::thread a(caller, 0, &mismatches_a);
  std::thread b(caller, 1 << 20, &mismatches_b);
  a.join();
  b.join();
  EXPECT_EQ(mismatches_a, 0);
  EXPECT_EQ(mismatches_b, 0);
}

TEST(RunOnWorkerPoolTest, BackToBackCallsReuseAndGrowThePool) {
  // Cycling the thread count re-releases parked workers, leaves some of them
  // out of a call, and grows the pool when a call asks for more.
  const int thread_cycle[] = {2, 4, 3, 1, 8};
  const int n = 9;
  int incomplete = 0;
  for (int call = 0; call < 1000; ++call) {
    std::vector<int> out(n, 0);
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < n; ++i) {
      tasks.push_back([&out, i, call] { out[static_cast<size_t>(i)] = call + i + 1; });
    }
    RunOnWorkerPool(tasks, thread_cycle[call % 5]);
    for (int i = 0; i < n; ++i) {
      incomplete += out[static_cast<size_t>(i)] != call + i + 1;
    }
  }
  EXPECT_EQ(incomplete, 0);
}

TEST(ParallelThreadsFromEnvTest, ParsesAndClampsHypertpParallel) {
  const char* const kVar = "HYPERTP_PARALLEL";
  unsetenv(kVar);
  EXPECT_EQ(ParallelThreadsFromEnv(), 1);
  setenv(kVar, "4", 1);
  EXPECT_EQ(ParallelThreadsFromEnv(), 4);
  setenv(kVar, "1", 1);
  EXPECT_EQ(ParallelThreadsFromEnv(), 1);
  setenv(kVar, "0", 1);
  EXPECT_EQ(ParallelThreadsFromEnv(), 1);
  setenv(kVar, "-3", 1);
  EXPECT_EQ(ParallelThreadsFromEnv(), 1);
  setenv(kVar, "not-a-number", 1);
  EXPECT_EQ(ParallelThreadsFromEnv(), 1);
  setenv(kVar, "99999", 1);
  EXPECT_EQ(ParallelThreadsFromEnv(), 256);
  unsetenv(kVar);
}

}  // namespace
}  // namespace hypertp
