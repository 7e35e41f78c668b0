// Unit tests for src/sim: clock, RNG determinism, stats, time series,
// discrete-event executor and the parallel makespan model.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/executor.h"
#include "src/sim/rng.h"
#include "src/sim/stats.h"
#include "src/sim/time.h"
#include "src/sim/time_series.h"
#include "src/sim/worker_pool.h"

namespace hypertp {
namespace {

TEST(TimeTest, UnitHelpers) {
  EXPECT_EQ(Seconds(2), 2'000'000'000);
  EXPECT_EQ(Millis(3), 3'000'000);
  EXPECT_EQ(Micros(4), 4'000);
  EXPECT_EQ(SecondsF(1.5), 1'500'000'000);
  EXPECT_DOUBLE_EQ(ToSeconds(Seconds(7)), 7.0);
  EXPECT_DOUBLE_EQ(ToMillis(MillisF(4.96)), 4.96);
}

TEST(TimeTest, FormatAdaptsUnits) {
  EXPECT_EQ(FormatDuration(SecondsF(1.7)), "1.700 s");
  EXPECT_EQ(FormatDuration(MillisF(4.96)), "4.96 ms");
  EXPECT_EQ(FormatDuration(Micros(820)), "820.00 us");
  EXPECT_EQ(FormatDuration(12), "12 ns");
}

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(1234);
  Rng b(1234);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, NextBelowInRange) {
  Rng rng(99);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(RngTest, NextInRangeInclusive) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.NextInRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

// Both range preconditions hold in release builds too: NextBelow(0) would
// otherwise divide by zero.
TEST(RngDeathTest, NextBelowRejectsAZeroBound) {
  EXPECT_DEATH(
      {
        Rng rng(1);
        rng.NextBelow(0);
      },
      "check failed");
}

TEST(RngDeathTest, NextInRangeRejectsAnEmptyRange) {
  EXPECT_DEATH(
      {
        Rng rng(1);
        rng.NextInRange(3, 2);
      },
      "check failed");
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(42);
  StatAccumulator acc;
  for (int i = 0; i < 20000; ++i) {
    acc.Add(rng.NextGaussian());
  }
  EXPECT_NEAR(acc.mean(), 0.0, 0.05);
  EXPECT_NEAR(acc.stddev(), 1.0, 0.05);
}

TEST(RngTest, ForkIsIndependent) {
  Rng parent(11);
  Rng child = parent.Fork();
  // The child stream must not replay the parent stream.
  Rng parent2(11);
  parent2.Fork();
  EXPECT_EQ(parent.NextU64(), parent2.NextU64());  // Fork is deterministic.
  EXPECT_NE(child.NextU64(), parent.NextU64());
}

// The exact streams of two seeds, as bit patterns: any change to the
// generator's state layout or draw paths that moves a single bit of a draw
// fails here before it can move a simulation output.
struct RngGolden {
  uint64_t seed;
  uint64_t u64[16];
  uint64_t gaussian_bits[16];  // NextGaussian() results, bit_cast.
  uint16_t bool_mask;          // Bit i: the i-th NextBool(0.3).
};

constexpr RngGolden kRngGoldens[] = {
    {1,
     {0xb3f2af6d0fc710c5ull, 0x853b559647364ceaull, 0x92f89756082a4514ull, 0x642e1c7bc266a3a7ull,
      0xb27a48e29a233673ull, 0x24c123126ffda722ull, 0x123004ef8df510e6ull, 0x61954dcc47b1e89dull,
      0xddfdb48ab9ed4a21ull, 0x8d3cdb8c3aa5b1d0ull, 0xeebd114bd87226d1ull, 0xf50c3ff1e7d7e8a6ull,
      0xeeca3115e23bc8f1ull, 0xab49ed3db4c66435ull, 0x99953c6c57808dd7ull, 0xe3fa941b05219325ull},
     {0xbfeaa5d15d61bbdeull, 0xbfbb868742fbcb43ull, 0xbfea277e54872b51ull, 0x3fe5457e1365c05cull,
      0x3fe0d9c8553273e0ull, 0x3fe5537099254695ull, 0xbffb02898a315caaull, 0x3ff8fd041ec81360ull,
      0xbfe0311d513a4fb3ull, 0xbfc5d0f36f403c9full, 0x3fd70e173aebb381ull, 0xbfb9677948bd4775ull,
      0xbfc73e27b903647bull, 0xbfd4dba401e8bfb3ull, 0x3fe8fea6d0727143ull, 0xbfe488ce5198eb9bull},
     0x0060},
    {0x5EEDF00D,
     {0x7c873a5e096e5982ull, 0xafa8a941fb322560ull, 0x901e1d55271b5116ull, 0xc0402398799c6825ull,
      0xae42244e1a25c727ull, 0x109dfd0c003a3d84ull, 0x224de210c22928d5ull, 0x9392d843dbecd34full,
      0x084fc5cfa301a700ull, 0x19159920ce40e3c2ull, 0x0419d09da5f9c9b9ull, 0xb9a4c991d877da7cull,
      0x91126e530e231f0aull, 0x50514ab0c4e931faull, 0x2271e1942cee23f4ull, 0xc318fb7642477b7cull},
     {0xbfddff21d58e4960ull, 0xbff1af2b739ffeb4ull, 0x3f7affe705648b3bull, 0xbff126a8c2309454ull,
      0x3fe9c3bc1c3cc75aull, 0x3fd643aca5c06dd9ull, 0xbffc72b0809afff2ull, 0xbfeda6766f846c3full,
      0x4001199256afa07eull, 0x3ff8313a9066c65bull, 0xbfdc97d2ac7d03dcull, 0xc006b951afb8f765ull,
      0xbfda97deb5e24ae1ull, 0x3fef68038d480fc1ull, 0x3fc378e414e726eeull, 0xbffff435736889adull},
     0x4760},
};

TEST(RngTest, GoldenStreamsAreBitExact) {
  for (const RngGolden& golden : kRngGoldens) {
    Rng u64(golden.seed);
    Rng gaussian(golden.seed);
    Rng coin(golden.seed);
    uint16_t mask = 0;
    for (int i = 0; i < 16; ++i) {
      EXPECT_EQ(u64.NextU64(), golden.u64[i]) << "seed " << golden.seed << " draw " << i;
      EXPECT_EQ(std::bit_cast<uint64_t>(gaussian.NextGaussian()), golden.gaussian_bits[i])
          << "seed " << golden.seed << " draw " << i;
      mask |= static_cast<uint16_t>(coin.NextBool(0.3) << i);
    }
    EXPECT_EQ(mask, golden.bool_mask) << "seed " << golden.seed;
  }
}

// A copy taken between the two halves of a Box-Muller pair (a stolen host's
// stream travels that way) carries the cached half and continues exactly
// like the original, through every kind of draw.
TEST(RngTest, CopyMidGaussianPairContinuesTheStream) {
  for (const RngGolden& golden : kRngGoldens) {
    for (int odd : {1, 3, 7}) {
      Rng original(golden.seed);
      for (int i = 0; i < odd; ++i) {
        original.NextGaussian();
      }
      Rng copy = original;
      for (int i = 0; i < 16; ++i) {
        ASSERT_EQ(std::bit_cast<uint64_t>(copy.NextGaussian()),
                  std::bit_cast<uint64_t>(original.NextGaussian()))
            << "seed " << golden.seed << " after " << odd << " draw " << i;
        ASSERT_EQ(copy.NextU64(), original.NextU64());
        ASSERT_EQ(copy.NextBool(0.3), original.NextBool(0.3));
      }
    }
  }
}

TEST(RngTest, BoolProbabilityEdges) {
  Rng rng(3);
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(rng.NextBool(0.0));
    EXPECT_TRUE(rng.NextBool(1.0));
  }
}

TEST(StatsTest, AccumulatorBasics) {
  StatAccumulator acc;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    acc.Add(v);
  }
  EXPECT_EQ(acc.count(), 8u);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  EXPECT_DOUBLE_EQ(acc.min(), 2.0);
  EXPECT_DOUBLE_EQ(acc.max(), 9.0);
  EXPECT_NEAR(acc.stddev(), 2.138, 1e-3);  // Sample stddev.
}

TEST(StatsTest, EmptyAccumulatorIsZero) {
  StatAccumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_EQ(acc.mean(), 0.0);
  EXPECT_EQ(acc.variance(), 0.0);
}

TEST(StatsTest, PercentilesInterpolate) {
  SampleSet s;
  for (int i = 1; i <= 100; ++i) {
    s.Add(i);
  }
  EXPECT_DOUBLE_EQ(s.Percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.Percentile(100), 100.0);
  EXPECT_NEAR(s.Percentile(50), 50.5, 1e-9);
  EXPECT_NEAR(s.Percentile(95), 95.05, 1e-9);
}

TEST(StatsTest, BoxplotSummary) {
  SampleSet s;
  for (double v : {1.0, 2.0, 3.0, 4.0, 5.0}) {
    s.Add(v);
  }
  BoxplotSummary box = s.Boxplot();
  EXPECT_DOUBLE_EQ(box.min, 1.0);
  EXPECT_DOUBLE_EQ(box.median, 3.0);
  EXPECT_DOUBLE_EQ(box.max, 5.0);
  EXPECT_EQ(box.count, 5u);
  EXPECT_FALSE(box.ToString().empty());
}

TEST(TimeSeriesTest, WindowAggregates) {
  TimeSeries ts("qps");
  for (int i = 0; i < 10; ++i) {
    ts.Add(Seconds(i), i < 5 ? 100.0 : 200.0);
  }
  EXPECT_DOUBLE_EQ(ts.MeanInWindow(0, Seconds(5)), 100.0);
  EXPECT_DOUBLE_EQ(ts.MeanInWindow(Seconds(5), Seconds(10)), 200.0);
  EXPECT_DOUBLE_EQ(ts.MinInWindow(0, Seconds(10)), 100.0);
}

TEST(TimeSeriesTest, LongestGapFindsServiceInterruption) {
  TimeSeries ts("qps");
  // 1-second sampling; zero QPS from t=50..58 inclusive (9 samples).
  for (int i = 0; i < 100; ++i) {
    ts.Add(Seconds(i), (i >= 50 && i <= 58) ? 0.0 : 30000.0);
  }
  SimDuration gap = ts.LongestGapBelow(1.0);
  EXPECT_EQ(gap, Seconds(9));
}

TEST(TimeSeriesTest, TsvHasOneLinePerPoint) {
  TimeSeries ts("x");
  ts.Add(0, 1.0);
  ts.Add(Seconds(1), 2.0);
  std::string tsv = ts.ToTsv();
  EXPECT_EQ(std::count(tsv.begin(), tsv.end(), '\n'), 2);
}

TEST(ExecutorTest, DispatchesInTimeOrder) {
  SimExecutor ex;
  std::vector<int> order;
  ex.ScheduleAt(Seconds(3), [&] { order.push_back(3); });
  ex.ScheduleAt(Seconds(1), [&] { order.push_back(1); });
  ex.ScheduleAt(Seconds(2), [&] { order.push_back(2); });
  ex.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(ex.now(), Seconds(3));
}

TEST(ExecutorTest, FifoAmongEqualTimestamps) {
  SimExecutor ex;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    ex.ScheduleAt(Seconds(1), [&order, i] { order.push_back(i); });
  }
  ex.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ExecutorTest, EventsCanScheduleMoreEvents) {
  SimExecutor ex;
  int fired = 0;
  ex.ScheduleAt(Seconds(1), [&] {
    ++fired;
    ex.ScheduleAfter(Seconds(1), [&] { ++fired; });
  });
  ex.Run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(ex.now(), Seconds(2));
}

TEST(ExecutorTest, RunUntilStopsAtDeadline) {
  SimExecutor ex;
  int fired = 0;
  ex.ScheduleAt(Seconds(1), [&] { ++fired; });
  ex.ScheduleAt(Seconds(10), [&] { ++fired; });
  ex.RunUntil(Seconds(5));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(ex.now(), Seconds(5));
  EXPECT_EQ(ex.pending_events(), 1u);
}

TEST(ExecutorTest, StopAborts) {
  SimExecutor ex;
  int fired = 0;
  ex.ScheduleAt(Seconds(1), [&] {
    ++fired;
    ex.Stop();
  });
  ex.ScheduleAt(Seconds(2), [&] { ++fired; });
  ex.Run();
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(ex.stopped());
}

TEST(ExecutorTest, StopDoesNotPoisonSubsequentRuns) {
  // An aborted run (e.g. a fleet-rollout abort) leaves stopped_ set; the
  // next Run() must consume it and dispatch both the abandoned event and
  // any new work.
  SimExecutor ex;
  int fired = 0;
  ex.ScheduleAt(Seconds(1), [&] {
    ++fired;
    ex.Stop();
  });
  ex.ScheduleAt(Seconds(2), [&] { ++fired; });
  ex.Run();
  ASSERT_EQ(fired, 1);
  ASSERT_TRUE(ex.stopped());

  ex.ScheduleAt(Seconds(3), [&] { ++fired; });
  ex.Run();
  EXPECT_EQ(fired, 3);
  EXPECT_FALSE(ex.stopped());
  EXPECT_EQ(ex.now(), Seconds(3));
}

TEST(ExecutorTest, StopBeforeRunUntilIsConsumed) {
  SimExecutor ex;
  ex.Stop();
  int fired = 0;
  ex.ScheduleAt(Seconds(1), [&] { ++fired; });
  ex.RunUntil(Seconds(5));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(ex.now(), Seconds(5));
}

TEST(ExecutorTest, ClosureThatGrowsThePoolDispatchesInTimeSeqOrder) {
  // One closure schedules 10 000 events while it runs, growing the slot pool
  // many times over; it must stay valid afterwards (it was moved out of its
  // slot before the call), and its events dispatch in (time, seq) order.
  SimExecutor ex;
  constexpr int kEvents = 10000;
  std::vector<std::pair<SimTime, int>> order;
  size_t tag_size_after = 0;
  const std::string tag(64, 'x');  // Too big to sit in std::function's inline buffer.
  ex.ScheduleAt(Seconds(1), [&, tag] {
    for (int i = 0; i < kEvents; ++i) {
      // 97 distinct times, so most times carry ~100 events in FIFO order.
      const SimTime t = Seconds(2) + Millis((i * 31) % 97);
      ex.ScheduleAt(t, [&order, &ex, i] { order.emplace_back(ex.now(), i); });
    }
    tag_size_after = tag.size();
  });
  ex.Run();
  EXPECT_EQ(tag_size_after, tag.size());
  ASSERT_EQ(order.size(), static_cast<size_t>(kEvents));
  // Scheduled in index order, so seq order is index order.
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
  EXPECT_EQ(ex.now(), Seconds(2) + Millis(96));
  EXPECT_EQ(ex.pending_events(), 0u);
}

TEST(ExecutorTest, DisownedEventsStillTickTheClock) {
  SimExecutor ex;
  const SimExecutor::Owner gone = ex.NewOwner();
  const SimExecutor::Owner kept = ex.NewOwner();
  EXPECT_NE(gone, kept);
  std::vector<std::string> fired;
  ex.ScheduleAt(Seconds(1), [&] { fired.push_back("gone@1"); }, gone);
  ex.ScheduleAt(Seconds(2), [&] { fired.push_back("untagged@2"); });
  ex.ScheduleAt(Seconds(3), [&] { fired.push_back("kept@3"); }, kept);
  ex.ScheduleAt(Seconds(4), [&] { fired.push_back("gone@4"); }, gone);
  ex.Disown(gone);
  // The campaign's stride reads both: disowning changes neither.
  EXPECT_EQ(ex.pending_events(), 4u);
  EXPECT_EQ(ex.NextEventTime(), Seconds(1));

  ex.RunUntil(Seconds(1));
  EXPECT_EQ(ex.now(), Seconds(1));
  EXPECT_EQ(ex.pending_events(), 3u);  // The disowned event dispatched as a no-op.
  ex.Run();
  EXPECT_EQ(fired, (std::vector<std::string>{"untagged@2", "kept@3"}));
  EXPECT_EQ(ex.now(), Seconds(4));  // The last disowned event still moved the clock.
  EXPECT_EQ(ex.pending_events(), 0u);

  // A fresh owner's events run even where the disowned owner's slots were.
  ex.ScheduleAfter(Seconds(1), [&] { fired.push_back("new@5"); }, ex.NewOwner());
  ex.Run();
  EXPECT_EQ(fired.back(), "new@5");
}

TEST(SimExecutorDeathTest, RunUntilCannotMoveTheClockBack) {
  EXPECT_DEATH(
      {
        SimExecutor ex;
        ex.RunUntil(Seconds(10));
        ex.RunUntil(Seconds(5));
      },
      "check failed");
}

TEST(SimExecutorDeathTest, ScheduleAtRejectsThePast) {
  EXPECT_DEATH(
      {
        SimExecutor ex;
        ex.RunUntil(Seconds(10));
        ex.ScheduleAt(Seconds(1), [] {});
      },
      "check failed");
}

TEST(SimExecutorDeathTest, ScheduleAfterRejectsNegativeDelays) {
  EXPECT_DEATH(
      {
        SimExecutor ex;
        ex.ScheduleAfter(-1, [] {});
      },
      "check failed");
}

TEST(SimExecutorDeathTest, AdvanceToCannotMoveTheClockBack) {
  EXPECT_DEATH(
      {
        SimExecutor ex;
        ex.AdvanceTo(Seconds(10));
        ex.AdvanceTo(Seconds(5));
      },
      "check failed");
}

TEST(SimExecutorDeathTest, AdvanceToCannotSkipPendingEvents) {
  EXPECT_DEATH(
      {
        SimExecutor ex;
        ex.ScheduleAt(Seconds(1), [] {});
        ex.AdvanceTo(Seconds(2));
      },
      "check failed");
}

TEST(ParallelMakespanTest, SingleWorkerIsSum) {
  EXPECT_EQ(ParallelMakespan({Seconds(1), Seconds(2), Seconds(3)}, 1), Seconds(6));
}

TEST(ParallelMakespanTest, ManyWorkersIsMax) {
  EXPECT_EQ(ParallelMakespan({Seconds(1), Seconds(2), Seconds(3)}, 8), Seconds(3));
}

TEST(ParallelMakespanTest, BalancedSplit) {
  // 12 equal 400 ms jobs on 6 workers -> two rounds.
  std::vector<SimDuration> jobs(12, Millis(400));
  EXPECT_EQ(ParallelMakespan(jobs, 6), Millis(800));
  // Same jobs on 26 workers -> one round.
  EXPECT_EQ(ParallelMakespan(jobs, 26), Millis(400));
}

TEST(ParallelMakespanTest, EmptyIsZero) { EXPECT_EQ(ParallelMakespan({}, 4), 0); }

TEST(ParallelMakespanTest, NonPositiveWorkersFallBackToSerial) {
  // Release builds used to hit undefined behavior here: the workers>=1
  // assert compiled out and min_element ran over an empty load vector.
  EXPECT_EQ(ParallelMakespan({Seconds(1), Seconds(2), Seconds(3)}, 0), Seconds(6));
  EXPECT_EQ(ParallelMakespan({Seconds(4), Seconds(5)}, -5), Seconds(9));
  EXPECT_EQ(ParallelMakespan({}, 0), 0);
}

TEST(StatsTest, StddevOfZeroOrOneSampleIsZero) {
  SampleSet s;
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
  s.Add(42.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);  // n-1 denominator must not divide by 0.
  EXPECT_DOUBLE_EQ(s.mean(), 42.0);
  s.Add(44.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(2.0), 1e-12);
}

TEST(StatsTest, PercentileCacheInvalidatedByAdd) {
  // Percentile now sorts once and caches; adding a sample after a query must
  // invalidate the cache, and results must match the sort-per-call behavior.
  SampleSet cached;
  for (double v : {9.0, 1.0, 5.0, 3.0, 7.0}) {
    cached.Add(v);
  }
  EXPECT_DOUBLE_EQ(cached.Percentile(50), 5.0);
  EXPECT_DOUBLE_EQ(cached.Percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(cached.Percentile(100), 9.0);

  // A new minimum after the first query must be visible.
  cached.Add(0.0);
  EXPECT_DOUBLE_EQ(cached.Percentile(0), 0.0);
  EXPECT_DOUBLE_EQ(cached.Percentile(50), 4.0);  // (3+5)/2 over {0,1,3,5,7,9}.

  // The caller-visible sample order is untouched by sorting.
  EXPECT_EQ(cached.samples().front(), 9.0);
  EXPECT_EQ(cached.samples().back(), 0.0);

  // Interpolated ranks agree with the reference computation on a fresh set.
  SampleSet reference;
  for (int i = 1; i <= 100; ++i) {
    reference.Add(i);
  }
  EXPECT_NEAR(reference.Percentile(95), 95.05, 1e-9);
  EXPECT_NEAR(reference.Percentile(95), 95.05, 1e-9);  // Second query: cached path.
}

}  // namespace
}  // namespace hypertp
