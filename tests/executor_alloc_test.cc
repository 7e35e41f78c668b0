// Counts heap allocations across a fleet rollout on a warm executor: the
// fleet event loop must not allocate per event. The controller's closures fit
// std::function's inline buffer and the executor recycles its closure slots,
// so what allocates is per-wave and per-rollout bookkeeping, not per-event.
// It also counts the bytes a started controller keeps per host, the figure
// that sets a million-host campaign's footprint.
//
// This binary replaces the global operator new, so it holds no other test.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <type_traits>
#include <utility>

#include "src/fleet/fleet_controller.h"

namespace {
std::atomic<uint64_t> g_allocations{0};
// Bytes requested by the blocks still allocated. Each block carries its size
// in a header ahead of the pointer handed out, so delete can subtract it.
std::atomic<int64_t> g_live_bytes{0};
constexpr std::size_t kHeader = alignof(std::max_align_t);
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* block = std::malloc(kHeader + size)) {
    *static_cast<std::size_t*>(block) = size;
    g_live_bytes.fetch_add(static_cast<int64_t>(size), std::memory_order_relaxed);
    return static_cast<char*>(block) + kHeader;
  }
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept {
  if (p == nullptr) {
    return;
  }
  void* block = static_cast<char*>(p) - kHeader;
  g_live_bytes.fetch_sub(static_cast<int64_t>(*static_cast<std::size_t*>(block)),
                         std::memory_order_relaxed);
  std::free(block);
}
void operator delete(void* p, std::size_t) noexcept { operator delete(p); }

namespace hypertp {
namespace {

// What makes std::function store a closure inline (libstdc++: trivially
// copyable and no larger than its two-word buffer).
static_assert(std::is_trivially_copyable_v<FleetController::EventCall>);
static_assert(sizeof(FleetController::EventCall) <= 2 * sizeof(void*));

// The two per-host records every controller keeps for every host.
static_assert(sizeof(FleetHost) <= 12);
static_assert(sizeof(Rng) == 40);

FleetConfig FixedFleet() {
  FleetConfig config;
  config.hosts = 1000;
  config.parallel_hosts = 50;
  config.drain_time = Seconds(1);
  config.per_host_transplant = Seconds(10);
  config.seed = 7;
  return config;
}

TEST(ExecutorAllocTest, FleetEventsDoNotAllocate) {
  SimExecutor executor;
  {
    // Warms the executor's slot pool and heap to the rollout's depth.
    FleetController warmup(executor, FixedFleet());
    ASSERT_TRUE(warmup.Run().complete);
  }
  FleetController controller(executor, FixedFleet());
  const uint64_t before = g_allocations.load();
  const FleetRolloutReport& report = controller.Run();
  const uint64_t allocations = g_allocations.load() - before;
  ASSERT_TRUE(report.complete);
  // Every upgraded host dispatched at least two events: its drain's end and
  // its transplant's end.
  const uint64_t events = 2 * static_cast<uint64_t>(report.upgraded);
  EXPECT_LE(allocations * 10, events) << allocations << " allocations for " << events
                                      << " dispatched events";
}

// A crash arrival draws its victims from an index kept current as hosts
// change state: it neither copies the queue nor lists the serving hosts, so
// a storm costs fewer allocations than it has arrivals.
TEST(ExecutorAllocTest, CrashArrivalsDoNotAllocate) {
  FleetConfig config = FixedFleet();
  config.crash_storm.rate_per_hour = 20000.0;
  config.crash_storm.duration = Seconds(200);
  config.crash_storm.recovery_time = Seconds(5);
  config.crash_storm.cross_kind_fraction = 0.5;
  SimExecutor executor;
  {
    FleetController warmup(executor, config);
    ASSERT_TRUE(warmup.Run().complete);
  }
  FleetController controller(executor, config);
  const uint64_t before = g_allocations.load();
  const FleetRolloutReport& report = controller.Run();
  const uint64_t allocations = g_allocations.load() - before;
  ASSERT_TRUE(report.complete);
  // Burst 1: every arrival that found a victim struck exactly one host.
  const auto arrivals = static_cast<uint64_t>(report.crashes);
  ASSERT_GE(arrivals, 500u);
  EXPECT_LT(allocations, arrivals) << allocations << " allocations for " << arrivals
                                   << " crash arrivals";
}

// What a constructed and started adaptive controller keeps per host,
// counting the global ids a campaign shard hands it: its host record, RNG
// stream, plan index and pending-queue links, with the ids released once
// they became plan indices and no crash bookkeeping without a storm.
TEST(ExecutorAllocTest, StartedControllerHoldsAtMost64BytesAHost) {
  constexpr int kHosts = 100'000;
  SimExecutor executor;
  const int64_t before = g_live_bytes.load();
  FleetConfig config;
  config.hosts = kHosts;
  config.parallel_hosts = 50;
  config.fault_domains = 100;
  config.policy.mode = policy::PolicyMode::kAdaptive;
  config.policy_host_global_ids.reserve(kHosts);
  for (int i = 0; i < kHosts; ++i) {
    config.policy_host_global_ids.push_back(int64_t{3} * i + 7);
  }
  FleetController controller(executor, std::move(config));
  ASSERT_FALSE(controller.config_error().has_value());
  controller.Start();
  const int64_t held = g_live_bytes.load() - before;
  EXPECT_LE(held, int64_t{64} * kHosts)
      << held << " bytes held for " << kHosts << " hosts ("
      << static_cast<double>(held) / kHosts << " B a host)";
}

}  // namespace
}  // namespace hypertp
