// Counts heap allocations across a fleet rollout on a warm executor: the
// fleet event loop must not allocate per event. The controller's closures fit
// std::function's inline buffer and the executor recycles its closure slots,
// so what allocates is per-wave and per-rollout bookkeeping, not per-event.
//
// This binary replaces the global operator new, so it holds no other test.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <type_traits>

#include "src/fleet/fleet_controller.h"

namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace hypertp {
namespace {

// What makes std::function store a closure inline (libstdc++: trivially
// copyable and no larger than its two-word buffer).
static_assert(std::is_trivially_copyable_v<FleetController::EventCall>);
static_assert(sizeof(FleetController::EventCall) <= 2 * sizeof(void*));

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

}  // namespace
}  // namespace hypertp
