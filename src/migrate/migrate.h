// Live migration engine (pre-copy, paper §3.3 / §4.3).
//
// The engine moves a VM between two hypervisor hosts over a simulated
// network link. State moves for real: guest page contents are read from the
// source and applied at the destination; the VM_i State travels as a UISR
// blob produced/consumed by the source and destination proxies. Timing is
// computed with the classic pre-copy model: iterative rounds whose duration
// follows the link bandwidth while the guest keeps dirtying pages, then a
// stop-and-copy whose length (plus the destination's restore cost) is the
// downtime.
//
// Heterogeneity appears in two places the paper measures:
//  - downtime: kvmtool's restore is far lighter than xl/libxl's (Table 4);
//  - multi-VM variance: Xen's destination receives sequentially, so later
//    VMs accumulate extra dirty pages while queueing (Fig. 8/9 boxplots).

#ifndef HYPERTP_SRC_MIGRATE_MIGRATE_H_
#define HYPERTP_SRC_MIGRATE_MIGRATE_H_

#include <optional>
#include <string>
#include <vector>

#include "src/base/result.h"
#include "src/hv/hypervisor.h"
#include "src/sim/time.h"

namespace hypertp {

class Tracer;

// A point-to-point network path between two hosts.
struct NetworkLink {
  double gbps = 1.0;
  SimDuration rtt = Micros(200);
  double efficiency = 0.94;  // TCP + migration-protocol overhead.

  double bytes_per_second() const { return gbps * 1e9 / 8.0 * efficiency; }
  SimDuration TransferTime(uint64_t bytes) const;
};

// Transfer strategy. Pre-copy (paper §3.3/§4.3) keeps the VM running while
// iteratively copying; post-copy (an extension) moves execution first and
// streams pages behind it — minimal downtime, but the VM runs degraded while
// its working set faults in over the network, and a mid-stream failure loses
// the VM (no source to fall back to).
enum class MigrationMode : uint8_t { kPrecopy = 0, kPostcopy = 1 };

// Fault-injection points covering every step of the stop-and-copy phase, for
// testing the per-VM abort path: on any of these the destination VM (if
// created) is destroyed, dirty logging is re-enabled if it had been turned
// off, and the source VM is resumed — the guest never ends up lost, leaked,
// or running in two places.
enum class MigrationFault : uint8_t {
  kNone = 0,
  kPause,
  kFetchDirtyLog,
  kSaveUisr,
  kDecode,
  kRestore,
  kWritePage,
  kClockAdvance,
  kResume,
};

struct MigrationConfig {
  MigrationMode mode = MigrationMode::kPrecopy;
  int max_rounds = 30;
  // Guest behaviour while migrating: how fast it dirties pages and how large
  // its writable working set is (the dirty set saturates at the WSS).
  double dirty_pages_per_sec = 2000.0;
  uint64_t writable_working_set_pages = 0;  // 0 = 5% of guest memory.
  // Renegotiate IOAPIC pins the destination cannot host (§4.2.1 extension).
  bool remap_high_ioapic_pins = false;
  // Effective wire compression (adaptive memory compression, paper's [22]);
  // 1.0 = off. Wire bytes divide by this ratio.
  double compression_ratio = 1.0;
  // Testing: fire `inject_fault` while migrating the VM at index
  // `inject_fault_at_vm` of the batch's `src_ids`.
  MigrationFault inject_fault = MigrationFault::kNone;
  int inject_fault_at_vm = 0;
  // Observability: when non-null, each VM of the batch records a span tree
  // (pre-copy rounds, queue wait, stop-and-copy, restore) on its own track,
  // starting at `trace_base`. Null (the default) records nothing.
  Tracer* tracer = nullptr;
  SimTime trace_base = 0;
};

struct MigrationRound {
  uint64_t pages = 0;
  SimDuration duration = 0;
};

struct MigrationResult {
  VmId dest_vm_id = 0;
  SimDuration total_time = 0;
  SimDuration downtime = 0;
  SimDuration queue_wait = 0;  // Time spent waiting for a receiver slot.
  // Post-copy only: how long the VM ran at the destination while pages were
  // still faulting in over the link.
  SimDuration postcopy_fault_window = 0;
  uint64_t bytes_transferred = 0;
  uint64_t uisr_bytes = 0;
  int rounds = 0;
  bool converged = true;  // False when the round limit forced stop-and-copy.
  FixupLog fixups;
  std::vector<MigrationRound> round_log;
};

// One VM's fate within a batch migration. Exactly one of `result` / `error`
// is set: a VM either moved (and runs at the destination) or its migration
// aborted (and it runs, resumed, at the source). There is no third state.
struct VmMigrationOutcome {
  VmId src_id = 0;
  bool migrated = false;
  std::optional<MigrationResult> result;  // Set when migrated.
  std::optional<Error> error;             // Set when the migration aborted.
};

// Per-VM outcomes of a batch, in `src_ids` order. A VM's failure no longer
// hides the results of VMs that already moved: callers must consult each
// outcome to learn which host a given VM ended up on.
struct MigrationBatchResult {
  std::vector<VmMigrationOutcome> outcomes;

  bool all_migrated() const;
  size_t migrated_count() const;
  // The MigrationResults of the VMs that moved, in batch order.
  std::vector<MigrationResult> successes() const;
  // The first per-VM error, if any (convenience for single-VM callers).
  const Error* first_error() const;
};

class MigrationEngine {
 public:
  explicit MigrationEngine(NetworkLink link) : link_(link) {}

  // Migrates one VM from `src` to `dst`. On success the source VM has been
  // destroyed and the destination VM is running. On failure before the
  // point of no return the destination VM (if any) is destroyed, dirty
  // logging is restored, and the source VM is resumed and intact.
  Result<MigrationResult> MigrateVm(Hypervisor& src, VmId src_id, Hypervisor& dst,
                                    const MigrationConfig& config);

  // Migrates several VMs concurrently over the shared link. Pre-copy streams
  // divide the bandwidth; stop-and-copy/restore compete for the
  // destination's receiver slots (dst.migration_traits().receive_concurrency).
  // Outcomes are in the order of `src_ids`; one VM's failure aborts only
  // that VM (it is cleaned up and resumed at the source) and the remaining
  // VMs still migrate. The call itself only fails on batch-level misuse
  // (e.g. src == dst).
  Result<MigrationBatchResult> MigrateMany(Hypervisor& src, const std::vector<VmId>& src_ids,
                                           Hypervisor& dst, const MigrationConfig& config);

  const NetworkLink& link() const { return link_; }

 private:
  // Pure timing model for one VM's pre-copy phase given an effective
  // bandwidth share; returns rounds and the residual dirty pages.
  struct PrecopyPlan {
    std::vector<MigrationRound> rounds;
    uint64_t residual_pages = 0;
    uint64_t bytes = 0;
    SimDuration duration = 0;
    bool converged = true;
  };
  PrecopyPlan PlanPrecopy(uint64_t memory_bytes, const MigrationConfig& config,
                          double bandwidth_share) const;

  NetworkLink link_;
};

// One JSON object with timing, rounds, bytes, convergence and fixups.
std::string MigrationResultToJson(const MigrationResult& result);

}  // namespace hypertp

#endif  // HYPERTP_SRC_MIGRATE_MIGRATE_H_
