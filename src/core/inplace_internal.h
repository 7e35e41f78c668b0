// Phase units of InPlaceTransplant::Run, split out of the former inplace.cc
// monolith. Run() (src/core/inplace.cc) owns the orchestration — ledger
// commits, kexec, abort/rollback — and calls these units in order:
//
//   PrepareVms        (pre-pause: PRAM entries, device prep, samples)
//   TranslateVms      (post-pause: Extract -> UisrEncode -> PramStore)
//   [kexec micro-reboot]
//   RestoreAllFromPram (PramLoad -> UisrDecode -> Restore)
//
// Each unit runs the per-VM conversion through src/pipeline/ stage functions
// and returns the WorkSchedule that charged its phase, so durations, per-VM
// trace spans and the PhaseBreakdown all derive from one schedule.

#ifndef HYPERTP_SRC_CORE_INPLACE_INTERNAL_H_
#define HYPERTP_SRC_CORE_INPLACE_INTERNAL_H_

#include <cstdint>
#include <vector>

#include "src/base/result.h"
#include "src/core/report.h"
#include "src/hv/hypervisor.h"
#include "src/pipeline/pretranslate.h"
#include "src/pram/pram.h"
#include "src/sim/worker_pool.h"

namespace hypertp {
namespace inplace_internal {

// Splits a guest memory map into PRAM page entries, emitting 2 MiB entries
// wherever both address spaces are huge-aligned.
std::vector<PramPageEntry> EntriesFromMappings(const std::vector<GuestMapping>& mappings,
                                               bool huge_pages);

// Resolves a gfn through a guest memory map.
Result<Mfn> TranslateInMap(const std::vector<GuestMapping>& map, Gfn gfn);

// Everything Run() carries per VM across the phases.
struct VmSnapshot {
  VmId id = 0;
  VmInfo info;
  std::vector<GuestMapping> map;
  uint64_t vm_file_id = 0;
  std::vector<Gfn> sample_gfns;
  std::vector<uint64_t> sample_words;
  std::vector<Mfn> sample_mfns;
  // kUisr extents holding this VM's encoded blob. The blob bytes themselves
  // live only in PRAM-destined frames (encoded straight into place); the
  // save side never materializes them in a host vector.
  std::vector<FrameExtent> uisr_frames;
};

// Pre-pause preparation: per-VM device prep, guest memory map -> PRAM file,
// verification samples. Fills `vms`; returns the PRAM-construction schedule
// (tasks in `vms` order) whose makespan is charged as phases.pram. Errors
// are returned raw; the caller's abort path wraps them.
Result<WorkSchedule> PrepareVms(Hypervisor& source, Machine& machine,
                                const InPlaceOptions& options, int workers,
                                PramBuilder& builder, std::vector<VmSnapshot>& vms);

// Post-pause translation: serial Extract per VM, then fused UisrEncode +
// PramStore — kUisr frames are allocated and registered serially in VM order
// and the encodes run straight into the mapped extents on `real_threads` OS
// threads (no intermediate blob vectors). Fills the per-VM report records;
// returns the translation schedule (tasks in `vms` order) charged as
// phases.translation. Honors the kTranslationFailure / kPramWriteFailure
// injection points.
//
// With a non-null `cache` (options.pre_translate), each VM's state generation
// is compared against its speculative pre-translation, which must cover the
// VM with a parked extent: a match registers the parked extent (zero blob
// bytes move) for pretranslate_check; a mismatch re-extracts and patches only
// the dirty UISR sections in the parked frames (ReconcilePreTranslated),
// charged at the full translate cost scaled by the dirtied payload fraction.
// Null (the pre_translate ablation) translates everything inside the pause.
Result<WorkSchedule> TranslateVms(Hypervisor& source, Machine& machine,
                                  const InPlaceOptions& options, int workers, int real_threads,
                                  PramBuilder& builder, TransplantReport& report,
                                  std::vector<VmSnapshot>& vms,
                                  const pipeline::PreTranslationCache* cache);

// What the restore side hands back to Run().
struct RestoreOutcome {
  std::vector<VmId> vms;
  // Per-VM uids, parallel to `schedule.tasks` (and to `vms`).
  std::vector<uint64_t> uids;
  // Restore schedule; its makespan is charged as phases.restoration (or
  // added to phases.rollback on the salvage path).
  WorkSchedule schedule;
};

// Restores every `uisr:` PRAM file under `hv`: serial PramLoad of all blobs,
// parallel UisrDecode, then serial Restore — the whole batch is decoded (and
// validated) before the first VM is relinked. Shared by the forward path
// (restore under the target) and the rollback path (salvage under the source
// kind); `inject` only ever carries a fault on the forward attempt. Errors
// come back unwrapped so the caller decides between rollback and kDataLoss.
Result<RestoreOutcome> RestoreAllFromPram(Hypervisor& hv, Machine& machine,
                                          const PramImage& pram, const InPlaceOptions& options,
                                          HypervisorKind kind, int workers, int real_threads,
                                          FixupLog* fixups, InPlaceOptions::Fault inject);

}  // namespace inplace_internal
}  // namespace hypertp

#endif  // HYPERTP_SRC_CORE_INPLACE_INTERNAL_H_
