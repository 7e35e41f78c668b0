// Speculative pre-translation (the platform-state analogue of pre-copy).
//
// While guests still run, PreTranslateVms performs each VM's Extract →
// UisrEncode under a per-VM micro-pause and parks the result in a
// PreTranslationCache keyed by Hypervisor::StateGeneration. At pause time the
// translation phase consults the cache:
//
//   - generation unchanged  -> adopt the cached blob for a small fixed check
//     cost (HostCostProfile::pretranslate_check) instead of a full translate;
//   - generation moved      -> re-extract and encode once, write the blob
//     into the parked PRAM frames, and charge the full translate cost scaled
//     by the payload fraction of the sections that changed (found by diffing
//     against the parked bytes through the section-offset table).
//
// The cache never changes output bytes: a reconciled blob is byte-identical
// to a from-scratch encode of the fresh extraction (pretranslate_test pins
// this), so pre_translate only moves charged time out of the pause window.

#ifndef HYPERTP_SRC_PIPELINE_PRETRANSLATE_H_
#define HYPERTP_SRC_PIPELINE_PRETRANSLATE_H_

#include <cstdint>
#include <vector>

#include "src/base/result.h"
#include "src/hv/hypervisor.h"
#include "src/hw/machine.h"
#include "src/pipeline/conversion.h"
#include "src/sim/worker_pool.h"
#include "src/uisr/codec.h"
#include "src/uisr/records.h"

namespace hypertp {
namespace pipeline {

// One VM's speculative translation, valid while the VM's state generation
// still equals `generation`.
struct PreTranslatedVm {
  uint64_t vm_uid = 0;
  uint64_t generation = 0;
  UisrVm state;                  // As extracted (pram_file_id already set).
  std::vector<uint8_t> blob;     // EncodeUisrVm(state).
  UisrSectionLayout layout;      // Section-offset table of `blob`.
  FixupLog fixups;               // Fixups the speculative extract recorded.

  // Where `blob`'s bytes already sit in PRAM-destined kUisr frames, parked
  // outside the pause window (count == 0 when no park_memory was supplied).
  // On a pause-time generation hit the translation phase only registers the
  // PRAM file over this extent — zero blob bytes move inside the window; an
  // invalidated blob is reconciled inside it (ReconcilePreTranslated). The
  // extent is owned by the transplant (kUisr, vm_uid), so abort/cleanup
  // reclaim it like any other UISR extent.
  FrameExtent parked;
};

// The cache the pause-time translation phase consults. Built once per
// transplant; read-only afterwards.
struct PreTranslationCache {
  std::vector<PreTranslatedVm> vms;

  const PreTranslatedVm* Find(uint64_t vm_uid) const;
};

// What PreTranslateVms needs to know about one VM. `pram_file_id` must be
// the id PrepareVms registered for the VM's guest memory — it is baked into
// the encoded blob's header, so pre-translation has to run after PRAM
// construction.
struct PreTranslateRequest {
  VmId id = 0;
  uint64_t vm_uid = 0;
  uint64_t pram_file_id = 0;
  uint32_t vcpus = 0;
  uint64_t memory_bytes = 0;
};

// Extracts and encodes every requested VM while the fleet runs: each VM is
// individually micro-paused for its extract (SaveVmToUisr requires kPaused)
// and resumed immediately — generations do not move across pause/resume/save,
// so the snapshot stays valid until the guest really runs again. Encodes run
// on up to `real_threads` OS threads (wall-clock only). The returned schedule
// lays one full TranslateStageCost per VM over `workers` modeled workers;
// the caller charges its makespan outside the pause window.
//
// With a non-null `park_memory`, each encoded blob is additionally parked in
// a freshly allocated kUisr extent there (serially, in request order). A
// pause-time generation hit then registers the PRAM file over the parked
// extent instead of copying the blob inside the window. InPlaceTransplant
// always parks, and its translation phase refuses an entry that did not.
Result<WorkSchedule> PreTranslateVms(Hypervisor& source, const HostCostProfile& costs,
                                     const std::vector<PreTranslateRequest>& requests,
                                     int workers, int real_threads,
                                     PreTranslationCache* cache,
                                     PhysicalMemory* park_memory = nullptr);

// How one VM's pause-time translation was satisfied.
enum class ReconcileKind : uint8_t {
  kHit = 0,        // No section payload differed from the parked blob.
  kPatched = 1,    // Some section payloads differed; same section structure.
  kReencoded = 2,  // Structural change (section count/size).
};

struct ReconcileResult {
  ReconcileKind kind = ReconcileKind::kReencoded;
  StoredUisrBlob stored;  // The registered "uisr:<vm_uid>" PRAM file.
  size_t patched_sections = 0;
  size_t patched_bytes = 0;      // Payload bytes charged (all of them on a structural change).
  size_t total_payload_bytes = 0;
};

// Brings the parked blob of an invalidated cache entry up to date with
// `fresh` and registers it as the PRAM file "uisr:<vm_uid>". `fresh` is
// encoded once; when its (type, payload size) section sequence matches
// `cached.layout`, the sections whose payloads differ from the parked bytes
// set the charge, otherwise every payload byte does. The blob is copied into
// the parked frames while the frame count holds; else the parking is freed
// and the blob stored anew (ParkUisrBlob + RegisterParkedBlob). Either way
// the PRAM bytes equal EncodeUisrVm(fresh). `cached` must have a parked
// extent in `memory`.
Result<ReconcileResult> ReconcilePreTranslated(PhysicalMemory& memory, PramBuilder& builder,
                                               const PreTranslatedVm& cached,
                                               const UisrVm& fresh);

}  // namespace pipeline
}  // namespace hypertp

#endif  // HYPERTP_SRC_PIPELINE_PRETRANSLATE_H_
