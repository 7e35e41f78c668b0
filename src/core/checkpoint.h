// VM checkpointing: packages a paused VM's complete state — UISR platform
// description plus guest page contents — into one portable, CRC-protected
// blob. Because the platform state travels as UISR, a checkpoint taken on
// one hypervisor restores under any other: a cold (suspend-to-disk shaped)
// variant of the transplant, and the mechanism behind Nova's suspend/resume
// integration point (paper §4.5.2 step 1: "guest state saving, akin to the
// existing suspend operation").

#ifndef HYPERTP_SRC_CORE_CHECKPOINT_H_
#define HYPERTP_SRC_CORE_CHECKPOINT_H_

#include <span>
#include <vector>

#include "src/base/result.h"
#include "src/hv/hypervisor.h"

namespace hypertp {

// Serializes the paused VM `id` into a self-contained blob. The VM is left
// paused on `hv` (callers typically DestroyVm afterwards).
Result<std::vector<uint8_t>> SaveVmCheckpoint(Hypervisor& hv, VmId id);

// Recreates a VM from `blob` on `hv` (fresh memory allocation, pages applied,
// VM left paused). Fails with kDataLoss on a corrupt or truncated blob and
// kAlreadyExists when a VM with the same uid already runs on `hv`. A failed
// restore leaves no VM behind.
Result<VmId> RestoreVmCheckpoint(Hypervisor& hv, std::span<const uint8_t> blob);

// Peeks at a checkpoint's header without restoring.
struct CheckpointInfo {
  uint64_t vm_uid = 0;
  std::string name;
  std::string source_hypervisor;
  uint64_t memory_bytes = 0;
  uint32_t vcpus = 0;
  uint64_t page_count = 0;  // Non-zero guest pages captured.
};
Result<CheckpointInfo> InspectCheckpoint(std::span<const uint8_t> blob);

}  // namespace hypertp

#endif  // HYPERTP_SRC_CORE_CHECKPOINT_H_
