// BhyveVisor's UISR translation layer. Adding this hypervisor to the
// repertoire cost exactly two converters (to/from UISR) — the 2N scaling the
// paper's §3.1 claims for UISR, versus the 2(N-1) pairwise converters that
// direct translation against both existing hypervisors would have needed.

#ifndef HYPERTP_SRC_BHYVE_BHYVE_UISR_H_
#define HYPERTP_SRC_BHYVE_BHYVE_UISR_H_

#include "src/base/result.h"
#include "src/bhyve/bhyve_formats.h"
#include "src/hv/hypervisor.h"
#include "src/uisr/records.h"

namespace hypertp {

// Per-vCPU translation. On the way in, MSRs without a bhyve slot and an EFER
// MSR that disagrees with sregs.efer are dropped with a fixup each
// (ScatterFixedSlotMsrs).
Result<UisrVcpu> BhyveVcpuToUisr(const BhyveVcpu& vcpu);
Result<BhyveVcpu> BhyveVcpuFromUisr(const UisrVcpu& vcpu, uint64_t vm_uid, FixupLog* log);

// Platform translation. Lossy parts, each with a fixup entry:
//  - UISR -> bhyve drops PIT state (bhyve guests use the HPET);
//  - IOAPIC pins beyond 32 are remapped to free pins (when `remap_high_pins`)
//    or disconnected.
// bhyve -> UISR synthesizes a reset-default PIT.
Result<BhyvePlatform> BhyvePlatformFromUisr(const UisrVm& vm, FixupLog* log,
                                            bool remap_high_pins = false);
Result<void> BhyvePlatformToUisr(const BhyvePlatform& platform, UisrVm& out, FixupLog* log);

}  // namespace hypertp

#endif  // HYPERTP_SRC_BHYVE_BHYVE_UISR_H_
