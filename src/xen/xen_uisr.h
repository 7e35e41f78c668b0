// XenVisor's UISR translation layer: the to_uisr_* / from_uisr_* functions
// of the paper (§3.1), written against Xen's native record formats.

#ifndef HYPERTP_SRC_XEN_XEN_UISR_H_
#define HYPERTP_SRC_XEN_XEN_UISR_H_

#include "src/base/result.h"
#include "src/hv/hypervisor.h"
#include "src/uisr/records.h"
#include "src/xen/xen_formats.h"

namespace hypertp {

// Translates one vCPU's Xen records into the neutral form. Lossless for
// every field UISR carries; Xen-internal bookkeeping (xcr0_accum) is dropped.
Result<UisrVcpu> XenVcpuToUisr(const XenVcpuContext& ctx);

// Translates a neutral vCPU into Xen records. MSRs that have no fixed slot
// in Xen's HVM CPU record are dropped with a fixup entry, as is an EFER MSR
// that disagrees with sregs.efer. FS/GS base MSRs are folded into the segment
// bases (they are the same architectural state).
Result<XenVcpuContext> XenVcpuFromUisr(const UisrVcpu& vcpu, uint64_t vm_uid, FixupLog* log);

// Whole-platform translation (vCPUs + IOAPIC + PIT) into an existing UisrVm
// whose header fields (uid, name, memory) the caller has already filled.
Result<void> XenPlatformToUisr(const XenHvmContext& ctx, UisrVm& out);

// Whole-platform translation from UISR into a fresh Xen HVM context. A
// narrower UISR IOAPIC is zero-extended; active pins beyond Xen's 48 are
// folded like on every target (FoldIoapicPins: remapped with
// `remap_high_pins`, else disconnected, one fixup each).
Result<XenHvmContext> XenPlatformFromUisr(const UisrVm& vm, FixupLog* log,
                                          bool remap_high_pins = false);

}  // namespace hypertp

#endif  // HYPERTP_SRC_XEN_XEN_UISR_H_
