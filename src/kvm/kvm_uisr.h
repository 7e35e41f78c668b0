// KVMish's UISR translation layer (the kvmtool-side to_uisr_*/from_uisr_*
// functions, paper §4.2.1). kvmtool is the component that understands UISR
// on the KVM side and talks to the kernel module through ioctl-shaped state.

#ifndef HYPERTP_SRC_KVM_KVM_UISR_H_
#define HYPERTP_SRC_KVM_KVM_UISR_H_

#include "src/base/result.h"
#include "src/hv/hypervisor.h"
#include "src/kvm/kvm_formats.h"
#include "src/uisr/records.h"

namespace hypertp {

// KVM ioctl state -> UISR. Structural MSRs (APIC base, PAT, MTRRs, TSC
// deadline) are lifted out of the generic list into UISR's typed records.
Result<UisrVcpu> KvmVcpuToUisr(const KvmVcpuState& state);

// UISR -> KVM ioctl state. The MSR list is assembled sorted by index and
// includes the structural MSRs, matching what KVM_SET_MSRS would receive.
Result<KvmVcpuState> KvmVcpuFromUisr(const UisrVcpu& vcpu);

// Platform-level: vCPUs + IRQCHIP(IOAPIC) + PIT2 into an existing UisrVm.
Result<void> KvmPlatformToUisr(const std::vector<KvmVcpuState>& vcpus,
                               const KvmIoapicState& ioapic, const KvmPitState2& pit,
                               UisrVm& out);

struct KvmPlatform {
  std::vector<KvmVcpuState> vcpus;
  KvmIoapicState ioapic;
  KvmPitState2 pit;
};

// UISR -> KVM platform. Active IOAPIC pins beyond KVM's 24 are folded
// (FoldIoapicPins): disconnected, one fixup each (§4.2.1: "our
// implementation simply disconnects the higher 24 IOAPIC pins"), or with
// `remap_high_pins` moved to free low pins with the guest notified.
Result<KvmPlatform> KvmPlatformFromUisr(const UisrVm& vm, FixupLog* log,
                                        bool remap_high_pins = false);

}  // namespace hypertp

#endif  // HYPERTP_SRC_KVM_KVM_UISR_H_
