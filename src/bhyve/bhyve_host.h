// BhyveVisor: the simulated FreeBSD bhyve-style hypervisor (type-II).
//
// A FreeBSD host kernel with the vmm.ko module; each VM is driven by a
// user-space bhyve process. Guest memory comes from wired superpage chunks.
// Everything the three simulated hosts share lives in HostCore
// (src/hv/host_core.h), including the vCPU runqueues: VM Management State
// that each kind rebuilds from its VM records and never translates.

#ifndef HYPERTP_SRC_BHYVE_BHYVE_HOST_H_
#define HYPERTP_SRC_BHYVE_BHYVE_HOST_H_

#include "src/bhyve/bhyve_formats.h"
#include "src/hv/host_core.h"

namespace hypertp {

// The common header carries the /dev/vmm handle as `id`, the
// vm_mmap_memseg-style mapping as `memory`, and the bhyve process's pid and
// device models as `vmm_pid` and `devices`.
struct BhyveVm : HostedVm {
  BhyvePlatform platform;

  uint32_t vcpu_count() const { return static_cast<uint32_t>(platform.vcpus.size()); }
};

class BhyveVisor : public HostCore<BhyveVm> {
 public:
  explicit BhyveVisor(Machine& machine);

 private:
  Result<void> SeedPlatform(BhyveVm& vm, uint32_t vcpus) override;
  void WireVirtioPin(BhyveVm& vm, uint32_t instance) override;
  Result<void> PlatformFromUisr(BhyveVm& vm, const UisrVm& uisr, bool remap_high_pins,
                                FixupLog* log) override;
  Result<void> PlatformToUisr(const BhyveVm& vm, UisrVm& out, FixupLog* log) const override;
  void ApplyGuestEvent(BhyveVm& vm, GuestEventKind kind) override;
  void AdvanceClocks(BhyveVm& vm, SimDuration delta) override;
};

}  // namespace hypertp

#endif  // HYPERTP_SRC_BHYVE_BHYVE_HOST_H_
