// XenVisor: the simulated type-I hypervisor.
//
// Runs on the bare (simulated) machine: the Xen core plus a dom0 Linux own a
// slice of RAM as HV State; guests are XenDomain records whose platform state
// lives in Xen's native formats (src/xen/xen_formats.h). Guest memory is
// allocated through a chunked policy that interleaves NPT allocations, so a
// domain's frames are scattered — which is what makes PRAM's scatter-gather
// description necessary (paper §4.2.2). Everything the three simulated hosts
// share lives in HostCore (src/hv/host_core.h).

#ifndef HYPERTP_SRC_XEN_XENVISOR_H_
#define HYPERTP_SRC_XEN_XENVISOR_H_

#include "src/hv/host_core.h"
#include "src/xen/credit_scheduler.h"
#include "src/xen/xen_domain.h"

namespace hypertp {

class XenVisor : public HostCore<XenDomain> {
 public:
  // Boots XenVisor on `machine`: allocates the Xen heap and dom0 memory.
  explicit XenVisor(Machine& machine);

  // --- Xen-specific introspection (tests, libxl-equivalent tooling) --------
  Result<const XenDomain*> FindDomain(VmId id) const { return FindVm(id); }
  const CreditScheduler& scheduler() const { return scheduler_; }

 private:
  Result<void> SeedPlatform(XenDomain& domain, uint32_t vcpus) override;
  void WireVirtioPin(XenDomain& domain, uint32_t instance) override;
  Result<void> PlatformFromUisr(XenDomain& domain, const UisrVm& uisr, bool remap_high_pins,
                                FixupLog* log) override;
  Result<void> PlatformToUisr(const XenDomain& domain, UisrVm& out, FixupLog* log) const override;
  void ApplyGuestEvent(XenDomain& domain, GuestEventKind kind) override;
  void AdvanceClocks(XenDomain& domain, SimDuration delta) override;
  void ScheduleVcpus(const XenDomain& domain) override;
  void UnscheduleVm(const XenDomain& domain) override;
  void ResetScheduler() override;
  void SetupPvInfrastructure(XenDomain& domain) override;
  uint64_t InterleavedNptFrames(uint64_t chunk) const override;
  uint64_t StateFrames(const XenDomain& domain) const override;

  CreditScheduler scheduler_;
};

}  // namespace hypertp

#endif  // HYPERTP_SRC_XEN_XENVISOR_H_
