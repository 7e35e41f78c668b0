// KVMish: the simulated type-II hypervisor (Linux host kernel + kvm module +
// one kvmtool VMM process per VM).
//
// The host Linux owns a slice of RAM as HV State. Each VM is a KvmVm record:
// kernel-side state in KVM's UAPI-shaped formats plus a kvmtool process that
// owns the device models and the guest memory mapping (memslots backed by
// anonymous huge-page allocations — a deliberately different allocation
// policy from XenVisor's chunked/interleaved one). Everything the three
// simulated hosts share lives in HostCore (src/hv/host_core.h).

#ifndef HYPERTP_SRC_KVM_KVM_HOST_H_
#define HYPERTP_SRC_KVM_KVM_HOST_H_

#include "src/hv/host_core.h"
#include "src/kvm/cfs_scheduler.h"
#include "src/kvm/kvm_uisr.h"

namespace hypertp {

// The common header carries the vm fd as `id`, the memslots as `memory`, and
// kvmtool's pid and device models as `vmm_pid` and `devices`.
struct KvmVm : HostedVm {
  KvmPlatform platform;  // vCPUs, KVM_IRQCHIP state (24 pins), PIT.

  uint32_t vcpu_count() const { return static_cast<uint32_t>(platform.vcpus.size()); }
};

class KvmHost : public HostCore<KvmVm> {
 public:
  explicit KvmHost(Machine& machine);

  const CfsScheduler& scheduler() const { return scheduler_; }

 private:
  Result<void> SeedPlatform(KvmVm& vm, uint32_t vcpus) override;
  void WireVirtioPin(KvmVm& vm, uint32_t instance) override;
  Result<void> PlatformFromUisr(KvmVm& vm, const UisrVm& uisr, bool remap_high_pins,
                                FixupLog* log) override;
  Result<void> PlatformToUisr(const KvmVm& vm, UisrVm& out, FixupLog* log) const override;
  void ApplyGuestEvent(KvmVm& vm, GuestEventKind kind) override;
  void AdvanceClocks(KvmVm& vm, SimDuration delta) override;
  void ScheduleVcpus(const KvmVm& vm) override;
  void UnscheduleVm(const KvmVm& vm) override;
  void ResetScheduler() override;

  CfsScheduler scheduler_;
};

}  // namespace hypertp

#endif  // HYPERTP_SRC_KVM_KVM_HOST_H_
