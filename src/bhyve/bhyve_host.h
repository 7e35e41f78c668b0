// BhyveVisor: the simulated FreeBSD bhyve-style hypervisor (type-II).
//
// A FreeBSD host kernel with the vmm.ko module; each VM is driven by a
// user-space bhyve process. Guest memory comes from wired superpage chunks.
// The scheduler model is ULE-flavoured: a simple per-CPU round-robin with
// interactivity scoring omitted (VM Management State — rebuilt, never
// translated, like the other two). Everything the three simulated hosts
// share lives in HostCore (src/hv/host_core.h).

#ifndef HYPERTP_SRC_BHYVE_BHYVE_HOST_H_
#define HYPERTP_SRC_BHYVE_BHYVE_HOST_H_

#include <utility>
#include <vector>

#include "src/bhyve/bhyve_formats.h"
#include "src/hv/host_core.h"

namespace hypertp {

// Minimal ULE-ish run queue: vCPU threads round-robin per CPU.
class UleRunQueue {
 public:
  explicit UleRunQueue(int cpus);

  void AddThread(uint64_t vm_uid, uint32_t vcpu);
  void RemoveVm(uint64_t vm_uid);
  size_t total_threads() const;
  int cpus() const { return static_cast<int>(queues_.size()); }
  const std::vector<std::vector<std::pair<uint64_t, uint32_t>>>& queues() const {
    return queues_;
  }

 private:
  std::vector<std::vector<std::pair<uint64_t, uint32_t>>> queues_;
};

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

  const UleRunQueue& scheduler() const { return scheduler_; }

 private:
  Result<void> SeedPlatform(BhyveVm& vm, uint32_t vcpus) override;
  void WireVirtioPin(BhyveVm& vm, uint32_t instance) override;
  Result<void> PlatformFromUisr(BhyveVm& vm, const UisrVm& uisr, bool remap_high_pins,
                                FixupLog* log) override;
  Result<void> PlatformToUisr(const BhyveVm& vm, UisrVm& out, FixupLog* log) const override;
  void ApplyGuestEvent(BhyveVm& vm, GuestEventKind kind) override;
  void AdvanceClocks(BhyveVm& vm, SimDuration delta) override;
  void ScheduleVcpus(const BhyveVm& vm) override;
  void UnscheduleVm(const BhyveVm& vm) override;
  void ResetScheduler() override;

  UleRunQueue scheduler_;
};

}  // namespace hypertp

#endif  // HYPERTP_SRC_BHYVE_BHYVE_HOST_H_
