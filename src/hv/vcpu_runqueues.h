// vCPU runqueue membership: the VM Management State every simulated host
// keeps (paper §3.1). It references VM_i State by uid and is never
// translated across a transplant; each kind rebuilds it from its VM records.

#ifndef HYPERTP_SRC_HV_VCPU_RUNQUEUES_H_
#define HYPERTP_SRC_HV_VCPU_RUNQUEUES_H_

#include <compare>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace hypertp {

struct QueuedVcpu {
  uint64_t vm_uid = 0;
  uint32_t vcpu = 0;

  auto operator<=>(const QueuedVcpu&) const = default;
};

class VcpuRunqueues {
 public:
  // One queue per hardware thread, and at least one.
  explicit VcpuRunqueues(int cpus);

  // Queues vCPUs 0..vcpus-1 of `vm_uid`, each on the first shortest queue.
  void AddVm(uint64_t vm_uid, uint32_t vcpus);
  void RemoveVm(uint64_t vm_uid);
  void Clear();

  size_t vcpu_count() const;
  const std::vector<std::vector<QueuedVcpu>>& queues() const { return queues_; }

 private:
  std::vector<std::vector<QueuedVcpu>> queues_;
};

}  // namespace hypertp

#endif  // HYPERTP_SRC_HV_VCPU_RUNQUEUES_H_
