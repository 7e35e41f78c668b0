#include "src/hv/vcpu_runqueues.h"

#include <algorithm>

namespace hypertp {

VcpuRunqueues::VcpuRunqueues(int cpus) : queues_(static_cast<size_t>(std::max(cpus, 1))) {}

void VcpuRunqueues::AddVm(uint64_t vm_uid, uint32_t vcpus) {
  for (uint32_t i = 0; i < vcpus; ++i) {
    std::ranges::min_element(queues_, {}, [](const auto& queue) { return queue.size(); })
        ->push_back(QueuedVcpu{vm_uid, i});
  }
}

void VcpuRunqueues::RemoveVm(uint64_t vm_uid) {
  for (auto& queue : queues_) {
    std::erase_if(queue, [vm_uid](const QueuedVcpu& q) { return q.vm_uid == vm_uid; });
  }
}

void VcpuRunqueues::Clear() {
  for (auto& queue : queues_) {
    queue.clear();
  }
}

size_t VcpuRunqueues::vcpu_count() const {
  size_t n = 0;
  for (const auto& queue : queues_) {
    n += queue.size();
  }
  return n;
}

}  // namespace hypertp
