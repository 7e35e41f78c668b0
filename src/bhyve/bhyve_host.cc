#include "src/bhyve/bhyve_host.h"

#include <algorithm>

#include "src/bhyve/bhyve_uisr.h"

namespace hypertp {
namespace {

constexpr HostConstants kBhyveConstants{
    .name = "bhyvish-13.1",
    .kind = HypervisorKind::kBhyve,
    .type = HypervisorType::kType2,
    .tag = "bhyve",
    .max_vcpus = 128,
    .first_id = 1,
    .first_pid = 700,
    // FreeBSD host kernel + userland.
    .hv_state_bytes = 1536ull << 20,
    // Guest memory comes in wired superpage chunks (512 MiB).
    .chunk_frames = 131072,
    // The bhyve process's working set per VM: 32 MiB.
    .vmm_frames = 8192,
    // The bhyve process restore path sits between xl and kvmtool.
    .migration = MigrationTraits{4, MillisF(8.0), MillisF(3.0)},
};

}  // namespace

UleRunQueue::UleRunQueue(int cpus) { queues_.resize(static_cast<size_t>(std::max(cpus, 1))); }

void UleRunQueue::AddThread(uint64_t vm_uid, uint32_t vcpu) {
  auto it = std::min_element(queues_.begin(), queues_.end(),
                             [](const auto& a, const auto& b) { return a.size() < b.size(); });
  it->emplace_back(vm_uid, vcpu);
}

void UleRunQueue::RemoveVm(uint64_t vm_uid) {
  for (auto& queue : queues_) {
    std::erase_if(queue, [vm_uid](const auto& t) { return t.first == vm_uid; });
  }
}

size_t UleRunQueue::total_threads() const {
  size_t n = 0;
  for (const auto& queue : queues_) {
    n += queue.size();
  }
  return n;
}

BhyveVisor::BhyveVisor(Machine& machine)
    : HostCore(machine, kBhyveConstants), scheduler_(machine.profile().threads) {}

Result<void> BhyveVisor::SeedPlatform(BhyveVm& vm, uint32_t vcpus) {
  FixupLog seed_log;
  for (uint32_t i = 0; i < vcpus; ++i) {
    HYPERTP_ASSIGN_OR_RETURN(BhyveVcpu vcpu,
                             BhyveVcpuFromUisr(MakeSyntheticVcpu(vm.uid, i), vm.uid, &seed_log));
    vm.platform.vcpus.push_back(std::move(vcpu));
  }
  vm.platform.ioapic.id = 0;
  vm.platform.ioapic.redirtbl[4] = 0x10004;  // COM1.
  return OkResult();
}

void BhyveVisor::WireVirtioPin(BhyveVm& vm, uint32_t instance) {
  // bhyve wires its virtio slots to pins 24..31 (within its 32-pin IOAPIC,
  // above KVM's 24 — so a bhyve->KVM transplant exercises the pin fixup).
  vm.platform.ioapic.redirtbl[24 + instance % 8] = 0x10050 + instance;
}

Result<void> BhyveVisor::PlatformFromUisr(BhyveVm& vm, const UisrVm& uisr, bool remap_high_pins,
                                          FixupLog* log) {
  HYPERTP_ASSIGN_OR_RETURN(vm.platform, BhyvePlatformFromUisr(uisr, log, remap_high_pins));
  return OkResult();
}

Result<void> BhyveVisor::PlatformToUisr(const BhyveVm& vm, UisrVm& out, FixupLog* log) const {
  return BhyvePlatformToUisr(vm.platform, out, log);
}

void BhyveVisor::ApplyGuestEvent(BhyveVm& vm, GuestEventKind kind) {
  switch (kind) {
    case GuestEventKind::kTimerTick:
      // 1 ms LAPIC timer period on the virtual 1 GHz TSC; the HPET main
      // counter (10 MHz) advances alongside.
      for (BhyveVcpu& vcpu : vm.platform.vcpus) {
        vcpu.tsc += 1'000'000;
        vcpu.tsc_deadline = vcpu.tsc + 1'000'000;
      }
      vm.platform.hpet_counter += 10'000;
      break;
    case GuestEventKind::kEventChannel:
      // Interrupt-controller activity: the HPET ticks while the interrupt
      // is delivered and acknowledged.
      vm.platform.hpet_counter += 1;
      break;
    case GuestEventKind::kWorkloadStep:
      // A scheduling quantum of guest execution: registers move.
      for (BhyveVcpu& vcpu : vm.platform.vcpus) {
        vcpu.tsc += 10'000'000;
        vcpu.rip += 0x40;
        vcpu.gpr[0] += 1;
      }
      break;
  }
}

void BhyveVisor::AdvanceClocks(BhyveVm& vm, SimDuration delta) {
  for (BhyveVcpu& vcpu : vm.platform.vcpus) {
    vcpu.tsc += static_cast<uint64_t>(delta);
    if (vcpu.tsc_deadline != 0) {
      vcpu.tsc_deadline += static_cast<uint64_t>(delta);
    }
  }
  vm.platform.hpet_counter += static_cast<uint64_t>(delta / 100);  // 10 MHz HPET.
}

void BhyveVisor::ScheduleVcpus(const BhyveVm& vm) {
  for (uint32_t i = 0; i < vm.vcpu_count(); ++i) {
    scheduler_.AddThread(vm.uid, i);
  }
}

void BhyveVisor::UnscheduleVm(const BhyveVm& vm) { scheduler_.RemoveVm(vm.uid); }

void BhyveVisor::ResetScheduler() { scheduler_ = UleRunQueue(machine().profile().threads); }

}  // namespace hypertp
