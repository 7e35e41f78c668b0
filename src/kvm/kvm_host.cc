#include "src/kvm/kvm_host.h"

namespace hypertp {
namespace {

constexpr HostConstants kKvmConstants{
    .name = "kvmish-5.3+kvmtool",
    .kind = HypervisorKind::kKvm,
    .type = HypervisorType::kType2,
    .tag = "kvm",
    .max_vcpus = 240,
    .first_id = 3,  // vm fds: 0/1/2 are stdio, as tradition demands.
    .first_pid = 1000,
    // Host Linux kernel + userspace services.
    .hv_state_bytes = 2048ull << 20,
    // kvmtool maps guest memory as anonymous THP-backed regions; the host mm
    // hands them out in large contiguous chunks (256 MiB).
    .chunk_frames = 65536,
    // kvmtool's own working set (text, heap, virtio rings) per VM: 64 MiB.
    .vmm_frames = 16384,
    // kvmtool's restore path is lightweight and receives concurrently — the
    // source of MigrationTP's 4.96 ms downtime (Table 4).
    .migration = MigrationTraits{8, MillisF(2.5), MillisF(1.2)},
};

}  // namespace

KvmHost::KvmHost(Machine& machine) : HostCore(machine, kKvmConstants) {}

Result<void> KvmHost::SeedPlatform(KvmVm& vm, uint32_t vcpus) {
  for (uint32_t i = 0; i < vcpus; ++i) {
    HYPERTP_ASSIGN_OR_RETURN(KvmVcpuState vcpu, KvmVcpuFromUisr(MakeSyntheticVcpu(vm.uid, i)));
    vm.platform.vcpus.push_back(std::move(vcpu));
  }
  vm.platform.ioapic.id = 0;
  vm.platform.ioapic.redirtbl[4] = 0x10004;  // COM1.
  vm.platform.pit.channels[0].count = 0x4A9;
  vm.platform.pit.channels[0].mode = 2;
  vm.platform.pit.channels[0].gate = 1;
  return OkResult();
}

void KvmHost::WireVirtioPin(KvmVm& vm, uint32_t instance) {
  // kvmtool wires devices to low IOAPIC pins (< 24).
  vm.platform.ioapic.redirtbl[10 + instance] = 0x10040 + instance;
}

Result<void> KvmHost::PlatformFromUisr(KvmVm& vm, const UisrVm& uisr, bool remap_high_pins,
                                       FixupLog* log) {
  HYPERTP_ASSIGN_OR_RETURN(vm.platform, KvmPlatformFromUisr(uisr, log, remap_high_pins));
  return OkResult();
}

Result<void> KvmHost::PlatformToUisr(const KvmVm& vm, UisrVm& out, FixupLog* /*log*/) const {
  return KvmPlatformToUisr(vm.platform.vcpus, vm.platform.ioapic, vm.platform.pit, out);
}

void KvmHost::ApplyGuestEvent(KvmVm& vm, GuestEventKind kind) {
  auto bump_tsc = [&vm](uint64_t ticks, bool rearm_deadline) {
    for (KvmVcpuState& vcpu : vm.platform.vcpus) {
      for (KvmMsrEntry& msr : vcpu.msrs) {
        if (msr.index == kMsrTsc) {
          msr.data += ticks;
        }
      }
      if (rearm_deadline) {
        uint64_t tsc = 0;
        for (const KvmMsrEntry& msr : vcpu.msrs) {
          if (msr.index == kMsrTsc) {
            tsc = msr.data;
          }
        }
        for (KvmMsrEntry& msr : vcpu.msrs) {
          if (msr.index == kMsrTscDeadline) {
            msr.data = tsc + 1'000'000;
          }
        }
      }
    }
  };
  switch (kind) {
    case GuestEventKind::kTimerTick:
      // 1 ms LAPIC timer period on the virtual 1 GHz TSC.
      bump_tsc(1'000'000, /*rearm_deadline=*/true);
      break;
    case GuestEventKind::kEventChannel:
      // Kernel irqchip activity: an IOAPIC redirection entry latches its
      // remote-IRR bit (bit 14) while the interrupt is in service.
      vm.platform.ioapic.redirtbl[2] ^= 1ull << 14;
      break;
    case GuestEventKind::kWorkloadStep:
      // A scheduling quantum of guest execution: registers move.
      bump_tsc(10'000'000, /*rearm_deadline=*/false);
      for (KvmVcpuState& vcpu : vm.platform.vcpus) {
        vcpu.regs.rip += 0x40;
        vcpu.regs.rax += 1;
      }
      break;
  }
}

void KvmHost::AdvanceClocks(KvmVm& vm, SimDuration delta) {
  for (KvmVcpuState& vcpu : vm.platform.vcpus) {
    for (KvmMsrEntry& msr : vcpu.msrs) {
      if (msr.index == kMsrTsc || (msr.index == kMsrTscDeadline && msr.data != 0)) {
        msr.data += static_cast<uint64_t>(delta);
      }
    }
  }
}

}  // namespace hypertp
