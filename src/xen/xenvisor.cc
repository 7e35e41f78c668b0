#include "src/xen/xenvisor.h"

#include "src/xen/xen_uisr.h"

namespace hypertp {
namespace {

// Xen core (text, heap, frametable) and dom0 memory, as HV State.
constexpr uint64_t kXenHeapBytes = 192ull << 20;
constexpr uint64_t kDom0Bytes = 1536ull << 20;

constexpr HostConstants kXenConstants{
    .name = "xenvisor-4.12",
    .kind = HypervisorKind::kXen,
    .type = HypervisorType::kType1,
    .tag = "xen",
    .max_vcpus = 128,
    .first_id = 1,  // dom0 is domid 0.
    .first_pid = 0,  // Device models run in dom0's QEMU, not per-VM processes.
    .hv_state_bytes = kXenHeapBytes + kDom0Bytes,
    // Guest memory is allocated in chunks of 128 MiB, with NPT allocations
    // interleaved between chunks — the realistic scatter that PRAM exists to
    // describe.
    .chunk_frames = 32768,
    .vmm_frames = 0,
    // xl/libxl restore path: sequential receive, heavyweight resume.
    .migration = MigrationTraits{1, MillisF(125.0), MillisF(14.0)},
};

}  // namespace

XenVisor::XenVisor(Machine& machine)
    : HostCore(machine, kXenConstants), scheduler_(machine.profile().threads) {}

Result<void> XenVisor::SeedPlatform(XenDomain& domain, uint32_t vcpus) {
  FixupLog seed_log;
  for (uint32_t i = 0; i < vcpus; ++i) {
    HYPERTP_ASSIGN_OR_RETURN(XenVcpuContext ctx,
                             XenVcpuFromUisr(MakeSyntheticVcpu(domain.uid, i), domain.uid,
                                             &seed_log));
    domain.hvm.vcpus.push_back(std::move(ctx));
  }
  domain.hvm.ioapic.id = 0;
  domain.hvm.ioapic.redirtbl[4] = 0x10004;  // COM1 -> vector 0x34-ish pattern.
  domain.hvm.pit.channels[0].count = 0x4A9;  // ~100 Hz timer tick.
  domain.hvm.pit.channels[0].mode = 2;
  domain.hvm.pit.channels[0].gate = 1;
  return OkResult();
}

void XenVisor::WireVirtioPin(XenDomain& domain, uint32_t instance) {
  // Xen wires devices to high IOAPIC pins (>= 24) — the exact situation that
  // forces the pin fixup when transplanting to KVM's 24-pin IOAPIC (§4.2.1).
  domain.hvm.ioapic.redirtbl[24 + instance] = 0x10020 + instance;
}

Result<void> XenVisor::PlatformFromUisr(XenDomain& domain, const UisrVm& uisr,
                                        bool remap_high_pins, FixupLog* log) {
  HYPERTP_ASSIGN_OR_RETURN(domain.hvm, XenPlatformFromUisr(uisr, log, remap_high_pins));
  return OkResult();
}

Result<void> XenVisor::PlatformToUisr(const XenDomain& domain, UisrVm& out,
                                      FixupLog* /*log*/) const {
  return XenPlatformToUisr(domain.hvm, out);
}

void XenVisor::ApplyGuestEvent(XenDomain& domain, GuestEventKind kind) {
  switch (kind) {
    case GuestEventKind::kTimerTick:
      // 1 ms LAPIC timer period on the virtual 1 GHz TSC; the deadline
      // re-arms, so the translated LAPIC record changes too.
      for (XenVcpuContext& vcpu : domain.hvm.vcpus) {
        vcpu.cpu.tsc += 1'000'000;
        vcpu.lapic.tsc_deadline = vcpu.cpu.tsc + 1'000'000;
      }
      break;
    case GuestEventKind::kEventChannel:
      // PV notification activity. Event channels are rebuilt, never
      // translated, so this dirties the domain without changing its UISR —
      // the pre-translation cache must treat it as an invalidation anyway.
      if (!domain.event_channels.empty()) {
        domain.event_channels.front().pending = !domain.event_channels.front().pending;
      }
      break;
    case GuestEventKind::kWorkloadStep:
      // A scheduling quantum of guest execution: registers move.
      for (XenVcpuContext& vcpu : domain.hvm.vcpus) {
        vcpu.cpu.tsc += 10'000'000;
        vcpu.cpu.rip += 0x40;
        vcpu.cpu.rax += 1;
      }
      break;
  }
}

void XenVisor::AdvanceClocks(XenDomain& domain, SimDuration delta) {
  for (XenVcpuContext& vcpu : domain.hvm.vcpus) {
    vcpu.cpu.tsc += static_cast<uint64_t>(delta);
    if (vcpu.lapic.tsc_deadline != 0) {
      vcpu.lapic.tsc_deadline += static_cast<uint64_t>(delta);
    }
  }
}

void XenVisor::ScheduleVcpus(const XenDomain& domain) {
  for (uint32_t i = 0; i < domain.vcpu_count(); ++i) {
    scheduler_.AddVcpu(static_cast<uint32_t>(domain.id), i, domain.sched_weight);
  }
}

void XenVisor::UnscheduleVm(const XenDomain& domain) {
  scheduler_.RemoveDomain(static_cast<uint32_t>(domain.id));
}

void XenVisor::ResetScheduler() { scheduler_ = CreditScheduler(machine().profile().threads); }

void XenVisor::SetupPvInfrastructure(XenDomain& domain) {
  domain.event_channels.clear();
  uint32_t port = 1;
  // xenstore + console channels.
  domain.event_channels.push_back({port++, XenEventChannel::Type::kInterdomain, 0, false});
  domain.event_channels.push_back({port++, XenEventChannel::Type::kInterdomain, 0, false});
  // Two channels per virtio-style PV device.
  for (const UisrDeviceState& dev : domain.devices) {
    if (dev.model.starts_with("virtio")) {
      domain.event_channels.push_back({port++, XenEventChannel::Type::kInterdomain, 0, false});
      domain.event_channels.push_back({port++, XenEventChannel::Type::kInterdomain, 0, false});
    }
  }
  // Grant table: two ring pages per PV device, granted to dom0's backends.
  // The GFNs land in the guest's low memory (where PV frontends place rings).
  domain.grant_table.clear();
  uint32_t ref = 8;  // Refs 0-7 are reserved in real Xen.
  Gfn ring_gfn = 256;
  for (const UisrDeviceState& dev : domain.devices) {
    if (dev.model.starts_with("virtio")) {
      domain.grant_table.push_back({ref++, ring_gfn++, 0x1, 0});
      domain.grant_table.push_back({ref++, ring_gfn++, 0x1, 0});
    }
  }
  domain.xenstore.clear();
  domain.xenstore["name"] = domain.name;
  domain.xenstore["memory/target"] = std::to_string(domain.memory_bytes >> 10);
  domain.xenstore["vm"] = "/vm/" + std::to_string(domain.uid);
}

uint64_t XenVisor::InterleavedNptFrames(uint64_t chunk) const { return chunk / 512 + 1; }

uint64_t XenVisor::StateFrames(const XenDomain& domain) const {
  // vCPU contexts, LAPIC pages, shared info.
  return domain.vcpu_count() + 2;
}

}  // namespace hypertp
