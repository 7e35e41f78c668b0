// Regenerates Fig. 10: InPlaceTP scalability for the KVM -> Xen direction.
// The headline difference from Fig. 7 is the reboot phase: the type-I target
// boots two kernels (Xen core + dom0), so total transplantation time reaches
// ~7.6 s on M1 and ~17.8 s on M2 (vs 2.15 s / 3.56 s for Xen -> KVM).
// Emits BENCH_fig10_kvm_to_xen.json: every row's phases, UISR bytes and
// fixup count, keyed "<machine>/<sweep>=<x>/<field>". It is the artifact that
// pins the KVM -> Xen translation direction (XenPlatformFromUisr).

#include <memory>

#include "bench/bench_util.h"
#include "src/core/factory.h"
#include "src/core/inplace.h"

namespace hypertp {
namespace {

TransplantReport RunOnce(const MachineProfile& profile, int vms, uint32_t vcpus,
                         uint64_t mem_bytes) {
  Machine machine(profile, 1);
  std::unique_ptr<Hypervisor> kvm = MakeHypervisor(HypervisorKind::kKvm, machine);
  for (int i = 0; i < vms; ++i) {
    VmConfig config = VmConfig::Small("f10-" + std::to_string(i));
    config.vcpus = vcpus;
    config.memory_bytes = mem_bytes;
    auto id = kvm->CreateVm(config);
    if (!id.ok()) {
      std::fprintf(stderr, "create failed: %s\n", id.error().ToString().c_str());
      return {};
    }
  }
  auto result = InPlaceTransplant::Run(std::move(kvm), HypervisorKind::kXen, InPlaceOptions{});
  if (!result.ok()) {
    std::fprintf(stderr, "transplant failed: %s\n", result.error().ToString().c_str());
    return {};
  }
  return result->report;
}

void Sweep(const MachineProfile& profile, bench::BenchReport& report) {
  auto header = [] {
    bench::Row("%-10s %8s %8s %8s %8s %10s %8s", "x", "pram(s)", "transl", "reboot", "restore",
               "downtime", "total");
  };
  auto print = [&](const std::string& sweep, int x, const std::string& label,
                   const TransplantReport& r) {
    const std::string key = profile.name + "/" + sweep + "=" + std::to_string(x) + "/";
    report.SetScalar(key + "pram_s", bench::Sec(r.phases.pram));
    report.SetScalar(key + "translation_s", bench::Sec(r.phases.translation));
    report.SetScalar(key + "reboot_s", bench::Sec(r.phases.reboot));
    report.SetScalar(key + "restoration_s", bench::Sec(r.phases.restoration));
    report.SetScalar(key + "downtime_s", bench::Sec(r.downtime));
    report.SetScalar(key + "total_s", bench::Sec(r.total_time));
    report.SetScalar(key + "uisr_total_bytes", static_cast<double>(r.uisr_total_bytes));
    report.SetScalar(key + "fixups", static_cast<double>(r.fixups.size()));
    bench::Row("%-10s %8.2f %8.2f %8.2f %8.2f %10.2f %8.2f", label.c_str(),
               bench::Sec(r.phases.pram), bench::Sec(r.phases.translation),
               bench::Sec(r.phases.reboot), bench::Sec(r.phases.restoration),
               bench::Sec(r.downtime), bench::Sec(r.total_time));
  };

  bench::Section((profile.name + " a) vCPU sweep (1 VM, 1 GB)").c_str());
  header();
  for (uint32_t vcpus : {1u, 2u, 4u, 6u, 8u, 10u}) {
    print("vcpus", static_cast<int>(vcpus), std::to_string(vcpus) + " vcpu",
          RunOnce(profile, 1, vcpus, 1ull << 30));
  }
  bench::Section((profile.name + " b) memory sweep (1 VM, 1 vCPU)").c_str());
  header();
  for (uint64_t gib : {2ull, 4ull, 6ull, 8ull, 10ull, 12ull}) {
    print("gib", static_cast<int>(gib), std::to_string(gib) + " GiB",
          RunOnce(profile, 1, 1, gib << 30));
  }
  bench::Section((profile.name + " c) VM-count sweep (1 vCPU / 1 GB each)").c_str());
  header();
  for (int vms : {2, 4, 6, 8, 10, 12}) {
    print("vms", vms, std::to_string(vms) + " VMs", RunOnce(profile, vms, 1, 1ull << 30));
  }
}

void Run() {
  bench::Banner("Fig. 10 — InPlaceTP scalability, KVM -> Xen",
                "Paper: total ~7.6 s on M1 and ~17.8 s on M2 (two-kernel boot dominates); "
                "still far under the 30 s maintenance bound Azure announces.");
  bench::BenchReport report("fig10_kvm_to_xen");
  Sweep(MachineProfile::M1(), report);
  Sweep(MachineProfile::M2(), report);
  report.WriteJsonArtifact();
}

}  // namespace
}  // namespace hypertp

int main() {
  hypertp::Run();
  return 0;
}
