// Speculative pre-translation ablation: sweep the fraction of guests that
// dirty their platform state between pre-translation and the pause, crossed
// with the VM count. Clean guests adopt their cached UISR blob for the
// generation-check cost; dirty guests re-extract and are charged by the
// sections that changed, so the pause-window translation share scales with
// the dirty fraction instead of the fleet size.

#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/factory.h"
#include "src/core/inplace.h"

namespace hypertp {
namespace {

TransplantReport RunOnce(int vms, double dirty_fraction, bool pre_translate) {
  Machine machine(MachineProfile::M1(), 1);
  std::unique_ptr<Hypervisor> xen = MakeHypervisor(HypervisorKind::kXen, machine);
  for (int i = 0; i < vms; ++i) {
    // 512 MiB guests so the 16-VM sweep fits inside M1's 16 GiB alongside
    // the kernel image and the PRAM/UISR frames.
    VmConfig config = VmConfig::Small("pre-" + std::to_string(i));
    config.memory_bytes = 512ull << 20;
    auto id = xen->CreateVm(config);
    if (!id.ok()) {
      std::fprintf(stderr, "create failed: %s\n", id.error().ToString().c_str());
      return {};
    }
  }

  InPlaceOptions options;
  options.pre_translate = pre_translate;
  // Dirty the first floor(dirty_fraction * vms) guests after pre-translation:
  // a workload step moves tsc/rip/rax, which lands in the UISR vcpu sections
  // and invalidates those VMs' cached blobs.
  const int dirty = static_cast<int>(dirty_fraction * vms);
  options.concurrent_activity = [dirty](Hypervisor& hv) {
    std::vector<VmId> ids = hv.ListVms();
    for (int i = 0; i < dirty && i < static_cast<int>(ids.size()); ++i) {
      (void)hv.InjectGuestEvent(ids[i], Hypervisor::GuestEventKind::kWorkloadStep);
    }
  };

  auto result = InPlaceTransplant::Run(std::move(xen), HypervisorKind::kKvm, options);
  if (!result.ok()) {
    std::fprintf(stderr, "transplant failed: %s\n", result.error().ToString().c_str());
    return {};
  }
  return result->report;
}

void Run() {
  bench::Banner("Pre-translation ablation — dirty fraction x VM count (M1, Xen -> KVM)",
                "Pause-window translation vs the share of guests dirtied after the "
                "speculative pass; 'legacy' is pre_translate off (everything translated "
                "inside the pause window).");
  bench::BenchReport report("pretranslate");

  for (int vms : {4, 8, 16}) {
    bench::Section((std::to_string(vms) + " VMs (1 vCPU / 512 MiB each)").c_str());
    bench::Row("%-12s %10s %12s %10s %8s %8s %10s", "dirty", "transl(s)", "pre_tr(s)",
               "downtime", "hits", "invalid", "total(s)");

    const TransplantReport legacy = RunOnce(vms, 0.0, false);
    bench::Row("%-12s %10.3f %12.3f %10.3f %8s %8s %10.3f", "legacy",
               bench::Sec(legacy.phases.translation), bench::Sec(legacy.phases.pre_translation),
               bench::Sec(legacy.downtime), "-", "-", bench::Sec(legacy.total_time));
    report.SetScalar("translation_s_legacy_" + std::to_string(vms) + "vms",
                     bench::Sec(legacy.phases.translation));

    for (double fraction : {0.0, 0.25, 0.5, 1.0}) {
      const TransplantReport r = RunOnce(vms, fraction, true);
      const std::string label = std::to_string(static_cast<int>(fraction * 100)) + "%";
      bench::Row("%-12s %10.3f %12.3f %10.3f %8lld %8lld %10.3f", label.c_str(),
                 bench::Sec(r.phases.translation), bench::Sec(r.phases.pre_translation),
                 bench::Sec(r.downtime), static_cast<long long>(r.pretranslate_hits),
                 static_cast<long long>(r.pretranslate_invalidations), bench::Sec(r.total_time));
      const std::string key = std::to_string(vms) + "vms_dirty" +
                              std::to_string(static_cast<int>(fraction * 100));
      report.SetScalar("translation_s_" + key, bench::Sec(r.phases.translation));
      report.SetScalar("downtime_s_" + key, bench::Sec(r.downtime));
      report.AddSample("pretranslate_hits", static_cast<double>(r.pretranslate_hits));
      report.AddSample("pretranslate_invalidations",
                       static_cast<double>(r.pretranslate_invalidations));
    }
  }

  report.WriteJsonArtifact();
}

}  // namespace
}  // namespace hypertp

int main() {
  hypertp::Run();
  return 0;
}
