// hypertpctl — the operator's command-line face of HyperTP. Each subcommand
// runs a self-contained scenario against a fresh simulated host/fleet and
// prints what a real hypertpctl would show.
//
//   hypertpctl status       memory-separation view of a loaded Xen host
//   hypertpctl transplant   in-place Xen -> KVM with the full phase report
//   hypertpctl chain        Xen -> bhyve -> KVM across the whole repertoire
//   hypertpctl checkpoint   cold save/restore across hypervisors
//   hypertpctl policy       what to do about each famous CVE
//   hypertpctl json         telemetry export of a transplant report

#include <cstdio>
#include <cstring>
#include <memory>

#include "src/core/checkpoint.h"
#include "src/core/factory.h"
#include "src/core/inplace.h"
#include "src/core/report.h"
#include "src/guest/guest_image.h"
#include "src/hw/usage.h"
#include "src/vulndb/vulndb.h"

using namespace hypertp;

namespace {

std::unique_ptr<Hypervisor> LoadedXenHost(Machine& machine, int vms) {
  std::unique_ptr<Hypervisor> xen = MakeHypervisor(HypervisorKind::kXen, machine);
  for (int i = 0; i < vms; ++i) {
    auto id = xen->CreateVm(VmConfig::Small("vm-" + std::to_string(i)));
    if (id.ok()) {
      (void)InstallGuestImage(*xen, *id, 9000 + static_cast<uint64_t>(i));
    }
  }
  return xen;
}

int CmdStatus() {
  Machine machine(MachineProfile::M1(), 1);
  auto xen = LoadedXenHost(machine, 4);
  std::printf("host %s running %s with %zu VMs\n\n", machine.hostname().c_str(),
              std::string(xen->name()).c_str(), xen->ListVms().size());
  std::printf("%s", DescribeMachineUsage(machine).ToString().c_str());
  return 0;
}

int CmdTransplant() {
  Machine machine(MachineProfile::M1(), 1);
  auto xen = LoadedXenHost(machine, 2);
  auto result = InPlaceTransplant::Run(std::move(xen), HypervisorKind::kKvm, InPlaceOptions{});
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.error().ToString().c_str());
    return 1;
  }
  std::printf("%s", result->report.ToString().c_str());
  return 0;
}

int CmdChain() {
  Machine machine(MachineProfile::M1(), 1);
  std::unique_ptr<Hypervisor> hv = LoadedXenHost(machine, 1);
  InPlaceOptions options;
  options.remap_high_ioapic_pins = true;
  for (HypervisorKind hop :
       {HypervisorKind::kBhyve, HypervisorKind::kKvm, HypervisorKind::kXen}) {
    auto result = InPlaceTransplant::Run(std::move(hv), hop, options);
    if (!result.ok()) {
      std::fprintf(stderr, "hop failed: %s\n", result.error().ToString().c_str());
      return 1;
    }
    hv = std::move(result->hypervisor);
    std::printf("-> %-22s downtime %-10s fixups %zu\n",
                std::string(hv->name()).c_str(),
                FormatDuration(result->report.downtime).c_str(),
                result->report.fixups.size());
  }
  std::printf("full-circle transplant across the 3-hypervisor repertoire complete\n");
  return 0;
}

int CmdCheckpoint() {
  Machine m1(MachineProfile::M1(), 1);
  Machine m2(MachineProfile::M1(), 2);
  std::unique_ptr<Hypervisor> xen = MakeHypervisor(HypervisorKind::kXen, m1);
  std::unique_ptr<Hypervisor> bhyve = MakeHypervisor(HypervisorKind::kBhyve, m2);
  auto id = xen->CreateVm(VmConfig::Small("suspendme"));
  if (!id.ok()) {
    return 1;
  }
  (void)xen->PrepareVmForTransplant(*id);
  (void)xen->PauseVm(*id);
  auto blob = SaveVmCheckpoint(*xen, *id);
  if (!blob.ok()) {
    std::fprintf(stderr, "%s\n", blob.error().ToString().c_str());
    return 1;
  }
  auto info = InspectCheckpoint(*blob);
  std::printf("checkpoint: vm '%s' (uid %llu) from %s — %zu KiB, %llu pages captured\n",
              info->name.c_str(), static_cast<unsigned long long>(info->vm_uid),
              info->source_hypervisor.c_str(), blob->size() / 1024,
              static_cast<unsigned long long>(info->page_count));
  (void)xen->DestroyVm(*id);
  auto restored = RestoreVmCheckpoint(*bhyve, *blob);
  if (!restored.ok()) {
    std::fprintf(stderr, "%s\n", restored.error().ToString().c_str());
    return 1;
  }
  (void)bhyve->ResumeVm(*restored);
  std::printf("restored cold onto %s and resumed — heterogeneous suspend/resume works\n",
              std::string(bhyve->name()).c_str());
  return 0;
}

int CmdPolicy() {
  const std::vector<HypervisorKind> pool = {HypervisorKind::kXen, HypervisorKind::kKvm,
                                            HypervisorKind::kBhyve};
  for (const char* id :
       {"CVE-2016-6258", "CVE-2017-12188", "CVE-2015-3456", "CVE-2015-8104"}) {
    const CveRecord* cve = nullptr;
    for (const CveRecord& r : VulnDatabase()) {
      if (r.id == id) {
        cve = &r;
      }
    }
    if (cve == nullptr) {
      continue;
    }
    const HypervisorKind current =
        cve->affects_xen ? HypervisorKind::kXen : HypervisorKind::kKvm;
    auto decision = DecideTransplant(current, {{cve}}, pool);
    std::printf("%-16s (CVSS %.1f, on %s): %s\n", cve->id.c_str(), cve->cvss_v2,
                std::string(HypervisorKindName(current)).c_str(), decision.rationale.c_str());
  }
  return 0;
}

int CmdJson() {
  Machine machine(MachineProfile::M1(), 1);
  auto xen = LoadedXenHost(machine, 1);
  auto result = InPlaceTransplant::Run(std::move(xen), HypervisorKind::kKvm, InPlaceOptions{});
  if (!result.ok()) {
    return 1;
  }
  std::printf("%s\n", TransplantReportToJson(result->report).c_str());
  return 0;
}

void Usage() {
  std::printf("usage: hypertpctl <status|transplant|chain|checkpoint|policy|json>\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    Usage();
    return 2;
  }
  const char* cmd = argv[1];
  if (std::strcmp(cmd, "status") == 0) {
    return CmdStatus();
  }
  if (std::strcmp(cmd, "transplant") == 0) {
    return CmdTransplant();
  }
  if (std::strcmp(cmd, "chain") == 0) {
    return CmdChain();
  }
  if (std::strcmp(cmd, "checkpoint") == 0) {
    return CmdCheckpoint();
  }
  if (std::strcmp(cmd, "policy") == 0) {
    return CmdPolicy();
  }
  if (std::strcmp(cmd, "json") == 0) {
    return CmdJson();
  }
  Usage();
  return 2;
}
