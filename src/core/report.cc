#include "src/core/report.h"

#include <cstdio>

namespace hypertp {

std::string_view TransplantOutcomeName(TransplantOutcome outcome) {
  switch (outcome) {
    case TransplantOutcome::kCompleted:
      return "completed";
    case TransplantOutcome::kRolledBack:
      return "rolled_back";
  }
  return "unknown";
}

std::string TransplantReport::ToString() const {
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof(buf), "transplant %s -> %s (%d VMs)\n", source_hypervisor.c_str(),
                target_hypervisor.c_str(), vm_count);
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "  pram %s | translation %s | reboot %s (parse %s) | restoration %s\n",
                FormatDuration(phases.pram).c_str(), FormatDuration(phases.translation).c_str(),
                FormatDuration(phases.reboot).c_str(), FormatDuration(phases.pram_parse).c_str(),
                FormatDuration(phases.restoration).c_str());
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "  pre_translation %s (outside pause) | cache hits %lld | invalidations %lld\n",
                FormatDuration(phases.pre_translation).c_str(),
                static_cast<long long>(pretranslate_hits),
                static_cast<long long>(pretranslate_invalidations));
  out += buf;
  std::snprintf(buf, sizeof(buf), "  downtime %s | total %s | network downtime %s\n",
                FormatDuration(downtime).c_str(), FormatDuration(total_time).c_str(),
                FormatDuration(network_downtime).c_str());
  out += buf;
  if (outcome == TransplantOutcome::kRolledBack) {
    std::snprintf(buf, sizeof(buf), "  outcome rolled_back (salvaged on source) | rollback %s\n",
                  FormatDuration(phases.rollback).c_str());
    out += buf;
  }
  std::snprintf(buf, sizeof(buf), "  pram metadata %llu KiB | uisr %llu KiB | fixups %zu\n",
                static_cast<unsigned long long>(pram_metadata_bytes >> 10),
                static_cast<unsigned long long>(uisr_total_bytes >> 10), fixups.size());
  out += buf;
  for (const VmTransplantRecord& vm : vms) {
    std::snprintf(buf, sizeof(buf), "  vm uid %llu '%s': %u vCPU, %llu MiB, uisr %zu B\n",
                  static_cast<unsigned long long>(vm.uid), vm.name.c_str(), vm.vcpus,
                  static_cast<unsigned long long>(vm.memory_bytes >> 20), vm.uisr_bytes);
    out += buf;
  }
  for (const std::string& note : notes) {
    out += "  note: " + note + "\n";
  }
  return out;
}

}  // namespace hypertp
