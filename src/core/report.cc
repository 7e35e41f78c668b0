#include "src/core/report.h"

#include <cstdio>

#include "src/base/json.h"

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

std::string TransplantReportToJson(const TransplantReport& report) {
  JsonWriter j;
  j.BeginObject();
  j.Key("kind").String("inplace_transplant");
  j.Key("source").String(report.source_hypervisor);
  j.Key("target").String(report.target_hypervisor);
  j.Key("vm_count").Number(static_cast<int64_t>(report.vm_count));
  j.Key("outcome").String(std::string(TransplantOutcomeName(report.outcome)));
  j.Key("phases_ms").BeginObject();
  j.Key("pram").Number(ToMillis(report.phases.pram));
  j.Key("pre_translation").Number(ToMillis(report.phases.pre_translation));
  j.Key("translation").Number(ToMillis(report.phases.translation));
  j.Key("reboot").Number(ToMillis(report.phases.reboot));
  j.Key("pram_parse").Number(ToMillis(report.phases.pram_parse));
  j.Key("restoration").Number(ToMillis(report.phases.restoration));
  j.Key("resume").Number(ToMillis(report.phases.resume));
  j.Key("cleanup").Number(ToMillis(report.phases.cleanup));
  j.Key("network").Number(ToMillis(report.phases.network));
  j.Key("rollback").Number(ToMillis(report.phases.rollback));
  j.EndObject();
  j.Key("downtime_ms").Number(ToMillis(report.downtime));
  j.Key("total_ms").Number(ToMillis(report.total_time));
  j.Key("network_downtime_ms").Number(ToMillis(report.network_downtime));
  j.Key("pretranslate_hits").Number(report.pretranslate_hits);
  j.Key("pretranslate_invalidations").Number(report.pretranslate_invalidations);
  j.Key("pram_metadata_bytes").Number(report.pram_metadata_bytes);
  j.Key("uisr_total_bytes").Number(report.uisr_total_bytes);
  j.Key("frames_scrubbed").Number(report.frames_scrubbed);
  j.Key("vms").BeginArray();
  for (const VmTransplantRecord& vm : report.vms) {
    j.BeginObject();
    j.Key("uid").Number(vm.uid);
    j.Key("name").String(vm.name);
    j.Key("vcpus").Number(static_cast<int64_t>(vm.vcpus));
    j.Key("memory_bytes").Number(vm.memory_bytes);
    j.Key("uisr_bytes").Number(static_cast<uint64_t>(vm.uisr_bytes));
    j.EndObject();
  }
  j.EndArray();
  FixupLogToJson(j, report.fixups);
  j.Key("notes").BeginArray();
  for (const std::string& note : report.notes) {
    j.String(note);
  }
  j.EndArray();
  j.EndObject();
  return j.Take();
}

}  // namespace hypertp
