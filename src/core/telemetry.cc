#include "src/core/telemetry.h"

#include "src/base/json.h"

namespace hypertp {
namespace {

void EmitFixups(JsonWriter& j, const FixupLog& fixups) {
  j.Key("fixups").BeginArray();
  for (const StateFixup& fixup : fixups) {
    j.BeginObject();
    j.Key("vm_uid").Number(fixup.vm_uid);
    j.Key("component").String(fixup.component);
    j.Key("description").String(fixup.description);
    j.EndObject();
  }
  j.EndArray();
}

}  // namespace

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
  EmitFixups(j, report.fixups);
  j.Key("notes").BeginArray();
  for (const std::string& note : report.notes) {
    j.String(note);
  }
  j.EndArray();
  j.EndObject();
  return j.Take();
}

std::string MigrationResultToJson(const MigrationResult& result) {
  JsonWriter j;
  j.BeginObject();
  j.Key("kind").String("migration");
  j.Key("dest_vm_id").Number(result.dest_vm_id);
  j.Key("total_ms").Number(ToMillis(result.total_time));
  j.Key("downtime_ms").Number(ToMillis(result.downtime));
  j.Key("queue_wait_ms").Number(ToMillis(result.queue_wait));
  j.Key("bytes_transferred").Number(result.bytes_transferred);
  j.Key("uisr_bytes").Number(result.uisr_bytes);
  j.Key("rounds").Number(static_cast<int64_t>(result.rounds));
  j.Key("converged").Bool(result.converged);
  j.Key("round_log").BeginArray();
  for (const MigrationRound& round : result.round_log) {
    j.BeginObject();
    j.Key("pages").Number(round.pages);
    j.Key("duration_ms").Number(ToMillis(round.duration));
    j.EndObject();
  }
  j.EndArray();
  EmitFixups(j, result.fixups);
  j.EndObject();
  return j.Take();
}

std::string PlanExecutionStatsToJson(const PlanExecutionStats& stats) {
  JsonWriter j;
  j.BeginObject();
  j.Key("kind").String("cluster_upgrade");
  j.Key("migrations").Number(static_cast<int64_t>(stats.migrations));
  j.Key("migration_time_ms").Number(ToMillis(stats.migration_time));
  j.Key("inplace_time_ms").Number(ToMillis(stats.inplace_time));
  j.Key("total_time_ms").Number(ToMillis(stats.total_time));
  j.EndObject();
  return j.Take();
}

std::string OperationalReportToJson(const OperationalReport& report) {
  JsonWriter j;
  j.BeginObject();
  j.Key("kind").String("operational_year");
  j.Key("disclosures").Number(static_cast<int64_t>(report.disclosures));
  j.Key("transplants_away").Number(static_cast<int64_t>(report.transplants_away));
  j.Key("transplants_back").Number(static_cast<int64_t>(report.transplants_back));
  j.Key("no_safe_target").Number(static_cast<int64_t>(report.no_safe_target));
  j.Key("already_safe").Number(static_cast<int64_t>(report.already_safe));
  j.Key("exposure_days_traditional").Number(report.exposure_days_traditional);
  j.Key("exposure_days_hypertp").Number(report.exposure_days_hypertp);
  j.Key("exposure_reduction_factor").Number(report.exposure_reduction_factor());
  j.Key("vm_downtime_ms").Number(ToMillis(report.vm_downtime_paid));
  j.Key("fleet").BeginObject();
  j.Key("rollouts").Number(static_cast<int64_t>(report.fleet_rollouts));
  j.Key("retries").Number(static_cast<int64_t>(report.fleet_retries));
  j.Key("stranded_hosts").Number(static_cast<int64_t>(report.fleet_stranded_hosts));
  j.Key("aborts").Number(static_cast<int64_t>(report.fleet_aborts));
  j.Key("post_pause_faults").Number(static_cast<int64_t>(report.fleet_post_pause_faults));
  j.Key("rollbacks").Number(static_cast<int64_t>(report.fleet_rollbacks));
  j.Key("rollback_failures").Number(static_cast<int64_t>(report.fleet_rollback_failures));
  j.Key("crashes").Number(static_cast<int64_t>(report.fleet_crashes));
  j.Key("crash_salvages").Number(static_cast<int64_t>(report.fleet_crash_salvages));
  j.Key("crash_live_recoveries").Number(static_cast<int64_t>(report.fleet_crash_live_recoveries));
  j.Key("crash_rollbacks").Number(static_cast<int64_t>(report.fleet_crash_rollbacks));
  j.Key("lost").Number(static_cast<int64_t>(report.fleet_lost));
  j.Key("throttled_epochs").Number(static_cast<int64_t>(report.fleet_throttled_epochs));
  j.EndObject();
  j.Key("policy").BeginObject();
  j.Key("mode").String(report.policy_adaptive ? "adaptive" : "fixed");
  j.Key("refused_hosts").Number(static_cast<int64_t>(report.fleet_refused_hosts));
  j.Key("inplace_vms").Number(static_cast<int64_t>(report.policy_inplace_vms));
  j.Key("migrate_vms").Number(static_cast<int64_t>(report.policy_migrate_vms));
  j.Key("refused_vms").Number(static_cast<int64_t>(report.policy_refused_vms));
  j.EndObject();
  j.Key("event_log").BeginArray();
  for (const std::string& line : report.event_log) {
    j.String(line);
  }
  j.EndArray();
  j.EndObject();
  return j.Take();
}

}  // namespace hypertp
