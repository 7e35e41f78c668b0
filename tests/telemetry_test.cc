// Tests for the JSON writer and the telemetry export of reports.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>

#include "src/base/json.h"
#include "src/cluster/cluster.h"
#include "src/core/factory.h"
#include "src/core/inplace.h"
#include "src/core/report.h"
#include "src/migrate/migrate.h"
#include "src/scenario/operational.h"

namespace hypertp {
namespace {

TEST(JsonWriterTest, ObjectsArraysAndCommas) {
  JsonWriter j;
  j.BeginObject();
  j.Key("a").Number(int64_t{1});
  j.Key("b").BeginArray().Number(int64_t{2}).Number(int64_t{3}).EndArray();
  j.Key("c").BeginObject().Key("d").Bool(true).EndObject();
  j.EndObject();
  EXPECT_EQ(j.str(), R"({"a":1,"b":[2,3],"c":{"d":true}})");
}

TEST(JsonWriterTest, StringEscaping) {
  JsonWriter j;
  j.BeginObject();
  j.Key("msg").String("line\nwith \"quotes\" and \\slash\t");
  j.EndObject();
  EXPECT_EQ(j.str(), R"({"msg":"line\nwith \"quotes\" and \\slash\t"})");
}

TEST(JsonWriterTest, ControlCharactersEscaped) {
  JsonWriter j;
  std::string s = "a";
  s += '\x01';
  j.String(s);
  EXPECT_EQ(j.str(), "\"a\\u0001\"");
}

TEST(JsonWriterTest, NonFiniteNumbersBecomeNull) {
  JsonWriter j;
  j.BeginArray();
  j.Number(std::numeric_limits<double>::infinity());
  j.Number(std::nan(""));
  j.Number(1.5);
  j.EndArray();
  EXPECT_EQ(j.str(), "[null,null,1.5]");
}

TEST(JsonWriterTest, EmptyContainers) {
  JsonWriter j;
  j.BeginObject();
  j.Key("arr").BeginArray().EndArray();
  j.Key("obj").BeginObject().EndObject();
  j.EndObject();
  EXPECT_EQ(j.str(), R"({"arr":[],"obj":{}})");
}

TEST(TelemetryTest, TransplantReportExportsAllSections) {
  Machine machine(MachineProfile::M1(), 1);
  std::unique_ptr<Hypervisor> xen = MakeHypervisor(HypervisorKind::kXen, machine);
  ASSERT_TRUE(xen->CreateVm(VmConfig::Small("tel")).ok());
  auto result = InPlaceTransplant::Run(std::move(xen), HypervisorKind::kKvm, InPlaceOptions{});
  ASSERT_TRUE(result.ok());

  const std::string json = TransplantReportToJson(result->report);
  // Structural smoke checks (we ship no parser on purpose).
  EXPECT_NE(json.find(R"("kind":"inplace_transplant")"), std::string::npos);
  EXPECT_NE(json.find(R"("source":"xenvisor-4.12")"), std::string::npos);
  EXPECT_NE(json.find(R"("phases_ms")"), std::string::npos);
  EXPECT_NE(json.find(R"("outcome":"completed")"), std::string::npos);
  EXPECT_NE(json.find(R"("rollback":0)"), std::string::npos);
  EXPECT_NE(json.find(R"("reboot":1520)"), std::string::npos);
  EXPECT_NE(json.find(R"("fixups":[{)"), std::string::npos);
  EXPECT_NE(json.find(R"("component":"ioapic")"), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  // Balanced braces/brackets.
  int depth = 0;
  bool in_string = false;
  for (size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      --depth;
    }
  }
  EXPECT_EQ(depth, 0);
}

TEST(TelemetryTest, PlanExecutionStatsExport) {
  PlanExecutionStats stats;
  stats.migrations = 154;
  stats.migration_time = SecondsF(512.5);
  stats.inplace_time = Seconds(40);
  stats.total_time = SecondsF(552.5);
  const std::string json = PlanExecutionStatsToJson(stats);
  EXPECT_NE(json.find(R"("kind":"cluster_upgrade")"), std::string::npos);
  EXPECT_NE(json.find(R"("migrations":154)"), std::string::npos);
  EXPECT_NE(json.find(R"("migration_time_ms":512500)"), std::string::npos);
  EXPECT_NE(json.find(R"("inplace_time_ms":40000)"), std::string::npos);
  EXPECT_NE(json.find(R"("total_time_ms":552500)"), std::string::npos);
}

TEST(TelemetryTest, OperationalReportExport) {
  OperationalReport report;
  report.disclosures = 9;
  report.transplants_away = 6;
  report.transplants_back = 5;
  report.no_safe_target = 2;
  report.already_safe = 1;
  report.exposure_days_traditional = 402.0;
  report.exposure_days_hypertp = 2.01;
  report.vm_downtime_paid = Seconds(1700);
  report.fleet_rollouts = 11;
  report.fleet.retries = 4;
  report.fleet.failed = 1;     // Stranded hosts: failed...
  report.fleet.untouched = 1;  // ...plus never reached.
  report.fleet.post_pause_faults = 3;
  report.fleet.rollbacks = 2;
  report.fleet.rollback_failures = 1;
  report.fleet.crashes = 5;
  report.fleet.crash_salvages = 3;
  report.fleet.crash_live_recoveries = 1;
  report.fleet.crash_rollbacks = 2;
  report.fleet.lost = 1;
  report.event_log.push_back("day   12.5: CVE-2015-3456 — fleet -> kvmish-5.3");
  const std::string json = OperationalReportToJson(report);
  EXPECT_NE(json.find(R"("kind":"operational_year")"), std::string::npos);
  EXPECT_NE(json.find(R"("disclosures":9)"), std::string::npos);
  EXPECT_NE(json.find(R"("transplants_away":6)"), std::string::npos);
  EXPECT_NE(json.find(R"("exposure_days_traditional":402)"), std::string::npos);
  EXPECT_NE(json.find(R"("exposure_reduction_factor":200)"), std::string::npos);
  EXPECT_NE(json.find(R"("fleet":{"rollouts":11,"retries":4,"stranded_hosts":2,"aborts":0,)"
                      R"("post_pause_faults":3,"rollbacks":2,"rollback_failures":1,)"
                      R"("crashes":5,"crash_salvages":3,"crash_live_recoveries":1,)"
                      R"("crash_rollbacks":2,"lost":1})"),
            std::string::npos);
  EXPECT_NE(json.find("CVE-2015-3456"), std::string::npos);
}

TEST(TelemetryTest, MigrationResultExport) {
  MigrationResult result;
  result.dest_vm_id = 3;
  result.total_time = SecondsF(9.63);
  result.downtime = MillisF(4.96);
  result.rounds = 4;
  result.converged = true;
  result.round_log.push_back({262144, SecondsF(9.0)});
  result.fixups.push_back({7, "ioapic", "pin 30 disconnected"});

  const std::string json = MigrationResultToJson(result);
  EXPECT_NE(json.find(R"("kind":"migration")"), std::string::npos);
  EXPECT_NE(json.find(R"("downtime_ms":4.96)"), std::string::npos);
  EXPECT_NE(json.find(R"("rounds":4)"), std::string::npos);
  EXPECT_NE(json.find(R"("converged":true)"), std::string::npos);
  EXPECT_NE(json.find(R"("pages":262144)"), std::string::npos);
}

}  // namespace
}  // namespace hypertp
