// Regenerates Fig. 13: cluster upgrade with varying shares of
// InPlaceTP-compatible VMs — (a) number of migrations, (b) total-time gain.
// Paper: 154 migrations at 0%; 109 (-17% time) at 20%; 73% fewer migrations
// and -68% time at 60%; 25 migrations and ~-80% time at 80%.
// Writes BENCH_fig13_cluster.json: per compat share, the migrations, the
// migration/in-place/total ms and the time gain against the 0% plan.

#include "bench/bench_util.h"
#include "src/cluster/cluster.h"

namespace hypertp {
namespace {

void Run() {
  bench::Banner("Fig. 13 — Cluster upgrade vs InPlaceTP-compatible share",
                "10 hosts x 10 VMs (1 vCPU / 4 GB), 10 Gbps fabric, BtrPlace-like planner "
                "with hosts offlined two at a time.");

  struct PaperRef {
    int percent;
    const char* migrations;
    const char* gain;
  };
  const PaperRef refs[] = {
      {0, "154", "0%"},   {20, "109", "17%"}, {40, "~80", "-"},
      {60, "~42", "68%"}, {80, "25", "~80%"},
  };

  bench::BenchReport report("fig13_cluster");
  SimDuration baseline_time = 0;
  bench::Row("%-10s %12s %14s %12s %14s %12s", "compat%", "migrations", "paper-migr",
             "total time", "time gain", "paper-gain");
  for (const PaperRef& ref : refs) {
    ClusterModel cluster = ClusterModel::PaperCluster(ref.percent / 100.0);
    auto plan = PlanClusterUpgrade(cluster, 2);
    if (!plan.ok()) {
      bench::Row("%3d%%: planning failed: %s", ref.percent, plan.error().ToString().c_str());
      continue;
    }
    auto stats = ExecuteClusterUpgrade(cluster, *plan, ClusterExecutionParams{});
    if (!stats.ok()) {
      bench::Row("%3d%%: execution failed: %s", ref.percent, stats.error().ToString().c_str());
      continue;
    }
    if (ref.percent == 0) {
      baseline_time = stats->total_time;
    }
    const double gain =
        baseline_time > 0
            ? (1.0 - static_cast<double>(stats->total_time) / static_cast<double>(baseline_time)) *
                  100.0
            : 0.0;
    const std::string key = "compat=" + std::to_string(ref.percent) + "/";
    report.SetScalar(key + "migrations", stats->migrations);
    report.SetScalar(key + "migration_ms", bench::Ms(stats->migration_time));
    report.SetScalar(key + "inplace_ms", bench::Ms(stats->inplace_time));
    report.SetScalar(key + "total_ms", bench::Ms(stats->total_time));
    report.SetScalar(key + "time_gain_pct", gain);
    bench::Row("%-10d %12d %14s %11.1fs %13.1f%% %12s", ref.percent, stats->migrations,
               ref.migrations, bench::Sec(stats->total_time), gain, ref.gain);
  }
  bench::Row("(paper end-to-end anchors: 80%% compatible = 3 min 54 s vs up to 19 min "
             "for the all-migration plan)");
  report.WriteJsonArtifact();
}

}  // namespace
}  // namespace hypertp

int main() {
  hypertp::Run();
  return 0;
}
