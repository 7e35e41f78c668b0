// Fleet control-plane scaling sweep: hosts x injected failure rate, through
// the event-driven FleetController (wave scheduling, retries with backoff).
// Prints makespan, retry volume and wave-latency percentiles — the numbers
// the closed-form FleetTransplantTime cannot produce: stragglers fatten the
// tail, failures strand hosts, and both grow with fleet size.

#include "bench/bench_util.h"
#include "src/fleet/fleet_controller.h"
#include "src/vulndb/exposure_stream.h"

namespace hypertp {
namespace {

void Run() {
  bench::Banner("Fleet scaling — wave-scheduled rollout vs injected failures",
                "10 s/host transplant, wave width hosts/10 (blast radius 10%), 20% latency "
                "jitter, 5 s backoff doubling per retry, up to 5 retries, seed 2026.");

  bench::BenchReport bench_report("fleet_scaling");
  bench::Row("%-8s %-9s %8s %8s %8s %8s %9s %9s %9s %9s", "hosts", "fail-rate", "waves",
             "retries", "stranded", "makespan", "wave-p50", "wave-p90", "wave-p99", "exp-h-d");
  for (int hosts : {100, 1000, 10000}) {
    for (double failure_rate : {0.0, 0.01, 0.05}) {
      FleetConfig config;
      config.hosts = hosts;
      config.parallel_hosts = hosts / 10;
      config.per_host_transplant = Seconds(10);
      config.latency_jitter = 0.2;
      config.failure_probability = failure_rate;
      config.max_retries = 5;
      config.retry_backoff = Seconds(5);
      config.trace_capacity = 1 << 17;
      config.seed = 2026;

      SimExecutor executor;
      FleetController controller(executor, config);
      const FleetRolloutReport& report = controller.Run();
      // The controller records exposure changes; the stream integrates them
      // from the rollout's start (every host exposed) to its end.
      ExposureStream exposure(hosts, hosts);
      for (const ExposureDelta& delta : controller.TakeExposureDeltas()) {
        exposure.OnHostsDelta(delta.time, delta.hosts, delta.hosts);
      }
      exposure.Seal(report.makespan);
      const double exposed_host_days = exposure.exposed_host_days();
      const SampleSet& waves = report.wave_latency_seconds;
      bench::Row("%-8d %-9.2f %8d %8d %8d %7.1fs %8.1fs %8.1fs %8.1fs %9.3f", hosts,
                 failure_rate, report.waves, report.retries, report.failed + report.untouched,
                 bench::Sec(report.makespan), waves.empty() ? 0.0 : waves.Percentile(50),
                 waves.empty() ? 0.0 : waves.Percentile(90),
                 waves.empty() ? 0.0 : waves.Percentile(99), exposed_host_days);

      char tag[48];
      std::snprintf(tag, sizeof(tag), "%dhosts_f%.2f", hosts, failure_rate);
      SampleSet& wave_series = bench_report.Series(std::string("wave_latency_s_") + tag);
      for (double sample : waves.samples()) {
        wave_series.Add(sample);
      }
      bench_report.SetScalar(std::string("makespan_s_") + tag, bench::Sec(report.makespan));
      bench_report.SetScalar(std::string("retries_") + tag, report.retries);
      bench_report.SetScalar(std::string("exposed_host_days_") + tag, exposed_host_days);
    }
  }
  bench_report.WriteJsonArtifact();
  bench::Row("(closed form for every row: 10 waves x 10 s = 100.0 s, zero stragglers — "
             "compare wave-p99)");
}

}  // namespace
}  // namespace hypertp

int main() {
  hypertp::Run();
  return 0;
}
