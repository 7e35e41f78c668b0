// Operational capstone: Monte-Carlo years of datacenter operation under
// HyperTP — disclosures arrive at historical rates, the policy reacts, the
// fleet transplants. Aggregates the exposure reduction Fig. 1 promises and
// the downtime price paid for it, then replays the same years with the
// adaptive mechanism policy (src/policy/) against the fixed flat-charge
// baseline to price what per-VM mechanism selection buys.
//
// Deterministic: seeded years, byte-identical BENCH_operational_year.json on
// rerun. `--smoke` shrinks the seed sweep for sanitizer runs (and renames the
// artifact so it never clobbers the committed baseline).

#include <cstring>

#include "bench/bench_util.h"
#include "src/scenario/operational.h"
#include "src/sim/stats.h"

namespace hypertp {
namespace {

void RunFor(HypervisorKind home, const std::vector<HypervisorKind>& pool, const char* label,
            int seeds, bench::BenchReport& bench_report, const std::string& series_prefix) {
  bench::Section(label);
  SampleSet reduction, downtime_minutes, transplants;
  OperationalReport sample;
  for (uint64_t seed = 1; seed <= static_cast<uint64_t>(seeds); ++seed) {
    OperationalConfig config;
    config.home = home;
    config.pool = pool;
    config.seed = seed;
    config.years = 1;
    OperationalReport report = RunOperationalSimulation(config);
    if (seed == 1) {
      sample = report;
    }
    if (report.exposure_days_hypertp > 0) {
      reduction.Add(report.exposure_reduction_factor());
    }
    downtime_minutes.Add(ToSeconds(report.vm_downtime_paid) / 60.0);
    transplants.Add(report.transplants_away);
  }
  bench::Row("transplants/year:       median %5.1f  [%0.0f, %0.0f]",
             transplants.Percentile(50), transplants.min(), transplants.max());
  bench::Row("exposure reduction:     median %5.0fx (over %d seeded years)",
             reduction.Percentile(50), seeds);
  bench::Row("VM-downtime paid/year:  median %5.1f VM-minutes across the fleet",
             downtime_minutes.Percentile(50));
  bench::Row("sample year (seed 1): %d disclosures, %d away, %d back, %d unaffected-while-away,"
             " %d no-safe-target",
             sample.disclosures, sample.transplants_away, sample.transplants_back,
             sample.already_safe, sample.no_safe_target);
  for (const std::string& line : sample.event_log) {
    bench::Row("  %s", line.c_str());
  }
  bench_report.Series(series_prefix + "_reduction_factor") = reduction;
  bench_report.Series(series_prefix + "_downtime_vm_minutes") = downtime_minutes;
  bench_report.Series(series_prefix + "_transplants_per_year") = transplants;
}

// Fixed vs adaptive mechanism policy, replayed over the same seeded years.
// Everything except PolicyConfig::mode is identical, so any delta is the
// policy's.
void FixedVsAdaptive(int seeds, bench::BenchReport& bench_report) {
  bench::Section("Fixed vs adaptive mechanism policy — same years");
  SampleSet fixed_downtime, adaptive_downtime, fixed_exposure, adaptive_exposure;
  OperationalReport sample_fixed, sample_adaptive;
  for (uint64_t seed = 1; seed <= static_cast<uint64_t>(seeds); ++seed) {
    OperationalConfig config;
    config.home = HypervisorKind::kXen;
    config.pool = {HypervisorKind::kXen, HypervisorKind::kKvm};
    config.seed = seed;
    config.years = 1;

    OperationalReport fixed = RunOperationalSimulation(config);

    config.policy.mode = policy::PolicyMode::kAdaptive;
    OperationalReport adaptive = RunOperationalSimulation(config);

    if (seed == 1) {
      sample_fixed = fixed;
      sample_adaptive = adaptive;
    }
    fixed_downtime.Add(ToSeconds(fixed.vm_downtime_paid) / 60.0);
    adaptive_downtime.Add(ToSeconds(adaptive.vm_downtime_paid) / 60.0);
    fixed_exposure.Add(fixed.exposure_days_hypertp);
    adaptive_exposure.Add(adaptive.exposure_days_hypertp);
  }
  bench::Row("%-10s %22s %22s", "policy", "downtime (VM-min/yr)", "exposure (days/yr)");
  bench::Row("%-10s %12.1f (median) %12.2f (median)", "fixed",
             fixed_downtime.Percentile(50), fixed_exposure.Percentile(50));
  bench::Row("%-10s %12.1f (median) %12.2f (median)", "adaptive",
             adaptive_downtime.Percentile(50), adaptive_exposure.Percentile(50));
  const double fixed_dt = fixed_downtime.Percentile(50);
  const double adaptive_dt = adaptive_downtime.Percentile(50);
  if (adaptive_dt > 0) {
    bench::Row("downtime ratio: fixed charges %.1fx the adaptive modeled cost",
               fixed_dt / adaptive_dt);
  }
  bench::Row("sample year (seed 1, adaptive): %d in-place VMs, %d migrated, %d refused,"
             " %d refused hosts",
             sample_adaptive.fleet.policy_inplace_vms, sample_adaptive.fleet.policy_migrate_vms,
             sample_adaptive.fleet.policy_refused_vms, sample_adaptive.fleet.refused);
  bench_report.Series("fixed_downtime_vm_minutes") = fixed_downtime;
  bench_report.Series("adaptive_downtime_vm_minutes") = adaptive_downtime;
  bench_report.Series("fixed_exposure_days") = fixed_exposure;
  bench_report.Series("adaptive_exposure_days") = adaptive_exposure;
  bench_report.SetScalar("sample_policy_inplace_vms", sample_adaptive.fleet.policy_inplace_vms);
  bench_report.SetScalar("sample_policy_migrate_vms", sample_adaptive.fleet.policy_migrate_vms);
  bench_report.SetScalar("sample_policy_refused_vms", sample_adaptive.fleet.policy_refused_vms);
  bench_report.SetScalar("sample_refused_hosts", sample_adaptive.fleet.refused);
}

void Run(bool smoke) {
  bench::Banner("Operational simulation — a year of HyperTP in production",
                "Poisson disclosures at the 2013-2019 historical rate; 100-host fleet, "
                "1000 VMs; 4 h reaction time; patch windows from the dataset.");
  const int seeds = smoke ? 3 : 20;
  if (smoke) {
    bench::Row("(--smoke: %d seeded years per section)", seeds);
  }
  bench::BenchReport bench_report(smoke ? "operational_year_smoke" : "operational_year");
  RunFor(HypervisorKind::kXen, {HypervisorKind::kXen, HypervisorKind::kKvm},
         "Xen fleet, {Xen, KVM} repertoire", seeds, bench_report, "xen_two");
  RunFor(HypervisorKind::kXen,
         {HypervisorKind::kXen, HypervisorKind::kKvm, HypervisorKind::kBhyve},
         "Xen fleet, three-hypervisor repertoire", seeds, bench_report, "xen_three");
  RunFor(HypervisorKind::kKvm, {HypervisorKind::kXen, HypervisorKind::kKvm},
         "KVM fleet, {Xen, KVM} repertoire", seeds, bench_report, "kvm_two");
  FixedVsAdaptive(seeds, bench_report);
  bench_report.WriteJsonArtifact();
}

}  // namespace
}  // namespace hypertp

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  hypertp::Run(smoke);
  return 0;
}
