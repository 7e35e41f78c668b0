// The benchmark's workloads and the per-layer ladder.
//
// A workload is one seeded set of inputs plus the public call it times and
// the checks its outputs must pass. Three workloads are campaigns
// (CampaignPlanner::Run over generated fleets); one is a single host's
// InPlaceTransplant::Run, the only path through the real state-manipulation
// stack. The ladder (--trace) times the public call of every layer on the
// workload's own inputs; layers a workload does not reach are timed on a
// reference input of the workload's shape (see README.md, "Per-layer").

#ifndef HYPERTP_BENCHMARK_WORKLOADS_H_
#define HYPERTP_BENCHMARK_WORKLOADS_H_

#include <memory>
#include <string_view>

#include "benchmark/harness.h"
#include "src/base/result.h"
#include "src/campaign/campaign.h"

namespace hypertp::perf {

// Where a ladder records its spans and what it may use.
struct LadderEnv {
  uint64_t seed = 1;
  int threads = 4;
  bool smoke = false;
  WallTrace* trace = nullptr;
  SpanId parent = 0;
  int64_t iteration = 0;
  // Peak RSS of the timed iterations, before the ladder allocated anything.
  double peak_rss_bytes = 0.0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  // Builds one iteration's inputs from the seed (timed as setup_s).
  virtual Result<void> Setup() = 0;
  // The timed call. `instrumented` attaches the simulator's own Tracer and
  // MetricsRegistry (the traced side of obs.trace_overhead_frac).
  virtual Result<void> Run(bool instrumented) = 0;
  // Checks the last Run's outputs: the workload's invariants, and byte
  // equality with the first iteration's outputs.
  virtual Result<void> Check() = 0;
  // Once per process: the same inputs at another real-thread count (4 when
  // the workload runs on 1, else 1) must give the first iteration's bytes.
  virtual Result<void> CheckReplica() = 0;
  // Real OS threads the simulator gets for this workload.
  virtual int threads() const = 0;
  // Simulated VMs one iteration transplants (work_per_s numerator).
  virtual double vms() const = 0;
  // Simulated-time results of the last run (sim_* metrics).
  virtual void SimMetrics(MetricSet& out) const = 0;
  // Per-layer ladder: every layer metric, on this workload's inputs.
  virtual Result<void> Ladder(const LadderEnv& env, MetricSet& out) = 0;
};

// campaign_1m_adaptive, campaign_skew_steal or fault_storm; nullptr for any
// other name.
std::unique_ptr<Workload> MakeCampaignWorkload(std::string_view name, const Options& options);
// host_transplant.
std::unique_ptr<Workload> MakeHostWorkload(const Options& options);

// Ladder halves. The fleet half replays `config` through campaign, sim,
// fleet, policy and vulndb; the host half builds a Xen host with `vms`
// guests and replays it through hv, xen, pipeline, uisr, base, pram, kexec,
// kvm and core.
Result<void> FleetLadder(const CampaignConfig& config, const LadderEnv& env, MetricSet& out);
Result<void> HostLadder(int vms, const LadderEnv& env, MetricSet& out);

// The fleet host_transplant's host would roll out in: 1000 hosts of 16
// guests (smoke: 100), adaptive policy. The input of its fleet half.
CampaignConfig HostFleetCampaign(uint64_t seed, bool smoke, int threads);

}  // namespace hypertp::perf

#endif  // HYPERTP_BENCHMARK_WORKLOADS_H_
