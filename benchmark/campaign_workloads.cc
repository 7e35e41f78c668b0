// The three campaign workloads and the fleet half of the ladder.

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "benchmark/workloads.h"
#include "src/fleet/fleet_controller.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/policy/policy.h"
#include "src/sim/executor.h"
#include "src/sim/rng.h"
#include "src/sim/worker_pool.h"
#include "src/vulndb/exposure_stream.h"

namespace hypertp::perf {
namespace {

// 1 DC x 80 racks x 12 500 hosts = 1M hosts / 10M VMs, adaptive per-VM
// mechanism choice: ~3M fleet events per run put the executor queue, the
// fleet state machines and per-host policy planning on the critical path.
CampaignConfig Campaign1mAdaptive(uint64_t seed, bool smoke, int threads) {
  CampaignConfig config;
  CampaignDatacenter dc;
  dc.name = "dc0";
  dc.racks = smoke ? 8 : 80;
  dc.hosts_per_rack = smoke ? 125 : 12500;
  dc.vms_per_host = 10;
  config.datacenters = {dc};
  config.shards = 8;
  config.parallel_hosts_per_shard = smoke ? 100 : 1000;
  config.per_host_transplant = Seconds(10);
  config.latency_jitter = 0.2;
  config.epoch = Seconds(30);
  config.policy.mode = policy::PolicyMode::kAdaptive;
  config.seed = seed;
  config.real_threads = threads;
  return config;
}

// 4 DCs x 100 racks x 250 hosts whose host classes span 1x..4x, with rack
// work-stealing and 5 s epochs: barrier and steal-coordinator bound.
CampaignConfig CampaignSkewSteal(uint64_t seed, bool smoke, int threads) {
  const double host_class[4] = {1.0, 1.5, 2.0, 4.0};
  CampaignConfig config;
  for (int d = 0; d < 4; ++d) {
    CampaignDatacenter dc;
    dc.name = "dc" + std::to_string(d);
    dc.racks = smoke ? 8 : 100;
    dc.hosts_per_rack = smoke ? 100 : 250;
    dc.vms_per_host = 10;
    dc.timing.host_class = host_class[d];
    config.datacenters.push_back(dc);
  }
  config.shards = 8;
  config.parallel_hosts_per_shard = smoke ? 25 : 250;
  config.per_host_transplant = Seconds(10);
  // Light jitter makes the seed matter while keeping the run near the
  // work-conserving bound; the waves' slowest host sets each wave's length,
  // so more jitter would hide the steal planner behind wave tails.
  config.latency_jitter = 0.02;
  config.epoch = Seconds(5);
  config.steal.enabled = true;
  config.steal.threshold_epochs = 2.0;
  config.seed = seed;
  config.real_threads = threads;
  return config;
}

// bench_fault_storm's StormCampaign: 10k hosts / 100k VMs under a Poisson
// crash storm with ReHype-mode recovery, so exposure rises as well as falls.
CampaignConfig FaultStorm(uint64_t seed, bool smoke, int threads) {
  CampaignConfig config;
  CampaignDatacenter dc;
  dc.name = "dc0";
  dc.racks = 8;
  dc.hosts_per_rack = smoke ? 25 : 1250;
  dc.vms_per_host = 10;
  dc.crash_storm.rate_per_hour = smoke ? 2400.0 : 120000.0;
  dc.crash_storm.duration = Seconds(300);
  dc.crash_storm.start = Seconds(30);
  dc.crash_storm.recovery_time = Seconds(8);
  dc.crash_storm.pre_pause_fraction = 0.15;
  dc.crash_storm.mid_save_torn_fraction = 0.05;
  dc.crash_storm.stale_commit_fraction = 0.05;
  dc.crash_storm.scrubbed_fraction = 0.02;
  dc.crash_storm.recover = true;
  config.datacenters = {dc};
  config.shards = 8;
  config.parallel_hosts_per_shard = smoke ? 5 : 50;
  config.per_host_transplant = Seconds(10);
  config.latency_jitter = 0.2;
  config.epoch = Seconds(5);
  config.seed = seed;
  config.real_threads = threads;
  return config;
}

using ConfigMaker = CampaignConfig (*)(uint64_t seed, bool smoke, int threads);

// Report bytes with the wall-clock field cleared: equal for equal inputs at
// any thread count.
std::string DeterministicJson(CampaignReport report) {
  report.wall_ms = -1.0;
  return CampaignReportToJson(report);
}

Error InvariantError(const std::string& what) {
  return InternalError("campaign invariant violated: " + what);
}

// The campaign's correctness contract, checked on every iteration.
Result<void> CheckInvariants(const CampaignConfig& config, const CampaignPlan& plan,
                             const CampaignReport& report) {
  int64_t hosts = 0;
  int64_t vms = 0;
  for (const CampaignDatacenter& dc : config.datacenters) {
    hosts += dc.hosts();
    vms += dc.vms();
  }
  int64_t shard_hosts = 0;
  int64_t shard_vms = 0;
  for (const CampaignShardSummary& shard : report.shard_summaries) {
    shard_hosts += shard.hosts;
    shard_vms += static_cast<int64_t>(shard.hosts) *
                 config.datacenters[static_cast<size_t>(shard.datacenter)].vms_per_host;
  }
  if (report.hosts != hosts || report.vms != vms || shard_hosts != hosts || shard_vms != vms) {
    return InvariantError("VM conservation: fleet has " + std::to_string(hosts) + " hosts / " +
                          std::to_string(vms) + " VMs, report " + std::to_string(report.hosts) +
                          " / " + std::to_string(report.vms) + ", shards " +
                          std::to_string(shard_hosts) + " / " + std::to_string(shard_vms));
  }
  if (report.aborted) {
    return InvariantError("campaign aborted: " + report.abort_reason);
  }
  if (report.upgraded + report.failed + report.untouched + report.lost + report.refused !=
      report.hosts) {
    return InvariantError("host outcomes do not sum to the fleet");
  }
  if (report.crash_salvages + report.crash_live_recoveries + report.lost != report.crashes) {
    return InvariantError("crash_salvages + crash_live_recoveries + lost != crashes");
  }
  if (report.crashes == 0) {
    for (size_t i = 1; i < report.exposure_curve.size(); ++i) {
      if (report.exposure_curve[i].fraction > report.exposure_curve[i - 1].fraction) {
        return InvariantError("exposure curve rose without a crash");
      }
    }
  }
  if (config.steal.enabled) {
    // Work-conserving bound: total nominal work over every execution slot.
    double work_s = 0.0;
    for (const CampaignDatacenter& dc : config.datacenters) {
      const SimDuration per_host =
          policy::TransplantCostModel::ScaledDrain(config.drain_time, dc.timing) +
          policy::TransplantCostModel::ScaledTransplant(config.per_host_transplant, dc.timing);
      work_s += static_cast<double>(dc.hosts()) * ToSeconds(per_host);
    }
    int slots = 0;
    for (const CampaignShardPlan& shard : plan.shards) {
      slots += std::min(config.parallel_hosts_per_shard, shard.hosts);
    }
    const double bound_s = work_s / slots;
    if (ToSeconds(report.makespan) < bound_s) {
      char buf[128];
      std::snprintf(buf, sizeof(buf), "makespan %.3f s below the work-conserving bound %.3f s",
                    ToSeconds(report.makespan), bound_s);
      return InvariantError(buf);
    }
  }
  return OkResult();
}

int64_t LostVms(const CampaignConfig& config, const CampaignReport& report) {
  int64_t lost = 0;
  for (const CampaignShardSummary& shard : report.shard_summaries) {
    lost += static_cast<int64_t>(shard.lost) *
            config.datacenters[static_cast<size_t>(shard.datacenter)].vms_per_host;
  }
  return lost;
}

class CampaignWorkload final : public Workload {
 public:
  CampaignWorkload(ConfigMaker make, int threads, const Options& options)
      : make_(make), seed_(options.seed), smoke_(options.smoke), threads_(threads) {}

  Result<void> Setup() override {
    config_ = make_(seed_, smoke_, threads_);
    HYPERTP_ASSIGN_OR_RETURN(plan_, PlanCampaign(config_));
    return OkResult();
  }

  Result<void> Run(bool instrumented) override {
    CampaignConfig config = config_;
    Tracer tracer;
    MetricsRegistry metrics;
    if (instrumented) {
      config.tracer = &tracer;
      config.metrics = &metrics;
    }
    HYPERTP_ASSIGN_OR_RETURN(report_, CampaignPlanner(std::move(config)).Run());
    return OkResult();
  }

  Result<void> Check() override {
    std::string json = DeterministicJson(report_);
    if (first_json_.empty()) {
      first_json_ = std::move(json);
    } else if (json != first_json_) {
      return InternalError("campaign report bytes differ from the first iteration's");
    }
    return CheckInvariants(config_, plan_, report_);
  }

  Result<void> CheckReplica() override {
    const int replica_threads = threads_ == 1 ? 4 : 1;
    HYPERTP_ASSIGN_OR_RETURN(CampaignReport replica,
                             CampaignPlanner(make_(seed_, smoke_, replica_threads)).Run());
    if (DeterministicJson(replica) != first_json_) {
      return InternalError("campaign report at " + std::to_string(replica_threads) +
                           " real threads differs from " + std::to_string(threads_));
    }
    return OkResult();
  }

  int threads() const override { return threads_; }

  double vms() const override { return static_cast<double>(report_.vms); }

  void SimMetrics(MetricSet& out) const override {
    out.Set("sim_makespan_s", ToSeconds(report_.makespan), "s", MetricKind::kExact);
    out.Set("sim_exposed_vm_days", report_.exposed_vm_days, "VM-days", MetricKind::kExact);
    if (config_.policy.adaptive()) {
      out.Set("sim_downtime_s", ToSeconds(report_.policy_vm_downtime), "s", MetricKind::kExact);
    }
    bool storm = false;
    for (const CampaignDatacenter& dc : config_.datacenters) {
      storm |= dc.crash_storm.enabled();
    }
    if (storm) {
      out.Set("sim_vm_survival",
              1.0 - static_cast<double>(LostVms(config_, report_)) /
                        static_cast<double>(report_.vms),
              "fraction", MetricKind::kExact);
    }
  }

  Result<void> Ladder(const LadderEnv& env, MetricSet& out) override {
    HYPERTP_RETURN_IF_ERROR(FleetLadder(config_, env, out));
    // Host layers on one host carrying this fleet's guest count.
    return HostLadder(config_.datacenters[0].vms_per_host, env, out);
  }

 private:
  ConfigMaker make_;
  uint64_t seed_;
  bool smoke_;
  int threads_;
  CampaignConfig config_;
  CampaignPlan plan_;
  CampaignReport report_;
  std::string first_json_;
};

// The per-shard FleetConfig CampaignPlanner::Run builds (src/campaign/
// campaign.cc), minus the barrier-only parts (wave pacer, hold-open), so a
// shard can run standalone to completion.
FleetConfig ShardFleetConfig(const CampaignConfig& config, const CampaignShardPlan& shard,
                             int64_t dc_base, uint64_t seed) {
  const CampaignDatacenter& dc = config.datacenters[static_cast<size_t>(shard.datacenter)];
  FleetConfig fleet;
  fleet.hosts = shard.hosts;
  fleet.fault_domains = static_cast<int>(shard.racks.size());
  fleet.parallel_hosts = std::min(config.parallel_hosts_per_shard, shard.hosts);
  fleet.max_per_domain_in_flight = config.max_per_rack_in_flight;
  fleet.drain_time = policy::TransplantCostModel::ScaledDrain(config.drain_time, dc.timing);
  fleet.per_host_transplant =
      policy::TransplantCostModel::ScaledTransplant(config.per_host_transplant, dc.timing);
  fleet.failure_probability = config.failure_probability;
  fleet.latency_jitter = config.latency_jitter;
  fleet.max_retries = config.max_retries;
  fleet.retry_backoff = config.retry_backoff;
  fleet.post_pause_fraction = config.post_pause_fraction;
  fleet.rollback_failure_probability = config.rollback_failure_probability;
  fleet.rollback_time = config.rollback_time;
  fleet.policy = config.policy;
  if (dc.crash_storm.enabled()) {
    fleet.crash_storm = dc.crash_storm;
    fleet.crash_storm.rate_per_hour *=
        static_cast<double>(shard.hosts) / static_cast<double>(dc.hosts());
  }
  if (config.policy.adaptive()) {
    fleet.policy.link_gbps = dc.link_gbps;
    fleet.policy.host_headroom = dc.host_headroom;
    fleet.policy.vms_per_host = dc.vms_per_host;
    const int nracks = static_cast<int>(shard.racks.size());
    fleet.policy_host_global_ids.reserve(static_cast<size_t>(shard.hosts));
    for (int i = 0; i < shard.hosts; ++i) {
      const int rack = shard.racks[static_cast<size_t>(i % nracks)];
      fleet.policy_host_global_ids.push_back(dc_base + static_cast<int64_t>(rack) *
                                                           dc.hosts_per_rack +
                                             i / nracks);
    }
  }
  fleet.seed = seed;
  fleet.trace_capacity = static_cast<size_t>(std::max(shard.hosts, 128)) * 8;
  return fleet;
}

// A no-op event that re-arms itself while `left` allows, at a spread of
// delays, so the executor's heap stays at the depth it was seeded with.
struct ChainEvent {
  SimExecutor* executor;
  uint64_t* left;
  void operator()() const {
    if (*left == 0) {
      return;
    }
    --*left;
    executor->ScheduleAfter(Millis(1 + static_cast<int64_t>(*left % 997)), *this);
  }
};

}  // namespace

// Real threads per workload. Only campaign_skew_steal, whose subject is the
// epoch barrier and its worker-pool dispatch, runs epochs on several
// threads, and on 2 rather than 4: on the 4-core benchmark box, 4 threads
// widened every campaign's run-to-run spread 2-5x (README.md, "Noise,
// threads and the gate"). The 1-thread campaigns' replica runs on 4
// threads, so thread-count determinism is still checked on every run.
std::unique_ptr<Workload> MakeCampaignWorkload(std::string_view name, const Options& options) {
  if (name == "campaign_1m_adaptive") {
    return std::make_unique<CampaignWorkload>(&Campaign1mAdaptive, 1, options);
  }
  if (name == "campaign_skew_steal") {
    return std::make_unique<CampaignWorkload>(&CampaignSkewSteal, 2, options);
  }
  if (name == "fault_storm") {
    return std::make_unique<CampaignWorkload>(&FaultStorm, 1, options);
  }
  return nullptr;
}

CampaignConfig HostFleetCampaign(uint64_t seed, bool smoke, int threads) {
  CampaignConfig config;
  CampaignDatacenter dc;
  dc.name = "dc0";
  dc.racks = smoke ? 4 : 8;
  dc.hosts_per_rack = smoke ? 25 : 125;
  dc.vms_per_host = 16;
  config.datacenters = {dc};
  config.shards = smoke ? 4 : 8;
  config.parallel_hosts_per_shard = smoke ? 10 : 100;
  config.per_host_transplant = Seconds(10);
  config.latency_jitter = 0.2;
  config.epoch = Seconds(30);
  config.policy.mode = policy::PolicyMode::kAdaptive;
  config.seed = seed;
  config.real_threads = threads;
  return config;
}

Result<void> FleetLadder(const CampaignConfig& config, const LadderEnv& env, MetricSet& out) {
  WallTrace& trace = *env.trace;
  const int64_t it = env.iteration;
  const SpanId root = trace.Begin("ladder:fleet", env.parent, it);

  double plan_ms = 0.0;
  HYPERTP_ASSIGN_OR_RETURN(CampaignPlan plan,
                           trace.Time("campaign:PlanCampaign", root, it, &plan_ms,
                                      [&] { return PlanCampaign(config); }));
  double run_ms = 0.0;
  HYPERTP_ASSIGN_OR_RETURN(CampaignReport report,
                           trace.Time("campaign:CampaignPlanner::Run", root, it, &run_ms,
                                      [&] { return CampaignPlanner(config).Run(); }));

  // fleet: one standalone controller per shard, seeded exactly as the
  // campaign seeds it (id-order forks of the campaign seed).
  std::vector<int64_t> dc_base(config.datacenters.size(), 0);
  for (size_t d = 1; d < config.datacenters.size(); ++d) {
    dc_base[d] = dc_base[d - 1] + config.datacenters[d - 1].hosts();
  }
  Rng root_rng(config.seed);
  double construct_ms = 0.0;
  double fleet_run_ms = 0.0;
  uint64_t events = 0;
  for (const CampaignShardPlan& shard : plan.shards) {
    const FleetConfig fleet = ShardFleetConfig(
        config, shard, dc_base[static_cast<size_t>(shard.datacenter)], root_rng.Fork().NextU64());
    SimExecutor executor;
    std::unique_ptr<FleetController> controller =
        trace.Time("fleet:FleetController", root, it, &construct_ms,
                   [&] { return std::make_unique<FleetController>(executor, fleet); });
    if (controller->config_error().has_value()) {
      return controller->config_error().value();
    }
    trace.Time("fleet:FleetController::Run", root, it, &fleet_run_ms,
               [&] { controller->Run(); });
    events += controller->trace().total_recorded();
  }

  // sim: the same number of events through one executor as no-op closures.
  double executor_ms = 0.0;
  {
    SimExecutor executor;
    const uint64_t depth = std::min<uint64_t>(
        std::max<uint64_t>(events, 1), static_cast<uint64_t>(config.parallel_hosts_per_shard));
    uint64_t left = std::max<uint64_t>(events, 1) - depth;
    trace.Time("sim:SimExecutor::Run", root, it, &executor_ms, [&] {
      for (uint64_t i = 0; i < depth; ++i) {
        executor.ScheduleAfter(Millis(1 + static_cast<int64_t>(i % 997)),
                               ChainEvent{&executor, &left});
      }
      executor.Run();
    });
  }

  // sim: one barrier's worker-pool dispatch of `shards` empty tasks.
  double pool_span_ms = 0.0;
  const double dispatch_ms = trace.Time("sim:RunOnWorkerPool", root, it, &pool_span_ms, [&] {
    std::vector<std::function<void()>> tasks(plan.shards.size(), [] {});
    return MeanCallMs(env.smoke ? 5.0 : 50.0, [&] { RunOnWorkerPool(tasks, env.threads); });
  });
  const int executed_epochs = report.epochs - report.idle_epochs_skipped;

  // policy: every host of the fleet priced under the adaptive policy with its
  // datacenter's signals (a fixed-policy campaign never calls this; the
  // replay shows what its fleet would cost to plan).
  double policy_ms = 0.0;
  int64_t refused = 0;
  trace.Time("policy:MechanismPolicy::PlanHost", root, it, &policy_ms, [&] {
    for (size_t d = 0; d < config.datacenters.size(); ++d) {
      const CampaignDatacenter& dc = config.datacenters[d];
      policy::PolicyConfig policy_config = config.policy;
      policy_config.mode = policy::PolicyMode::kAdaptive;
      policy_config.link_gbps = dc.link_gbps;
      policy_config.host_headroom = dc.host_headroom;
      policy_config.vms_per_host = dc.vms_per_host;
      const policy::MechanismPolicy policy(policy_config);
      policy::EnvSignals signals;
      signals.link_gbps = dc.link_gbps;
      signals.host_headroom = dc.host_headroom;
      signals.rollback_risk =
          policy::LedgerRollbackRisk(config.failure_probability, config.post_pause_fraction);
      signals.migration_overhead = policy_config.migration_overhead;
      const SimDuration transplant =
          policy::TransplantCostModel::ScaledTransplant(config.per_host_transplant, dc.timing);
      const SimDuration drain =
          policy::TransplantCostModel::ScaledDrain(config.drain_time, dc.timing);
      for (int h = 0; h < dc.hosts(); ++h) {
        refused += policy.PlanHost(dc_base[d] + h, signals, transplant, drain, 0).refused();
      }
    }
  });

  // vulndb: the run's safe/re-exposed host counts fed through a fresh
  // stream, one host per update, one AdvanceTo per epoch.
  double exposure_ms = 0.0;
  const int64_t n_exposed = report.crash_rollbacks;
  const int64_t n_safe = static_cast<int64_t>(report.upgraded) + n_exposed;
  const int epochs = std::max(report.epochs, 1);
  const int64_t vms_per_host = report.hosts > 0 ? report.vms / report.hosts : 1;
  trace.Time("vulndb:ExposureStream", root, it, &exposure_ms, [&] {
    ExposureStream stream(report.hosts, report.vms);
    int64_t fed_safe = 0;
    int64_t fed_exposed = 0;
    for (int e = 1; e <= epochs; ++e) {
      const SimTime t = static_cast<SimTime>(e) * config.epoch;
      for (; fed_exposed < n_exposed * e / epochs; ++fed_exposed) {
        stream.OnHostsExposed(t, 1, vms_per_host);
      }
      for (; fed_safe < n_safe * e / epochs; ++fed_safe) {
        stream.OnHostsSafe(t, 1, vms_per_host);
      }
      stream.AdvanceTo(t);
    }
    stream.Seal(static_cast<SimTime>(epochs) * config.epoch);
  });
  trace.End(root);

  const double pool_ms_per_run = dispatch_ms * executed_epochs;
  const int parallel = std::max(1, std::min(env.threads, static_cast<int>(plan.shards.size())));
  out.Set("campaign.plan_ms", plan_ms, "ms");
  out.Set("campaign.run_ms", run_ms, "ms");
  // The campaign builds its shard controllers one after another and advances
  // them `parallel` at a time; what is left of its wall time is its own.
  out.Set("campaign.self_ms_est",
          run_ms - construct_ms - fleet_run_ms / parallel - pool_ms_per_run - exposure_ms, "ms");
  out.Set("campaign.epochs", report.epochs, "count");
  out.Set("campaign.idle_epochs_skipped", report.idle_epochs_skipped, "count");
  out.Set("campaign.steals", report.steals, "count");
  out.Set("campaign.stolen_hosts", report.stolen_hosts, "count");
  out.Set("campaign.throttled_epochs", report.throttled_epochs, "count");
  out.Set("campaign.bytes_per_host", env.peak_rss_bytes / std::max(report.hosts, 1), "B");
  out.Set("sim.pool_dispatch_us", dispatch_ms * 1e3, "us");
  out.Set("sim.pool_ms_per_run", pool_ms_per_run, "ms");
  out.Set("sim.executor_events_per_s",
          static_cast<double>(std::max<uint64_t>(events, 1)) / (executor_ms / 1e3), "1/s");
  out.Set("fleet.construct_ms", construct_ms, "ms");
  out.Set("fleet.run_ms", fleet_run_ms, "ms");
  out.Set("fleet.events", static_cast<double>(events), "count");
  out.Set("fleet.events_per_s", static_cast<double>(events) / (fleet_run_ms / 1e3), "1/s");
  out.Set("fleet.recovery_ratio",
          report.crashes > 0
              ? static_cast<double>(report.crash_salvages + report.crash_live_recoveries) /
                    report.crashes
              : 1.0,
          "fraction");
  out.Set("policy.plan_host_us", policy_ms * 1e3 / std::max(report.hosts, 1), "us");
  out.Set("policy.refused_frac", static_cast<double>(refused) / std::max(report.hosts, 1),
          "fraction");
  out.Set("vulndb.exposure_updates_per_s",
          static_cast<double>(n_safe + n_exposed + epochs) / (exposure_ms / 1e3), "1/s");
  return OkResult();
}

}  // namespace hypertp::perf
