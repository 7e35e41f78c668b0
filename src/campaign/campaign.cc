#include "src/campaign/campaign.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <string_view>
#include <utility>

#include "src/base/json.h"
#include "src/base/logging.h"
#include "src/fleet/fleet_controller.h"
#include "src/sim/executor.h"
#include "src/sim/rng.h"
#include "src/sim/worker_pool.h"

namespace hypertp {

Result<CampaignPlan> PlanCampaign(const CampaignConfig& config) {
  if (config.datacenters.empty()) {
    return InvalidArgumentError("CampaignConfig::datacenters must not be empty");
  }
  CampaignPlan plan;
  for (size_t d = 0; d < config.datacenters.size(); ++d) {
    const CampaignDatacenter& dc = config.datacenters[d];
    const std::string where = "datacenter '" + dc.name + "' (#" + std::to_string(d) + ")";
    const std::string prefix = where + ": ";
    HYPERTP_RETURN_IF_ERROR(CheckPositive(prefix, {{"racks", dc.racks},
                                                   {"hosts_per_rack", dc.hosts_per_rack},
                                                   {"vms_per_host", dc.vms_per_host}}));
    if (dc.bandwidth_slots < 0) {
      return InvalidFieldError(prefix, "bandwidth_slots", ">= 0",
                               std::to_string(dc.bandwidth_slots));
    }
    if (!(dc.link_gbps >= 0.0) || !std::isfinite(dc.link_gbps)) {
      return InvalidFieldError(prefix, "link_gbps", "finite and >= 0",
                               std::to_string(dc.link_gbps));
    }
    HYPERTP_RETURN_IF_ERROR(
        CheckUnitRange(prefix, "fraction", {{"host_headroom", dc.host_headroom}}));
    // Heterogeneous timing multipliers must be finite and positive (1.0 = the
    // homogeneous default).
    for (const auto& [field, v] : NamedFields<double>{
             {"timing.host_class", dc.timing.host_class},
             {"timing.reboot_cost", dc.timing.reboot_cost},
             {"timing.link_generation", dc.timing.link_generation}}) {
      if (!(v > 0.0) || !std::isfinite(v)) {
        return InvalidFieldError(prefix, field, "finite and > 0", std::to_string(v));
      }
    }
    if (Result<void> storm = ValidateCrashStorm(dc.crash_storm, "CampaignDatacenter");
        !storm.ok()) {
      return InvalidArgumentError(prefix + storm.error().message());
    }
    // Host counts are ints downstream. Checking the running total also keeps
    // total_vms below INT_MAX^2 and total_racks below INT_MAX.
    const int64_t dc_hosts = static_cast<int64_t>(dc.racks) * dc.hosts_per_rack;
    if (dc_hosts > std::numeric_limits<int>::max()) {
      return InvalidArgumentError(where + ": racks * hosts_per_rack overflows int, got " +
                                  std::to_string(dc_hosts));
    }
    if (plan.total_hosts + dc_hosts > std::numeric_limits<int>::max()) {
      return InvalidArgumentError("CampaignConfig::datacenters host total overflows int at " +
                                  where);
    }
    plan.total_hosts += static_cast<int>(dc_hosts);
    plan.total_vms += dc.vms();
    plan.total_racks += dc.racks;
  }
  const int dcs = static_cast<int>(config.datacenters.size());
  if (config.shards < dcs) {
    return InvalidArgumentError("CampaignConfig::shards (" + std::to_string(config.shards) +
                                ") must cover every datacenter (>= " + std::to_string(dcs) + ")");
  }
  if (config.shards > plan.total_racks) {
    return InvalidArgumentError("CampaignConfig::shards (" + std::to_string(config.shards) +
                                ") exceeds the total rack count (" +
                                std::to_string(plan.total_racks) +
                                "); shards own whole racks");
  }
  if (config.epoch <= 0) {
    return InvalidArgumentError("CampaignConfig::epoch must be > 0, got " +
                                std::to_string(config.epoch) + " ns");
  }
  if (config.max_concurrent_shards < 0) {
    return InvalidArgumentError("CampaignConfig::max_concurrent_shards must be >= 0");
  }
  if (config.slo.rate_window_epochs <= 0) {
    return InvalidArgumentError("CampaignSlo::rate_window_epochs must be > 0");
  }
  if (!(config.steal.threshold_epochs > 0.0) || !std::isfinite(config.steal.threshold_epochs)) {
    return InvalidArgumentError("CampaignStealConfig::threshold_epochs must be finite and > 0");
  }
  if (config.steal.max_racks_per_epoch < 0) {
    return InvalidArgumentError("CampaignStealConfig::max_racks_per_epoch must be >= 0");
  }
  if (config.steal.enabled) {
    // Work-stealing re-homes whole racks between shards, each host carrying
    // its plan and RNG stream. Exposure deltas count hosts, so the per-VM
    // weight must be uniform; storms are thinned per shard, and a rack is
    // only fully unstarted while no host can crash under the steal planner.
    for (size_t d = 0; d < config.datacenters.size(); ++d) {
      if (config.datacenters[d].crash_storm.enabled()) {
        return InvalidArgumentError("CampaignStealConfig::enabled is incompatible with "
                                    "crash storms (datacenter '" +
                                    config.datacenters[d].name + "')");
      }
      if (config.datacenters[d].vms_per_host != config.datacenters[0].vms_per_host) {
        return InvalidArgumentError(
            "CampaignStealConfig::enabled requires a uniform vms_per_host across "
            "datacenters (racks re-home across DCs), got " +
            std::to_string(config.datacenters[d].vms_per_host) + " vs " +
            std::to_string(config.datacenters[0].vms_per_host));
      }
    }
  }
  HYPERTP_RETURN_IF_ERROR(CheckPositive(
      "CampaignConfig::", {{"parallel_hosts_per_shard", config.parallel_hosts_per_shard}}));
  if (config.max_per_rack_in_flight < 0) {
    return InvalidFieldError("CampaignConfig::", "max_per_rack_in_flight", ">= 0",
                             std::to_string(config.max_per_rack_in_flight));
  }
  HYPERTP_RETURN_IF_ERROR(ValidateRolloutKnobs(config, "CampaignConfig"));

  // Apportion shards to datacenters by host count (D'Hondt: every DC starts
  // with one shard; each remaining shard goes to the DC maximizing
  // hosts / (assigned + 1), ties to the lower index), capped at the DC's rack
  // count so no shard ends up empty.
  plan.shards_per_datacenter.assign(static_cast<size_t>(dcs), 1);
  for (int extra = config.shards - dcs; extra > 0; --extra) {
    int best = -1;
    double best_score = -1.0;
    for (int d = 0; d < dcs; ++d) {
      if (plan.shards_per_datacenter[static_cast<size_t>(d)] >=
          config.datacenters[static_cast<size_t>(d)].racks) {
        continue;  // Every rack already has its own shard.
      }
      const double score =
          static_cast<double>(config.datacenters[static_cast<size_t>(d)].hosts()) /
          (plan.shards_per_datacenter[static_cast<size_t>(d)] + 1);
      if (score > best_score) {
        best_score = score;
        best = d;
      }
    }
    plan.shards_per_datacenter[static_cast<size_t>(best)] += 1;
  }

  // Racks round-robin over the DC's shards; shard ids dense in DC order.
  int next_id = 0;
  for (int d = 0; d < dcs; ++d) {
    const CampaignDatacenter& dc = config.datacenters[static_cast<size_t>(d)];
    const int dc_shards = plan.shards_per_datacenter[static_cast<size_t>(d)];
    const int first_id = next_id;
    for (int s = 0; s < dc_shards; ++s) {
      CampaignShardPlan shard;
      shard.id = next_id++;
      shard.datacenter = d;
      shard.vms_per_host = dc.vms_per_host;
      plan.shards.push_back(std::move(shard));
    }
    for (int rack = 0; rack < dc.racks; ++rack) {
      CampaignShardPlan& shard = plan.shards[static_cast<size_t>(first_id + rack % dc_shards)];
      shard.racks.push_back(rack);
      shard.hosts += dc.hosts_per_rack;
    }
  }
  return plan;
}

std::string CampaignReportToJson(const CampaignReport& report) {
  JsonWriter j;
  j.BeginObject();
  j.Key("kind").String("campaign");
  j.Key("shards").Number(static_cast<int64_t>(report.shards));
  j.Key("datacenters").Number(static_cast<int64_t>(report.datacenters));
  j.Key("hosts").Number(static_cast<int64_t>(report.hosts));
  j.Key("vms").Number(report.vms);
  j.Key("upgraded").Number(static_cast<int64_t>(report.upgraded));
  j.Key("failed").Number(static_cast<int64_t>(report.failed));
  j.Key("untouched").Number(static_cast<int64_t>(report.untouched));
  j.Key("retries").Number(static_cast<int64_t>(report.retries));
  j.Key("post_pause_faults").Number(static_cast<int64_t>(report.post_pause_faults));
  j.Key("rollbacks").Number(static_cast<int64_t>(report.rollbacks));
  j.Key("rollback_failures").Number(static_cast<int64_t>(report.rollback_failures));
  j.Key("crashes").Number(static_cast<int64_t>(report.crashes));
  j.Key("crash_salvages").Number(static_cast<int64_t>(report.crash_salvages));
  j.Key("crash_live_recoveries").Number(static_cast<int64_t>(report.crash_live_recoveries));
  j.Key("crash_rollbacks").Number(static_cast<int64_t>(report.crash_rollbacks));
  j.Key("crash_upgrades").Number(static_cast<int64_t>(report.crash_upgrades));
  j.Key("crash_data_loss").Number(static_cast<int64_t>(report.crash_data_loss));
  j.Key("lost").Number(static_cast<int64_t>(report.lost));
  j.Key("refused").Number(static_cast<int64_t>(report.refused));
  j.Key("policy").BeginObject();
  j.Key("mode").String(report.policy_adaptive ? "adaptive" : "fixed");
  j.Key("inplace_vms").Number(static_cast<int64_t>(report.policy_inplace_vms));
  j.Key("migrate_vms").Number(static_cast<int64_t>(report.policy_migrate_vms));
  j.Key("refused_vms").Number(static_cast<int64_t>(report.policy_refused_vms));
  j.Key("vm_downtime_ms").Number(ToMillis(report.policy_vm_downtime));
  j.EndObject();
  j.Key("steals").Number(static_cast<int64_t>(report.steals));
  j.Key("stolen_hosts").Number(static_cast<int64_t>(report.stolen_hosts));
  j.Key("idle_epochs_skipped").Number(static_cast<int64_t>(report.idle_epochs_skipped));
  j.Key("aborted").Bool(report.aborted);
  j.Key("complete").Bool(report.complete);
  j.Key("makespan_ms").Number(ToMillis(report.makespan));
  j.Key("slo").BeginObject();
  j.Key("epochs").Number(static_cast<int64_t>(report.epochs));
  j.Key("throttled_epochs").Number(static_cast<int64_t>(report.throttled_epochs));
  j.Key("abort_reason").String(report.abort_reason);
  j.EndObject();
  j.Key("exposure").BeginObject();
  j.Key("final_fraction_vulnerable").Number(report.final_fraction_vulnerable);
  j.Key("exposed_host_days").Number(report.exposed_host_days);
  j.Key("exposed_vm_days").Number(report.exposed_vm_days);
  j.Key("curve").BeginArray();
  for (const ExposureCurvePoint& point : report.exposure_curve) {
    j.BeginArray();
    j.Number(ToMillis(point.time));
    j.Number(point.exposed_vms);
    j.Number(point.fraction);
    j.EndArray();
  }
  j.EndArray();
  j.EndObject();
  j.Key("shard_makespan_seconds").BeginObject();
  j.Key("count").Number(static_cast<uint64_t>(report.shard_makespan_seconds.count()));
  if (!report.shard_makespan_seconds.empty()) {
    j.Key("p50").Number(report.shard_makespan_seconds.Percentile(50));
    j.Key("p99").Number(report.shard_makespan_seconds.Percentile(99));
    j.Key("max").Number(report.shard_makespan_seconds.max());
  }
  j.EndObject();
  j.Key("recovery_latency_seconds").BeginObject();
  j.Key("count").Number(static_cast<uint64_t>(report.recovery_latency_seconds.count()));
  if (!report.recovery_latency_seconds.empty()) {
    j.Key("p50").Number(report.recovery_latency_seconds.Percentile(50));
    j.Key("p99").Number(report.recovery_latency_seconds.Percentile(99));
    j.Key("max").Number(report.recovery_latency_seconds.max());
  }
  j.EndObject();
  j.Key("shards_detail").BeginArray();
  for (const CampaignShardSummary& shard : report.shard_summaries) {
    j.BeginObject();
    j.Key("id").Number(static_cast<int64_t>(shard.id));
    j.Key("datacenter").Number(static_cast<int64_t>(shard.datacenter));
    j.Key("hosts").Number(static_cast<int64_t>(shard.hosts));
    j.Key("upgraded").Number(static_cast<int64_t>(shard.upgraded));
    j.Key("failed").Number(static_cast<int64_t>(shard.failed));
    j.Key("untouched").Number(static_cast<int64_t>(shard.untouched));
    j.Key("retries").Number(static_cast<int64_t>(shard.retries));
    j.Key("waves").Number(static_cast<int64_t>(shard.waves));
    j.Key("post_pause_faults").Number(static_cast<int64_t>(shard.post_pause_faults));
    j.Key("rollbacks").Number(static_cast<int64_t>(shard.rollbacks));
    j.Key("rollback_failures").Number(static_cast<int64_t>(shard.rollback_failures));
    j.Key("crashes").Number(static_cast<int64_t>(shard.crashes));
    j.Key("crash_rollbacks").Number(static_cast<int64_t>(shard.crash_rollbacks));
    j.Key("lost").Number(static_cast<int64_t>(shard.lost));
    j.Key("refused").Number(static_cast<int64_t>(shard.refused));
    j.Key("stolen_in").Number(static_cast<int64_t>(shard.stolen_in));
    j.Key("stolen_out").Number(static_cast<int64_t>(shard.stolen_out));
    j.Key("aborted").Bool(shard.aborted);
    j.Key("complete").Bool(shard.complete);
    j.Key("admitted_ms").Number(shard.admitted < 0 ? -1.0 : ToMillis(shard.admitted));
    j.Key("makespan_ms").Number(ToMillis(shard.makespan));
    j.EndObject();
  }
  j.EndArray();
  j.EndObject();
  return j.Take();
}

CampaignPlanner::CampaignPlanner(CampaignConfig config) : config_(std::move(config)) {}

Result<CampaignReport> CampaignPlanner::Run() {
  if (ran_) {
    return FailedPreconditionError("CampaignPlanner::Run is single-shot");
  }
  ran_ = true;
  const auto wall_start = std::chrono::steady_clock::now();
  Result<CampaignPlan> planned = PlanCampaign(config_);
  if (!planned.ok()) {
    return planned.error();
  }
  const CampaignPlan plan = std::move(planned).value();
  Tracer* const tracer = config_.tracer;

  // Per-shard runtime. Controllers borrow their executor and the pacer reads
  // `governor_hold_`, which is written only at barriers.
  struct ShardRuntime {
    const CampaignShardPlan* plan = nullptr;
    std::unique_ptr<SimExecutor> executor;
    std::unique_ptr<FleetController> controller;
    bool admitted = false;
    bool done = false;
    SimTime admitted_at = -1;
    SpanId span = 0;
  };
  std::vector<std::unique_ptr<ShardRuntime>> shards;
  shards.reserve(plan.shards.size());
  // Campaign-global host numbering base per datacenter (cumulative hosts of
  // the DCs before it): the adaptive policy keys every host plan on this id,
  // so decisions are invariant under resharding.
  std::vector<int64_t> dc_base(config_.datacenters.size(), 0);
  for (size_t d = 1; d < config_.datacenters.size(); ++d) {
    dc_base[d] = dc_base[d - 1] + config_.datacenters[d - 1].hosts();
  }
  Rng root(config_.seed);
  for (const CampaignShardPlan& shard_plan : plan.shards) {
    auto rt = std::make_unique<ShardRuntime>();
    rt->plan = &shard_plan;
    rt->executor = std::make_unique<SimExecutor>();
    FleetConfig fleet;
    static_cast<RolloutKnobs&>(fleet) = config_;
    // The failed-fraction abort is the governor's, over the whole campaign.
    fleet.abort_threshold = 1.0;
    fleet.hosts = shard_plan.hosts;
    fleet.fault_domains = static_cast<int>(shard_plan.racks.size());
    // The controller composes waves under the shard-wide width cap; clamping
    // to the shard size keeps wave accounting meaningful for tiny shards.
    fleet.parallel_hosts = std::min(config_.parallel_hosts_per_shard, shard_plan.hosts);
    fleet.max_per_domain_in_flight = config_.max_per_rack_in_flight;
    // CampaignPlanner exposes no controller, so no API can read a shard's
    // FleetTrace: keep one slot instead of the default 1.5 MB ring.
    fleet.trace_capacity = 1;
    // Poisson thinning: the DC-wide storm rate splits across the DC's shards
    // in proportion to their host counts, so expected intensity is invariant
    // under resharding and every draw stays in one shard's stream.
    const CampaignDatacenter& dc =
        config_.datacenters[static_cast<size_t>(shard_plan.datacenter)];
    // Heterogeneous per-DC timing: scale this shard's per-host durations by
    // its datacenter's host class / reboot cost / link generation.
    fleet.drain_time = policy::TransplantCostModel::ScaledDrain(fleet.drain_time, dc.timing);
    fleet.per_host_transplant =
        policy::TransplantCostModel::ScaledTransplant(fleet.per_host_transplant, dc.timing);
    // Work-stealing keeps drained shards alive (hold-open) so the barrier
    // steal planner can re-home racks into them or finalize them.
    fleet.hold_open = config_.steal.enabled;
    if (dc.crash_storm.enabled() && dc.hosts() > 0) {
      fleet.crash_storm = dc.crash_storm;
      fleet.crash_storm.rate_per_hour *=
          static_cast<double>(shard_plan.hosts) / static_cast<double>(dc.hosts());
    }
    // Adaptive policy: the DC's environment signals override the config
    // defaults, and shard-local host i maps to its campaign-global id via the
    // rack layout (fault domain j == owned rack racks[j]; hosts round-robin
    // over domains). Pure topology, so any shard count prices the same VMs.
    if (config_.policy.adaptive()) {
      fleet.policy.link_gbps = dc.link_gbps;
      fleet.policy.host_headroom = dc.host_headroom;
      fleet.policy.vms_per_host = dc.vms_per_host;
      const int nracks = static_cast<int>(shard_plan.racks.size());
      fleet.policy_host_global_ids.reserve(static_cast<size_t>(shard_plan.hosts));
      for (int i = 0; i < shard_plan.hosts; ++i) {
        const int rack = shard_plan.racks[static_cast<size_t>(i % nracks)];
        fleet.policy_host_global_ids.push_back(
            dc_base[static_cast<size_t>(shard_plan.datacenter)] +
            static_cast<int64_t>(rack) * dc.hosts_per_rack + i / nracks);
      }
    }
    fleet.seed = root.Fork().NextU64();  // Id-order forks: shard-independent.
    fleet.wave_pacer = [this](int, SimTime) { return governor_hold_; };
    rt->controller = std::make_unique<FleetController>(*rt->executor, std::move(fleet));
    if (rt->controller->config_error().has_value()) {
      return rt->controller->config_error().value();  // Unreachable: PlanCampaign checked.
    }
    shards.push_back(std::move(rt));
  }

  const int threads = config_.real_threads > 0 ? config_.real_threads : ParallelThreadsFromEnv();
  ExposureStreamOptions stream_options;
  stream_options.min_fraction_delta = config_.exposure_min_fraction_delta;
  stream_options.tracer = tracer;
  stream_options.metrics = config_.metrics;
  ExposureStream stream(plan.total_hosts, plan.total_vms, 0, stream_options);
  Gauge* const active_gauge =
      config_.metrics != nullptr ? &config_.metrics->GetGauge("campaign_active_shards") : nullptr;

  SpanId campaign_span = 0;
  if (tracer != nullptr) {
    campaign_span = tracer->BeginSpan("campaign", 0);
    tracer->SetAttribute(campaign_span, "shards", static_cast<int64_t>(plan.shards.size()));
    tracer->SetAttribute(campaign_span, "hosts", static_cast<int64_t>(plan.total_hosts));
    tracer->SetAttribute(campaign_span, "vms", plan.total_vms);
  }

  CampaignReport report;
  report.shards = static_cast<int>(plan.shards.size());
  report.datacenters = static_cast<int>(config_.datacenters.size());
  report.vms = plan.total_vms;

  SimTime now = 0;
  int active = 0;
  size_t finished = 0;
  std::vector<int> dc_active(config_.datacenters.size(), 0);
  // Trailing-window rate samples; upgrade-induced post-pause faults and
  // crash-induced rollbacks share the attempts denominator but never mix.
  struct RateSample {
    int post_pause = 0;
    int crash_rollbacks = 0;
    int attempts = 0;
  };
  std::deque<RateSample> rate_window;
  bool throttled = false;
  // The fleet-wide tally at the previous barrier, for the governor's deltas.
  RolloutTally last_totals;

  // Admission under the global concurrency cap and per-DC bandwidth slots,
  // in shard-id order (deferred shards keep their place in line).
  const auto admit = [&]() {
    for (auto& rt : shards) {
      if (rt->admitted || rt->done) {
        continue;
      }
      if (config_.max_concurrent_shards > 0 && active >= config_.max_concurrent_shards) {
        break;
      }
      const int dc = rt->plan->datacenter;
      const int slots = config_.datacenters[static_cast<size_t>(dc)].bandwidth_slots;
      if (slots > 0 && dc_active[static_cast<size_t>(dc)] >= slots) {
        continue;  // This DC's WAN is saturated; later DCs may still admit.
      }
      rt->executor->AdvanceTo(now);
      rt->controller->Start();
      rt->admitted = true;
      rt->admitted_at = now;
      ++active;
      ++dc_active[static_cast<size_t>(dc)];
      if (tracer != nullptr) {
        const std::string track = "shard-" + std::to_string(rt->plan->id);
        rt->span = tracer->BeginSpan(track, now, campaign_span, track);
        tracer->SetAttribute(rt->span, "datacenter",
                             std::string_view(
                                 config_.datacenters[static_cast<size_t>(dc)].name));
        tracer->SetAttribute(rt->span, "hosts", static_cast<int64_t>(rt->plan->hosts));
      }
    }
  };

  const auto finish_shard = [&](ShardRuntime& rt) {
    rt.done = true;
    ++finished;
    if (rt.admitted) {
      --active;
      --dc_active[static_cast<size_t>(rt.plan->datacenter)];
    }
    if (tracer != nullptr && rt.span != 0) {
      const FleetRolloutReport& shard_report = rt.controller->report();
      tracer->SetAttribute(rt.span, "outcome", shard_report.aborted ? "aborted" : "complete");
      tracer->EndSpan(rt.span, rt.admitted_at + shard_report.makespan);
      rt.span = 0;
    }
  };

  admit();
  std::string abort_reason;
  while (finished < shards.size()) {
    if (config_.max_epochs > 0 && report.epochs >= config_.max_epochs) {
      abort_reason = "max_epochs";
      break;
    }
    now += config_.epoch;
    ++report.epochs;

    // Advance every in-flight shard to the barrier. Shards share no mutable
    // state, so this is the (optionally real-threaded) parallel section;
    // everything below the RunOnWorkerPool call is coordinator-only again.
    std::vector<ShardRuntime*> running;
    for (auto& rt : shards) {
      if (rt->admitted && !rt->done) {
        running.push_back(rt.get());
      }
    }
    std::vector<std::function<void()>> tasks;
    tasks.reserve(running.size());
    for (ShardRuntime* rt : running) {
      if (rt->executor->pending_events() == 0) {
        // Nothing queued (a drained hold-open shard, or a shard idling toward
        // a far-future retry): advance its clock inline instead of paying a
        // worker-pool task — the steal planner still needs the executor at
        // barrier time.
        rt->executor->AdvanceTo(now);
        continue;
      }
      tasks.push_back([rt, now] {
        // Finished shards must never reach the parallel section (TSan races
        // the barrier bookkeeping otherwise); `running` excludes them above.
        HYPERTP_CHECK(!rt->controller->finished());
        rt->executor->RunUntil(now);
      });
    }
    RunOnWorkerPool(tasks, threads);

    // Barrier: take every running shard's exposure deltas, merge them by
    // (time, shard) and feed the stream, so the curve is identical for any
    // thread count. Deltas are signed — a crash-induced rollback re-exposes
    // hosts mid-campaign.
    struct ShardDelta {
      ExposureDelta delta;
      const ShardRuntime* shard;
    };
    std::vector<ShardDelta> deltas;
    for (ShardRuntime* rt : running) {
      for (const ExposureDelta& delta : rt->controller->TakeExposureDeltas()) {
        if (delta.hosts != 0) {
          deltas.push_back(ShardDelta{delta, rt});
        }
      }
    }
    std::stable_sort(deltas.begin(), deltas.end(), [](const ShardDelta& a, const ShardDelta& b) {
      return a.delta.time != b.delta.time ? a.delta.time < b.delta.time
                                          : a.shard->plan->id < b.shard->plan->id;
    });
    for (const auto& [delta, shard] : deltas) {
      stream.OnHostsDelta(delta.time, delta.hosts,
                          static_cast<int64_t>(delta.hosts) * shard->plan->vms_per_host);
    }
    stream.AdvanceTo(now);

    for (ShardRuntime* rt : running) {
      if (rt->controller->finished()) {
        finish_shard(*rt);
      }
    }

    // Deterministic rack work-stealing, decided only here at the barrier
    // (coordinator-only: no shard is advancing). The plan is a pure function
    // of barrier state — remaining-work estimates with id-order tie-breaks —
    // so every output byte is independent of thread count. Under hold_open,
    // drained shards wait here to either adopt a rack or be finalized, which
    // doubles as the progress guarantee: no barrier leaves a drained shard
    // both unfed and unfinalized.
    if (config_.steal.enabled) {
      std::vector<ShardRuntime*> live;
      for (auto& rt : shards) {
        if (rt->admitted && !rt->done) {
          live.push_back(rt.get());
        }
      }
      std::vector<SimDuration> rem(live.size(), 0);
      for (size_t i = 0; i < live.size(); ++i) {
        rem[i] = policy::TransplantCostModel::RemainingEstimate(
            live[i]->controller->PendingWork(), live[i]->controller->config().parallel_hosts);
      }
      const auto threshold = static_cast<SimDuration>(
          config_.steal.threshold_epochs * static_cast<double>(config_.epoch));
      // Unlimited mode still caps one barrier at total_racks moves — a
      // deterministic backstop far above any sane rebalance.
      const int barrier_cap = config_.steal.max_racks_per_epoch > 0
                                  ? config_.steal.max_racks_per_epoch
                                  : plan.total_racks;
      int moved = 0;
      while (moved < barrier_cap) {
        // Thief: the least-loaded shard under the threshold (tie: lowest id).
        int thief = -1;
        for (int i = 0; i < static_cast<int>(live.size()); ++i) {
          if (rem[static_cast<size_t>(i)] < threshold &&
              (thief < 0 || rem[static_cast<size_t>(i)] < rem[static_cast<size_t>(thief)])) {
            thief = i;
          }
        }
        if (thief < 0) {
          break;
        }
        // Donors in descending remaining work (tie: lowest id); take the
        // first one owning a stealable rack whose move helps — the thief must
        // stay at or below the donor's pre-move load, or the move would just
        // relocate the straggler.
        std::vector<int> donors;
        for (int i = 0; i < static_cast<int>(live.size()); ++i) {
          if (i != thief && rem[static_cast<size_t>(i)] > rem[static_cast<size_t>(thief)]) {
            donors.push_back(i);
          }
        }
        std::sort(donors.begin(), donors.end(), [&rem](int a, int b) {
          const SimDuration ra = rem[static_cast<size_t>(a)];
          const SimDuration rb = rem[static_cast<size_t>(b)];
          return ra != rb ? ra > rb : a < b;
        });
        bool stole = false;
        for (const int di : donors) {
          ShardRuntime* donor_rt = live[static_cast<size_t>(di)];
          ShardRuntime* thief_rt = live[static_cast<size_t>(thief)];
          const std::vector<StealableDomain> domains =
              donor_rt->controller->StealableDomains();
          if (domains.empty()) {
            continue;
          }
          const StealableDomain& d = domains.front();  // Lowest rack id.
          const SimDuration thief_cost = policy::TransplantCostModel::RemainingEstimate(
              d.work, thief_rt->controller->config().parallel_hosts);
          // Strict improvement only: the thief must land strictly below the
          // donor's pre-move load. Allowing equality lets an equal-cost rack
          // ping-pong between two shards inside one barrier; with strictness
          // every re-move lowers the holder's (integer) load, so the loop
          // provably terminates even without the cap.
          if (rem[static_cast<size_t>(thief)] + thief_cost >= rem[static_cast<size_t>(di)]) {
            continue;
          }
          const DetachedRack rack = donor_rt->controller->DetachDomain(d.domain);
          thief_rt->controller->AdoptHosts(rack);
          rem[static_cast<size_t>(di)] -= policy::TransplantCostModel::RemainingEstimate(
              d.work, donor_rt->controller->config().parallel_hosts);
          rem[static_cast<size_t>(thief)] += thief_cost;
          ++report.steals;
          report.stolen_hosts += static_cast<int>(rack.hosts.size());
          ++moved;
          if (tracer != nullptr) {
            const SpanId mark = tracer->AddInstant("campaign_steal", now, "steal");
            tracer->SetAttribute(mark, "donor", static_cast<int64_t>(donor_rt->plan->id));
            tracer->SetAttribute(mark, "thief", static_cast<int64_t>(thief_rt->plan->id));
            tracer->SetAttribute(mark, "hosts", static_cast<int64_t>(rack.hosts.size()));
          }
          stole = true;
          break;
        }
        if (!stole) {
          break;
        }
      }
      for (ShardRuntime* rt : live) {
        if (!rt->done && rt->controller->drained()) {
          rt->controller->FinalizeDrained();
          finish_shard(*rt);
        }
      }
    }

    // Governor: fleet-wide deltas since the last barrier. Upgrade-induced
    // faults and crash-induced rollbacks are tallied apart so a fault storm
    // never trips (or masks) the bad-image budget. Attempts come from the
    // monotone transplant_successes counter, not `upgraded` (crash rollbacks
    // and lost hosts decrement the latter, which would corrupt the rate
    // denominator).
    RolloutTally totals;
    for (auto& rt : shards) {
      totals += rt->controller->report();
    }
    rate_window.push_back({totals.post_pause_faults - last_totals.post_pause_faults,
                           totals.crash_rollbacks - last_totals.crash_rollbacks,
                           (totals.transplant_successes - last_totals.transplant_successes) +
                               (totals.retries - last_totals.retries) +
                               (totals.failed - last_totals.failed)});
    last_totals = totals;
    while (static_cast<int>(rate_window.size()) > config_.slo.rate_window_epochs) {
      rate_window.pop_front();
    }
    int window_post_pause = 0;
    int window_crash_rollbacks = 0;
    int window_attempts = 0;
    for (const RateSample& sample : rate_window) {
      window_post_pause += sample.post_pause;
      window_crash_rollbacks += sample.crash_rollbacks;
      window_attempts += sample.attempts;
    }
    const double rollback_rate =
        static_cast<double>(window_post_pause) / std::max(window_attempts, 1);
    const double crash_rollback_rate =
        static_cast<double>(window_crash_rollbacks) / std::max(window_attempts, 1);
    const double failed_fraction =
        plan.total_hosts > 0 ? static_cast<double>(totals.failed) / plan.total_hosts : 0.0;
    const double crash_loss_fraction =
        plan.total_hosts > 0 ? static_cast<double>(totals.lost) / plan.total_hosts : 0.0;
    double unavailable_fraction = 0.0;
    if (config_.slo.max_unavailable_fraction < 1.0) {
      int unavailable = 0;
      for (auto& rt : shards) {
        if (!rt->admitted || rt->done) {
          continue;
        }
        for (const FleetHost& host : rt->controller->hosts()) {
          unavailable += host.state == FleetHostState::kDraining ||
                         host.state == FleetHostState::kTransplanting ||
                         host.state == FleetHostState::kRollingBack ||
                         host.state == FleetHostState::kCrashed ||
                         host.state == FleetHostState::kRecovering;
        }
      }
      unavailable_fraction =
          plan.total_hosts > 0 ? static_cast<double>(unavailable) / plan.total_hosts : 0.0;
    }

    if (config_.abort_threshold < 1.0 && failed_fraction > config_.abort_threshold) {
      abort_reason = "failed_fraction";
      break;
    }
    if (config_.slo.abort_crash_loss_fraction < 1.0 &&
        crash_loss_fraction > config_.slo.abort_crash_loss_fraction) {
      abort_reason = "crash_loss_fraction";
      break;
    }
    if (config_.slo.abort_rollback_rate < 1.0 && rollback_rate > config_.slo.abort_rollback_rate) {
      abort_reason = "rollback_rate";
      break;
    }
    if (config_.slo.abort_crash_rollback_rate < 1.0 &&
        crash_rollback_rate > config_.slo.abort_crash_rollback_rate) {
      abort_reason = "crash_rollback_rate";
      break;
    }
    const bool now_throttled =
        (config_.slo.throttle_rollback_rate < 1.0 &&
         rollback_rate > config_.slo.throttle_rollback_rate) ||
        (config_.slo.throttle_crash_rollback_rate < 1.0 &&
         crash_rollback_rate > config_.slo.throttle_crash_rollback_rate) ||
        (config_.slo.max_unavailable_fraction < 1.0 &&
         unavailable_fraction > config_.slo.max_unavailable_fraction);
    report.throttled_epochs += now_throttled;
    if (tracer != nullptr && now_throttled != throttled) {
      const SpanId mark =
          tracer->AddInstant(now_throttled ? "slo_throttle_on" : "slo_throttle_off", now, "slo");
      tracer->SetAttribute(mark, "rollback_rate", rollback_rate);
      tracer->SetAttribute(mark, "unavailable_fraction", unavailable_fraction);
    }
    throttled = now_throttled;
    governor_hold_ = throttled ? std::max(config_.slo.throttle_hold, config_.epoch) : 0;
    if (active_gauge != nullptr) {
      active_gauge->Set(active);
    }

    admit();

    // Adaptive epoch stride: when every queued event sits beyond the next
    // barrier and the governor is provably quiescent (not throttled, no hold,
    // zero faults/rollbacks in the trailing window — so the empty barriers
    // could neither throttle nor abort), jump straight to the last empty
    // barrier. Skipped epochs count as executed — same epoch totals, same
    // rate-window contents, same `now` — so every output byte matches the
    // unstrided run; only idle_epochs_skipped records the shortcut.
    if (config_.adaptive_stride && !throttled && governor_hold_ == 0 &&
        window_post_pause == 0 && window_crash_rollbacks == 0 && finished < shards.size()) {
      SimTime next_event = -1;
      for (auto& rt : shards) {
        if (!rt->admitted || rt->done) {
          continue;
        }
        const SimTime t = rt->executor->NextEventTime();
        if (t >= 0 && (next_event < 0 || t < next_event)) {
          next_event = t;
        }
      }
      if (next_event > now + config_.epoch) {
        // First interesting barrier: smallest now + k*epoch >= next_event;
        // the k-1 before it are empty. (a-1)/b == ceil(a/b)-1 for a > 0.
        int64_t skip = (next_event - now - 1) / config_.epoch;
        if (config_.max_epochs > 0) {
          // Never stride past the horizon: the abort must fire at the same
          // epoch count (and the same `now`) as the unstrided run.
          skip = std::min<int64_t>(skip, config_.max_epochs - report.epochs);
        }
        if (skip > 0) {
          now += skip * config_.epoch;
          report.epochs += static_cast<int>(skip);
          report.idle_epochs_skipped += static_cast<int>(skip);
          // The skipped barriers' all-zero rate samples still slide the
          // trailing window.
          const int64_t pushes = std::min<int64_t>(skip, config_.slo.rate_window_epochs);
          for (int64_t i = 0; i < pushes; ++i) {
            rate_window.push_back({});
          }
          while (static_cast<int>(rate_window.size()) > config_.slo.rate_window_epochs) {
            rate_window.pop_front();
          }
        }
      }
    }
  }

  if (!abort_reason.empty()) {
    // SLO (or horizon) abort: finalize every unfinished shard where it
    // stands; hosts never reached stay exposed on the vulnerable hypervisor.
    report.aborted = true;
    report.abort_reason = abort_reason;
    if (tracer != nullptr) {
      tracer->AddInstant("campaign_abort:" + abort_reason, now, "slo");
    }
    for (auto& rt : shards) {
      if (!rt->done) {
        rt->controller->Abort();
        finish_shard(*rt);
      }
    }
  }

  // Assemble the report in shard-id order.
  SimTime end = report.aborted ? now : 0;
  for (const auto& rt : shards) {
    const FleetRolloutReport& r = rt->controller->report();
    // The controller's `hosts` is the final responsibility set (initial plan
    // +/- stolen racks); the sum over shards is the plan's total.
    report += r;
    report.shard_summaries.push_back(CampaignShardSummary{
        r, rt->plan->id, rt->plan->datacenter, /*stolen_in=*/r.adopted_hosts,
        /*stolen_out=*/r.detached_hosts, r.aborted, r.complete,
        /*admitted=*/rt->admitted ? rt->admitted_at : -1, r.makespan});
    // Shard-id-order merge keeps the percentile bytes thread-count invariant.
    for (const double sample : r.recovery_latency_seconds.samples()) {
      report.recovery_latency_seconds.Add(sample);
    }
    if (rt->admitted) {
      end = std::max(end, rt->admitted_at + r.makespan);
      report.shard_makespan_seconds.Add(ToSeconds(r.makespan));
    }
  }
  report.makespan = end;
  report.complete = !report.aborted && report.upgraded == report.hosts;
  report.policy_adaptive = config_.policy.adaptive();
  // Campaign-scope counters, written once from the finished report. Shard
  // controllers get no registry of their own (Counter::Increment is not
  // atomic and shards advance on real threads), and the report is the one
  // tally of epochs, throttles, steals and decisions. Stealing requires a
  // uniform vms_per_host, so the rehomed VMs follow from the stolen hosts.
  if (config_.metrics != nullptr) {
    MetricsRegistry& metrics = *config_.metrics;
    const auto publish = [&metrics](std::string_view name, int64_t value) {
      metrics.GetCounter(name).Increment(static_cast<uint64_t>(value));
    };
    publish("campaign_epochs", report.epochs);
    publish("campaign_throttled_epochs", report.throttled_epochs);
    publish("campaign_steals", report.steals);
    publish("campaign_idle_epochs_skipped", report.idle_epochs_skipped);
    publish("campaign_hosts_rehomed", report.stolen_hosts);
    publish("campaign_vms_rehomed", static_cast<int64_t>(report.stolen_hosts) *
                                        config_.datacenters.front().vms_per_host);
    if (report.policy_adaptive) {
      publish("hypertp_policy_inplace", report.policy_inplace_vms);
      publish("hypertp_policy_migrate", report.policy_migrate_vms);
      publish("hypertp_policy_refused", report.policy_refused_vms);
    }
  }

  stream.Seal(std::max(now, end));
  report.final_fraction_vulnerable = stream.fraction_vulnerable();
  report.exposed_host_days = stream.exposed_host_days();
  report.exposed_vm_days = stream.exposed_vm_days();
  report.exposure_curve = stream.curve();

  if (tracer != nullptr) {
    tracer->SetAttribute(campaign_span, "upgraded", static_cast<int64_t>(report.upgraded));
    tracer->SetAttribute(campaign_span, "outcome",
                         report.aborted ? "aborted" : (report.complete ? "complete" : "partial"));
    tracer->EndSpan(campaign_span, std::max(now, end));
  }
  report.wall_ms = std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                             wall_start)
                       .count();
  return report;
}

}  // namespace hypertp
