// Tests for src/obs (span tracer + metrics registry) and for the span wiring
// through the transplant stack. The load-bearing property: an instrumented
// InPlaceTransplant's span tree reproduces the PhaseBreakdown *exactly* — the
// trace is the report, laid out on a timeline — and an uninstrumented run is
// byte-for-byte the same report as an instrumented one.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "src/core/factory.h"
#include "src/core/inplace.h"
#include "src/fleet/fleet_controller.h"
#include "src/kvm/kvm_host.h"
#include "src/migrate/migrate.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/vulndb/exposure_stream.h"
#include "src/xen/xenvisor.h"

namespace hypertp {
namespace {

// ---------------------------------------------------------------------------
// Tracer unit tests.

TEST(TracerTest, AddSpanRecordsClosedInterval) {
  Tracer tracer;
  const SpanId id = tracer.AddSpan("work", Seconds(1), Seconds(2));
  ASSERT_NE(id, 0u);
  const Span* span = tracer.FindSpan("work");
  ASSERT_NE(span, nullptr);
  EXPECT_EQ(span->id, id);
  EXPECT_EQ(span->start, Seconds(1));
  EXPECT_EQ(span->end, Seconds(3));
  EXPECT_EQ(span->duration(), Seconds(2));
  EXPECT_FALSE(span->open);
  EXPECT_FALSE(span->instant);
  EXPECT_EQ(tracer.open_span_count(), 0u);
}

TEST(TracerTest, BeginEndPairAndParentLinks) {
  Tracer tracer;
  const SpanId parent = tracer.BeginSpan("parent", Seconds(0));
  const SpanId child_a = tracer.AddSpan("child", Seconds(0), Seconds(1), parent);
  const SpanId child_b = tracer.AddSpan("child", Seconds(1), Seconds(1), parent);
  EXPECT_EQ(tracer.open_span_count(), 1u);
  tracer.EndSpan(parent, Seconds(2));
  EXPECT_EQ(tracer.open_span_count(), 0u);
  EXPECT_EQ(tracer.FindSpan("parent")->duration(), Seconds(2));

  const auto children = tracer.ChildrenOf(parent);
  ASSERT_EQ(children.size(), 2u);
  EXPECT_EQ(children[0]->id, child_a);
  EXPECT_EQ(children[1]->id, child_b);
  EXPECT_EQ(tracer.SpansNamed("child").size(), 2u);
}

TEST(TracerTest, EndingUnknownOrClosedSpanIsANoOp) {
  Tracer tracer;
  tracer.EndSpan(0, Seconds(1));    // Disabled-tracing id.
  tracer.EndSpan(999, Seconds(1));  // Never allocated.
  const SpanId id = tracer.AddSpan("done", 0, Seconds(1));
  tracer.EndSpan(id, Seconds(5));  // Already closed: end must not move.
  EXPECT_EQ(tracer.FindSpan("done")->end, Seconds(1));
  EXPECT_EQ(tracer.spans().size(), 1u);
}

TEST(TracerTest, StringLiteralAttributeIsAStringNotABool) {
  Tracer tracer;
  const SpanId id = tracer.AddSpan("s", 0, Seconds(1));
  tracer.SetAttribute(id, "outcome", "completed");  // Literal: const char*.
  tracer.SetAttribute(id, "ratio", 0.5);
  tracer.SetAttribute(id, "count", static_cast<int64_t>(7));
  tracer.SetAttribute(id, "ok", true);
  const Span* span = tracer.FindSpan("s");
  ASSERT_EQ(span->attributes.size(), 4u);
  EXPECT_EQ(span->attributes[0].kind, SpanAttribute::Kind::kString);
  EXPECT_EQ(span->attributes[0].string_value, "completed");
  EXPECT_EQ(span->attributes[1].kind, SpanAttribute::Kind::kDouble);
  EXPECT_EQ(span->attributes[2].kind, SpanAttribute::Kind::kInt);
  EXPECT_EQ(span->attributes[3].kind, SpanAttribute::Kind::kBool);
  // Id 0: silently dropped (tracing disabled at the call site).
  tracer.SetAttribute(0, "ignored", "x");
  EXPECT_EQ(span->attributes.size(), 4u);
}

TEST(TracerTest, InstantsAreZeroWidth) {
  Tracer tracer;
  tracer.AddInstant("marker", Seconds(3), "events");
  const Span* span = tracer.FindSpan("marker");
  ASSERT_NE(span, nullptr);
  EXPECT_TRUE(span->instant);
  EXPECT_EQ(span->duration(), 0);
  EXPECT_EQ(span->track, "events");
}

TEST(TracerTest, ChromeExportHasMetadataAndEvents) {
  Tracer tracer;
  tracer.AddSpan("phase:work", Millis(1), Millis(2));
  tracer.AddSpan("restore", Millis(1), Millis(1), 0, "vm-7");
  tracer.AddInstant("paused", Millis(2));
  const std::string json = tracer.ToChromeTraceJson();
  EXPECT_NE(json.find(R"("displayTimeUnit":"ms")"), std::string::npos);
  EXPECT_NE(json.find(R"("thread_name")"), std::string::npos);
  EXPECT_NE(json.find(R"("name":"vm-7")"), std::string::npos);  // Track metadata.
  EXPECT_NE(json.find(R"("ph":"X")"), std::string::npos);
  EXPECT_NE(json.find(R"("ph":"i")"), std::string::npos);
  // 1 ms = 1000 us on the microsecond timeline.
  EXPECT_NE(json.find(R"("ts":1000)"), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST(TracerTest, StatsJsonAggregatesByName) {
  Tracer tracer;
  tracer.AddSpan("phase:reboot", 0, Millis(10));
  tracer.AddSpan("phase:reboot", Millis(10), Millis(20));
  tracer.AddSpan("phase:pram", 0, Millis(5));
  const std::string json = tracer.ToStatsJson();
  EXPECT_NE(json.find(R"("phase:reboot")"), std::string::npos);
  EXPECT_NE(json.find(R"("count":2)"), std::string::npos);
  EXPECT_NE(json.find(R"("total_ms":30)"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Metrics registry.

TEST(MetricsTest, CounterAndGaugeRoundTrip) {
  MetricsRegistry registry;
  Counter& c = registry.GetCounter("transplants");
  c.Increment();
  c.Increment(4);
  EXPECT_EQ(registry.GetCounter("transplants").value(), 5u);  // Same instrument.
  registry.GetGauge("exposed_hosts").Set(12.0);
  EXPECT_EQ(registry.GetGauge("exposed_hosts").value(), 12.0);
}

TEST(MetricsTest, HistogramBucketsArePowersOfTwo) {
  Histogram h;
  h.Observe(1.0);   // <= 2^0 -> bucket 0.
  h.Observe(0.25);  // bucket 0.
  h.Observe(2.0);   // 2^0 < x <= 2^1 -> bucket 1.
  h.Observe(2.1);   // -> bucket 2.
  h.Observe(1000.0);  // 2^9 < x <= 2^10 -> bucket 10.
  EXPECT_EQ(h.bucket(0), 2u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(2), 1u);
  EXPECT_EQ(h.bucket(10), 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(Histogram::BucketBound(10), 1024.0);
}

TEST(MetricsTest, HistogramRejectsNonFiniteAndClampsNegatives) {
  Histogram h;
  h.Observe(std::nan(""));
  h.Observe(std::numeric_limits<double>::infinity());
  EXPECT_EQ(h.count(), 0u);
  h.Observe(-5.0);  // Clamped to 0.
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.min(), 0.0);
}

TEST(MetricsTest, HistogramQuantileStaysWithinObservedRange) {
  Histogram h;
  for (int i = 0; i < 100; ++i) {
    h.Observe(100.0);  // All in bucket 7 (64 < 100 <= 128).
  }
  EXPECT_GE(h.Quantile(0.5), h.min());
  EXPECT_LE(h.Quantile(0.5), h.max());
  EXPECT_EQ(h.Quantile(1.0), 100.0);
  EXPECT_EQ(Histogram().Quantile(0.5), 0.0);
}

TEST(MetricsTest, JsonExportIsDeterministicAndSparse) {
  MetricsRegistry registry;
  registry.GetCounter("b").Increment(2);
  registry.GetCounter("a").Increment(1);
  registry.GetGauge("g").Set(1.5);
  registry.GetHistogram("h").Observe(3.0);
  const std::string json = registry.ToJson();
  EXPECT_EQ(json, registry.ToJson());  // Same registry -> same bytes.
  // Sorted keys: "a" before "b".
  EXPECT_LT(json.find(R"("a":1)"), json.find(R"("b":2)"));
  // Only the occupied bucket appears: [4, 1] (2 < 3 <= 4), nothing else.
  EXPECT_NE(json.find(R"("buckets":[[4,1]])"), std::string::npos);
}

// ---------------------------------------------------------------------------
// InPlaceTransplant wiring: the span tree IS the PhaseBreakdown.

// A fresh machine + Xen source per run: the machine must outlive the
// transplant and the hypervisor it returns.
struct XenHost {
  explicit XenHost(int vms)
      : machine(MachineProfile::M1(), 1), xen(MakeHypervisor(HypervisorKind::kXen, machine)) {
    for (int i = 0; i < vms; ++i) {
      EXPECT_TRUE(xen->CreateVm(VmConfig::Small("obs-" + std::to_string(i))).ok());
    }
  }
  Machine machine;
  std::unique_ptr<Hypervisor> xen;
};

TEST(InplaceTraceTest, SpanTreeMatchesPhaseBreakdownExactly) {
  Tracer tracer;
  InPlaceOptions options;
  options.tracer = &tracer;
  options.trace_base = Seconds(100);  // Non-zero base: offsets must carry it.
  XenHost host(3);
  auto result = InPlaceTransplant::Run(std::move(host.xen), HypervisorKind::kKvm, options);
  ASSERT_TRUE(result.ok());
  const TransplantReport& report = result->report;
  const PhaseBreakdown& phases = report.phases;

  const Span* root = tracer.FindSpan("inplace_transplant");
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->start, Seconds(100));
  EXPECT_EQ(root->duration(), report.total_time);
  EXPECT_EQ(tracer.open_span_count(), 0u);

  // Each phase span's duration equals the report's charge, and the phases
  // tile the timeline back-to-back in execution order.
  const Span* pram = tracer.FindSpan("phase:pram");
  const Span* pre_translation = tracer.FindSpan("phase:pre_translation");
  const Span* translation = tracer.FindSpan("phase:translation");
  const Span* reboot = tracer.FindSpan("phase:reboot");
  const Span* restoration = tracer.FindSpan("phase:restoration");
  const Span* resume = tracer.FindSpan("phase:resume");
  const Span* cleanup = tracer.FindSpan("phase:cleanup");
  ASSERT_NE(pram, nullptr);
  ASSERT_NE(pre_translation, nullptr);
  ASSERT_NE(translation, nullptr);
  ASSERT_NE(reboot, nullptr);
  ASSERT_NE(restoration, nullptr);
  ASSERT_NE(resume, nullptr);
  ASSERT_NE(cleanup, nullptr);
  EXPECT_EQ(pram->duration(), phases.pram);
  EXPECT_EQ(pre_translation->duration(), phases.pre_translation);
  EXPECT_EQ(translation->duration(), phases.translation);
  EXPECT_EQ(reboot->duration(), phases.reboot);
  EXPECT_EQ(restoration->duration(), phases.restoration);
  EXPECT_EQ(resume->duration(), phases.resume);
  EXPECT_EQ(cleanup->duration(), phases.cleanup);
  EXPECT_EQ(pram->start, root->start);
  EXPECT_EQ(pre_translation->start, pram->end);
  EXPECT_EQ(translation->start, pre_translation->end);
  EXPECT_EQ(reboot->start, translation->end);
  EXPECT_EQ(restoration->start, reboot->end);
  EXPECT_EQ(resume->start, restoration->end);
  EXPECT_EQ(resume->end, root->end);  // No rollback: phases sum to total.
  // Cleanup is a top-level sibling after the root: charged to neither
  // downtime nor total_time.
  EXPECT_EQ(cleanup->parent, 0u);
  EXPECT_EQ(cleanup->start, resume->end);

  // All phase spans hang off the root.
  for (const Span* phase : {pram, pre_translation, translation, reboot, restoration, resume}) {
    EXPECT_EQ(phase->parent, root->id);
  }

  // Kexec sub-spans partition the reboot phase.
  const Span* jump = tracer.FindSpan("kexec:jump");
  const Span* boot = tracer.FindSpan("kexec:kernel_boot");
  const Span* parse = tracer.FindSpan("kexec:pram_parse");
  ASSERT_NE(jump, nullptr);
  ASSERT_NE(boot, nullptr);
  ASSERT_NE(parse, nullptr);
  EXPECT_EQ(jump->start, reboot->start);
  EXPECT_EQ(boot->start, jump->end);
  EXPECT_EQ(parse->start, boot->end);
  EXPECT_EQ(parse->end, reboot->end);
  EXPECT_EQ(parse->duration(), phases.pram_parse);
  for (const Span* sub : {jump, boot, parse}) {
    EXPECT_EQ(sub->parent, reboot->id);
    EXPECT_EQ(sub->track, "kexec");
  }

  // One restore span per VM, parented under the restoration phase — and one
  // speculative pre-translate span per VM under the pre-translation phase.
  EXPECT_EQ(tracer.ChildrenOf(restoration->id).size(), 3u);
  EXPECT_EQ(tracer.ChildrenOf(pre_translation->id).size(), 3u);
  ASSERT_FALSE(report.vms.empty());
  EXPECT_NE(
      tracer.FindSpan("pre_translate:vm-" + std::to_string(report.vms.front().uid)), nullptr);

  // NIC re-init rides its own track; the pause marker sits where downtime
  // starts (default options: pram runs before the pause).
  EXPECT_EQ(tracer.FindSpan("nic_reinit")->duration(), phases.network);
  EXPECT_EQ(tracer.FindSpan("guests_paused")->start, translation->start);

  // The root's outcome attributes mirror the report.
  bool saw_outcome = false;
  for (const SpanAttribute& attr : root->attributes) {
    if (attr.key == "outcome") {
      saw_outcome = true;
      EXPECT_EQ(attr.string_value, "completed");
    }
  }
  EXPECT_TRUE(saw_outcome);

  // And the whole tree exports as a loadable Chrome trace: every phase span
  // appears as a complete event, with swimlane metadata for the per-VM and
  // kexec tracks.
  const std::string chrome = tracer.ToChromeTraceJson();
  for (const char* name : {"inplace_transplant", "phase:pram", "phase:pre_translation",
                           "phase:translation", "phase:reboot", "phase:restoration",
                           "phase:resume", "phase:cleanup", "kexec:jump", "nic_reinit"}) {
    EXPECT_NE(chrome.find("\"name\":\"" + std::string(name) + "\""), std::string::npos) << name;
  }
  EXPECT_NE(chrome.find(R"("name":"kexec")"), std::string::npos);  // Track lane.
}

TEST(InplaceTraceTest, TracingChangesNoReportedValue) {
  XenHost traced_host(2);
  XenHost plain_host(2);
  auto traced_result = [](XenHost& host, Tracer* tracer) {
    InPlaceOptions options;
    options.tracer = tracer;
    return InPlaceTransplant::Run(std::move(host.xen), HypervisorKind::kKvm, options);
  };
  Tracer tracer;
  auto with = traced_result(traced_host, &tracer);
  auto without = traced_result(plain_host, nullptr);
  ASSERT_TRUE(with.ok());
  ASSERT_TRUE(without.ok());
  EXPECT_EQ(with->report.downtime, without->report.downtime);
  EXPECT_EQ(with->report.total_time, without->report.total_time);
  EXPECT_EQ(with->report.network_downtime, without->report.network_downtime);
  EXPECT_EQ(with->report.phases.pram, without->report.phases.pram);
  EXPECT_EQ(with->report.phases.reboot, without->report.phases.reboot);
  EXPECT_EQ(with->report.phases.restoration, without->report.phases.restoration);
  EXPECT_EQ(with->report.phases.resume, without->report.phases.resume);
  EXPECT_EQ(with->report.phases.cleanup, without->report.phases.cleanup);
  EXPECT_EQ(with->report.uisr_total_bytes, without->report.uisr_total_bytes);
  EXPECT_EQ(with->report.frames_scrubbed, without->report.frames_scrubbed);
  // Note: report.ToString() includes process-global VM uids, so it is not
  // comparable across two runs — the field comparisons above are the claim.
  EXPECT_GT(tracer.spans().size(), 0u);
}

TEST(InplaceTraceTest, RollbackProducesRollbackSpanAndOutcome) {
  Tracer tracer;
  InPlaceOptions options;
  options.tracer = &tracer;
  options.inject_fault = InPlaceOptions::Fault::kRestoreFailure;
  XenHost host(2);
  auto result = InPlaceTransplant::Run(std::move(host.xen), HypervisorKind::kKvm, options);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->report.outcome, TransplantOutcome::kRolledBack);

  const Span* root = tracer.FindSpan("inplace_transplant");
  const Span* rollback = tracer.FindSpan("phase:rollback");
  ASSERT_NE(root, nullptr);
  ASSERT_NE(rollback, nullptr);
  EXPECT_EQ(rollback->duration(), result->report.phases.rollback);
  EXPECT_EQ(rollback->parent, root->id);
  EXPECT_EQ(root->duration(), result->report.total_time);
  EXPECT_EQ(tracer.open_span_count(), 0u);
  // The salvage micro-reboot emits a second set of kexec sub-spans, parented
  // under the rollback phase this time.
  ASSERT_EQ(tracer.SpansNamed("kexec:jump").size(), 2u);
  EXPECT_EQ(tracer.SpansNamed("kexec:jump")[1]->parent, rollback->id);
  // Salvaged VMs get restore spans under the rollback span too.
  size_t restores_under_rollback = 0;
  for (const Span* child : tracer.ChildrenOf(rollback->id)) {
    restores_under_rollback += child->name.rfind("restore:", 0) == 0;
  }
  EXPECT_EQ(restores_under_rollback, 2u);
  bool saw_outcome = false;
  for (const SpanAttribute& attr : root->attributes) {
    if (attr.key == "outcome") {
      saw_outcome = true;
      EXPECT_EQ(attr.string_value, "rolled_back");
    }
  }
  EXPECT_TRUE(saw_outcome);
}

TEST(InplaceTraceTest, PreRebootAbortClosesTheRootSpan) {
  Tracer tracer;
  InPlaceOptions options;
  options.tracer = &tracer;
  options.inject_fault = InPlaceOptions::Fault::kTranslationFailure;
  XenHost host(1);
  std::unique_ptr<Hypervisor> survivor;
  auto result =
      InPlaceTransplant::Run(std::move(host.xen), HypervisorKind::kKvm, options, &survivor);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(tracer.open_span_count(), 0u);
  const Span* root = tracer.FindSpan("inplace_transplant");
  ASSERT_NE(root, nullptr);
  bool saw_abort = false;
  for (const SpanAttribute& attr : root->attributes) {
    saw_abort |= attr.key == "abort_cause";
  }
  EXPECT_TRUE(saw_abort);
}

// ---------------------------------------------------------------------------
// Migration wiring.

TEST(MigrationTraceTest, PerVmSpanTreesMatchResults) {
  Machine src_machine(MachineProfile::M2(), 1);
  XenVisor src(src_machine);
  std::vector<VmId> ids;
  for (int i = 0; i < 2; ++i) {
    auto id = src.CreateVm(VmConfig::Small("mig-" + std::to_string(i)));
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  Machine dst_machine(MachineProfile::M2(), 2);
  KvmHost dst(dst_machine);
  MigrationEngine engine(NetworkLink{1.0});
  Tracer tracer;
  MigrationConfig config;
  config.tracer = &tracer;
  config.trace_base = Seconds(5);
  auto batch = engine.MigrateMany(src, ids, dst, config);
  ASSERT_TRUE(batch.ok());
  ASSERT_TRUE(batch->all_migrated());

  // One span tree per VM: rounds + stop_and_copy + restore under a per-VM
  // root whose width is that VM's total_time.
  size_t vm_spans = 0;
  for (const Span& span : tracer.spans()) {
    if (span.name.rfind("migrate:vm-", 0) != 0) {
      continue;
    }
    ++vm_spans;
    EXPECT_EQ(span.start, Seconds(5));
    const auto children = tracer.ChildrenOf(span.id);
    EXPECT_GE(children.size(), 3u);  // >= 1 round + stop_and_copy + restore.
    size_t rounds = 0;
    for (const Span* child : children) {
      EXPECT_EQ(child->track, span.track);
      rounds += child->name.rfind("precopy:round-", 0) == 0;
    }
    EXPECT_GE(rounds, 1u);
  }
  EXPECT_EQ(vm_spans, 2u);
  const std::vector<MigrationResult> successes = batch->successes();
  // Span widths equal each VM's reported total time (order-insensitive check:
  // collect both multisets).
  std::vector<SimDuration> span_widths, result_widths;
  for (const Span& span : tracer.spans()) {
    if (span.name.rfind("migrate:vm-", 0) == 0) {
      span_widths.push_back(span.duration());
    }
  }
  for (const MigrationResult& r : successes) {
    result_widths.push_back(r.total_time);
  }
  std::sort(span_widths.begin(), span_widths.end());
  std::sort(result_widths.begin(), result_widths.end());
  EXPECT_EQ(span_widths, result_widths);
}

TEST(MigrationTraceTest, AbortedVmEmitsInstantMarker) {
  Machine src_machine(MachineProfile::M2(), 1);
  XenVisor src(src_machine);
  auto id = src.CreateVm(VmConfig::Small("mig-fault"));
  ASSERT_TRUE(id.ok());
  Machine dst_machine(MachineProfile::M2(), 2);
  KvmHost dst(dst_machine);
  MigrationEngine engine(NetworkLink{1.0});
  Tracer tracer;
  MigrationConfig config;
  config.tracer = &tracer;
  config.inject_fault = MigrationFault::kRestore;
  auto batch = engine.MigrateMany(src, {*id}, dst, config);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->migrated_count(), 0u);
  bool saw_abort_marker = false;
  for (const Span& span : tracer.spans()) {
    saw_abort_marker |= span.instant && span.name.rfind("migrate_aborted:vm-", 0) == 0;
  }
  EXPECT_TRUE(saw_abort_marker);
}

// ---------------------------------------------------------------------------
// Fleet controller wiring.

TEST(FleetTraceSpanTest, RolloutWavesAndHostSwimlanes) {
  Tracer tracer;
  FleetConfig config;
  config.hosts = 4;
  config.parallel_hosts = 2;
  config.drain_time = Seconds(2);
  config.per_host_transplant = Seconds(10);
  config.tracer = &tracer;
  SimExecutor executor;
  FleetController controller(executor, config);
  const FleetRolloutReport& report = controller.Run();
  ASSERT_TRUE(report.complete);
  EXPECT_EQ(tracer.open_span_count(), 0u);

  const Span* rollout = tracer.FindSpan("fleet_rollout");
  ASSERT_NE(rollout, nullptr);
  EXPECT_EQ(rollout->duration(), report.makespan);

  // One wave span per wave, on the "waves" track, parented to the rollout.
  size_t waves = 0;
  for (const Span& span : tracer.spans()) {
    if (span.track == "waves") {
      ++waves;
      EXPECT_EQ(span.parent, rollout->id);
    }
  }
  EXPECT_EQ(waves, static_cast<size_t>(report.waves));

  // Every host's swimlane holds a gap-free drain -> transplant pair.
  for (int host = 0; host < config.hosts; ++host) {
    const std::string track = "host-" + std::to_string(host);
    const Span* drain = nullptr;
    const Span* transplant = nullptr;
    for (const Span& span : tracer.spans()) {
      if (span.track != track) {
        continue;
      }
      if (span.name == "drain") {
        drain = &span;
      } else if (span.name == "transplant") {
        transplant = &span;
      }
    }
    ASSERT_NE(drain, nullptr) << track;
    ASSERT_NE(transplant, nullptr) << track;
    EXPECT_EQ(drain->duration(), Seconds(2));
    EXPECT_EQ(transplant->start, drain->end);
    EXPECT_EQ(transplant->duration(), Seconds(10));
  }
}

TEST(FleetTraceSpanTest, TracingDoesNotPerturbTheRollout) {
  FleetConfig config;
  config.hosts = 50;
  config.parallel_hosts = 5;
  config.failure_probability = 0.2;
  config.post_pause_fraction = 0.5;
  config.rollback_failure_probability = 0.2;
  config.latency_jitter = 0.3;
  config.seed = 7;

  SimExecutor plain_executor;
  FleetController plain(plain_executor, config);
  const FleetRolloutReport plain_report = plain.Run();

  Tracer tracer;
  config.tracer = &tracer;
  SimExecutor traced_executor;
  FleetController traced(traced_executor, config);
  const FleetRolloutReport traced_report = traced.Run();

  EXPECT_EQ(plain_report.makespan, traced_report.makespan);
  EXPECT_EQ(plain_report.upgraded, traced_report.upgraded);
  EXPECT_EQ(plain_report.failed, traced_report.failed);
  EXPECT_EQ(plain_report.retries, traced_report.retries);
  EXPECT_EQ(plain_report.rollbacks, traced_report.rollbacks);
  const auto exposed_host_days = [&config](FleetController& controller, SimTime end) {
    ExposureStream exposure(config.hosts, config.hosts);
    std::vector<ExposureDelta> deltas;
    controller.TakeExposureDeltas(deltas);
    for (const ExposureDelta& delta : deltas) {
      exposure.OnHostsDelta(delta.time, delta.hosts, delta.hosts);
    }
    exposure.Seal(end);
    return exposure.exposed_host_days();
  };
  EXPECT_EQ(exposed_host_days(plain, plain_report.makespan),
            exposed_host_days(traced, traced_report.makespan));
  EXPECT_EQ(FleetTraceToJson(plain.trace()), FleetTraceToJson(traced.trace()));
  EXPECT_EQ(tracer.open_span_count(), 0u);
  // The faulty run exercised the rollback span path.
  EXPECT_GT(tracer.SpansNamed("rollback").size(), 0u);
}

}  // namespace
}  // namespace hypertp
