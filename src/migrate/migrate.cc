#include "src/migrate/migrate.h"

#include <algorithm>
#include <string>

#include "src/base/json.h"
#include "src/base/logging.h"
#include "src/obs/trace.h"
#include "src/pipeline/conversion.h"

namespace hypertp {

SimDuration NetworkLink::TransferTime(uint64_t bytes) const {
  return rtt + static_cast<SimDuration>(static_cast<double>(bytes) / bytes_per_second() * 1e9);
}

MigrationEngine::PrecopyPlan MigrationEngine::PlanPrecopy(uint64_t memory_bytes,
                                                          const MigrationConfig& config,
                                                          double bandwidth_share) const {
  PrecopyPlan plan;
  const double bw = link_.bytes_per_second() * bandwidth_share;
  const uint64_t total_pages = memory_bytes / kPageSize;
  const uint64_t wss = config.writable_working_set_pages != 0
                           ? config.writable_working_set_pages
                           : std::max<uint64_t>(total_pages / 20, 1);
  const uint64_t page_wire_bytes = static_cast<uint64_t>(
      (kPageSize + config.per_page_overhead_bytes) / std::max(config.compression_ratio, 1.0));
  const uint64_t threshold_pages =
      std::max<uint64_t>(config.stop_copy_threshold_bytes / kPageSize, 1);

  uint64_t to_send = total_pages;  // Round 0 sends everything.
  for (int round = 0; round < config.max_rounds; ++round) {
    const uint64_t bytes = to_send * page_wire_bytes;
    const SimDuration t =
        static_cast<SimDuration>(static_cast<double>(bytes) / bw * 1e9) + link_.rtt;
    plan.rounds.push_back(MigrationRound{to_send, t});
    plan.bytes += bytes;
    plan.duration += t;

    // Pages dirtied while this round was on the wire, capped at the WSS.
    const uint64_t dirtied = std::min<uint64_t>(
        static_cast<uint64_t>(config.dirty_pages_per_sec * ToSeconds(t)), wss);
    if (dirtied <= threshold_pages) {
      plan.residual_pages = dirtied;
      return plan;
    }
    // Non-convergence: the dirty rate outruns the link; sending more rounds
    // cannot shrink the set, so force stop-and-copy with the whole WSS.
    if (dirtied >= to_send && round > 0) {
      plan.residual_pages = dirtied;
      plan.converged = false;
      return plan;
    }
    to_send = dirtied;
  }
  plan.residual_pages = to_send;
  plan.converged = false;
  return plan;
}

bool MigrationBatchResult::all_migrated() const {
  for (const VmMigrationOutcome& o : outcomes) {
    if (!o.migrated) {
      return false;
    }
  }
  return true;
}

size_t MigrationBatchResult::migrated_count() const {
  size_t n = 0;
  for (const VmMigrationOutcome& o : outcomes) {
    n += o.migrated ? 1 : 0;
  }
  return n;
}

std::vector<MigrationResult> MigrationBatchResult::successes() const {
  std::vector<MigrationResult> out;
  out.reserve(outcomes.size());
  for (const VmMigrationOutcome& o : outcomes) {
    if (o.migrated) {
      out.push_back(*o.result);
    }
  }
  return out;
}

const Error* MigrationBatchResult::first_error() const {
  for (const VmMigrationOutcome& o : outcomes) {
    if (!o.migrated) {
      return &*o.error;
    }
  }
  return nullptr;
}

Result<MigrationResult> MigrationEngine::MigrateVm(Hypervisor& src, VmId src_id, Hypervisor& dst,
                                                   const MigrationConfig& config) {
  auto batch = MigrateMany(src, {src_id}, dst, config);
  if (!batch.ok()) {
    return batch.error();
  }
  VmMigrationOutcome& outcome = batch->outcomes[0];
  if (!outcome.migrated) {
    return *outcome.error;
  }
  return std::move(*outcome.result);
}

Result<MigrationBatchResult> MigrationEngine::MigrateMany(Hypervisor& src,
                                                          const std::vector<VmId>& src_ids,
                                                          Hypervisor& dst,
                                                          const MigrationConfig& config) {
  if (src_ids.empty()) {
    return MigrationBatchResult{};
  }
  if (&src == &dst) {
    return InvalidArgumentError("migrate: source and destination are the same host");
  }
  const MigrationTraits traits = dst.migration_traits();
  const double share = 1.0 / static_cast<double>(src_ids.size());
  const bool postcopy = config.mode == MigrationMode::kPostcopy;
  // Stop-and-copy runs after the shared pre-copy phase: it gets the full link.
  const double final_bw = link_.bytes_per_second();
  const uint64_t page_wire_bytes = static_cast<uint64_t>(
      (kPageSize + config.per_page_overhead_bytes) / std::max(config.compression_ratio, 1.0));

  // --- Phase 1: concurrent pre-copy streams (source VMs keep running). -----
  struct InFlight {
    VmId src_id = 0;
    VmInfo info;
    PrecopyPlan plan;
    std::vector<std::pair<Gfn, uint64_t>> content;  // Destination-proxy buffer.
    MigrationResult result;
    // Set when this VM's migration already failed; the VM keeps running at
    // the source and is skipped by the stop-and-copy phase.
    std::optional<Error> failed;
  };
  std::vector<InFlight> flights(src_ids.size());
  for (size_t i = 0; i < src_ids.size(); ++i) {
    InFlight& f = flights[i];
    f.src_id = src_ids[i];
    auto info = src.GetVmInfo(f.src_id);
    if (!info.ok()) {
      f.failed = info.error();
      continue;
    }
    f.info = *info;
    if (f.info.has_passthrough) {
      f.failed = FailedPreconditionError("migrate: vm uid " + std::to_string(f.info.uid) +
                                         " has a pass-through device; live migration is "
                                         "impossible (use InPlaceTP)");
      continue;
    }
    // Guest-cooperative device preparation happens while the VM runs.
    if (auto prepped = src.PrepareVmForTransplant(f.src_id); !prepped.ok()) {
      f.failed = prepped.error();
      continue;
    }
    if (auto logging = src.EnableDirtyLogging(f.src_id); !logging.ok()) {
      f.failed = logging.error();
      continue;
    }

    if (postcopy) {
      // Post-copy sends nothing up front; execution moves immediately.
      f.plan = PrecopyPlan{};
      f.result.rounds = 0;
      f.result.converged = true;
    } else {
      f.plan = PlanPrecopy(f.info.memory_bytes, config, share);
      f.result.rounds = static_cast<int>(f.plan.rounds.size());
      f.result.round_log = f.plan.rounds;
      f.result.converged = f.plan.converged;
      f.result.bytes_transferred = f.plan.bytes;
    }

    // Functionally, the destination proxy's buffer now holds the guest image:
    // everything written so far plus whatever the dirty log accumulates until
    // the pause (folded into the final read below).
    f.content = std::move(src.DumpGuestContent(f.src_id)).value_or({});
  }

  // --- Phase 2: stop-and-copy through the destination's receiver slots. ----
  // Pre-copy streams finish in src_ids order (equal shares, similar sizes
  // differ only in plan.duration). The destination grants
  // `traits.receive_concurrency` slots; later VMs wait, running and dirtying.
  std::vector<SimDuration> slot_free(
      static_cast<size_t>(std::max(traits.receive_concurrency, 1)), 0);
  MigrationBatchResult batch;
  batch.outcomes.reserve(flights.size());

  for (size_t index = 0; index < flights.size(); ++index) {
    InFlight& f = flights[index];
    VmMigrationOutcome outcome;
    outcome.src_id = f.src_id;
    if (f.failed.has_value()) {
      outcome.error = std::move(*f.failed);
      batch.outcomes.push_back(std::move(outcome));
      continue;
    }

    const bool inject_here = config.inject_fault != MigrationFault::kNone &&
                             static_cast<int>(index) == config.inject_fault_at_vm;
    auto injected = [&](MigrationFault step) {
      return inject_here && config.inject_fault == step;
    };

    const SimDuration precopy_end = f.plan.duration;
    auto slot = std::min_element(slot_free.begin(), slot_free.end());
    const SimDuration start_final = std::max(precopy_end, *slot);
    f.result.queue_wait = start_final - precopy_end;

    // Extra dirtying while queued, capped at the WSS.
    const uint64_t total_pages = f.info.memory_bytes / kPageSize;
    const uint64_t wss = config.writable_working_set_pages != 0
                             ? config.writable_working_set_pages
                             : std::max<uint64_t>(total_pages / 20, 1);
    const uint64_t extra = std::min<uint64_t>(
        static_cast<uint64_t>(config.dirty_pages_per_sec * ToSeconds(f.result.queue_wait)),
        wss > f.plan.residual_pages ? wss - f.plan.residual_pages : 0);
    // Post-copy pauses immediately: nothing is copied synchronously beyond
    // the VM_i State; all pages stream (or fault in) after the resume.
    const uint64_t final_pages = postcopy ? 0 : f.plan.residual_pages + extra;
    const SimDuration final_copy_est = static_cast<SimDuration>(
        static_cast<double>(final_pages * page_wire_bytes) / final_bw * 1e9) + link_.rtt;

    // Functional stop-and-copy: pause, drain the dirty log into the buffer,
    // translate VM_i State through UISR via the proxies. Every step before
    // the destination resume can fail; the unwind below puts the VM back
    // exactly as it was (running at the source, dirty logging enabled, no
    // half-built destination VM).
    bool paused = false;
    bool dirty_disabled = false;
    std::optional<VmId> created_dst;
    auto attempt = [&]() -> Result<VmId> {
      if (injected(MigrationFault::kPause)) {
        return InternalError("migrate: injected pause fault");
      }
      HYPERTP_RETURN_IF_ERROR(src.PauseVm(f.src_id));
      paused = true;
      if (injected(MigrationFault::kFetchDirtyLog)) {
        return InternalError("migrate: injected dirty-log fetch fault");
      }
      HYPERTP_ASSIGN_OR_RETURN(std::vector<Gfn> dirty, src.FetchAndClearDirtyLog(f.src_id));
      for (Gfn gfn : dirty) {
        HYPERTP_ASSIGN_OR_RETURN(uint64_t word, src.ReadGuestPage(f.src_id, gfn));
        auto it = std::lower_bound(
            f.content.begin(), f.content.end(), gfn,
            [](const std::pair<Gfn, uint64_t>& p, Gfn g) { return p.first < g; });
        if (it != f.content.end() && it->first == gfn) {
          it->second = word;
        } else {
          f.content.insert(it, {gfn, word});
        }
      }
      HYPERTP_RETURN_IF_ERROR(src.DisableDirtyLogging(f.src_id));
      dirty_disabled = true;

      if (injected(MigrationFault::kSaveUisr)) {
        return InternalError("migrate: injected UISR save fault");
      }
      HYPERTP_ASSIGN_OR_RETURN(auto uisr,
                               pipeline::ExtractVmState(src, f.src_id, &f.result.fixups));

      // Source + destination proxies: wire-encode the VM_i State and decode
      // it straight from the encoder's buffer — no parked intermediate blob.
      if (injected(MigrationFault::kDecode)) {
        return DataLossError("migrate: injected UISR decode fault");
      }
      HYPERTP_ASSIGN_OR_RETURN(auto decoded,
                               pipeline::RoundTripVmState(uisr, &f.result.uisr_bytes));
      GuestMemoryBinding binding;
      binding.mode = GuestMemoryBinding::Mode::kAllocate;
      binding.remap_high_ioapic_pins = config.remap_high_ioapic_pins;
      if (injected(MigrationFault::kRestore)) {
        return InternalError("migrate: injected destination restore fault");
      }
      HYPERTP_ASSIGN_OR_RETURN(VmId dst_id,
                               pipeline::RestoreVmState(dst, decoded, binding, &f.result.fixups));
      created_dst = dst_id;
      if (injected(MigrationFault::kWritePage)) {
        return InternalError("migrate: injected guest page write fault");
      }
      for (const auto& [gfn, word] : f.content) {
        HYPERTP_RETURN_IF_ERROR(dst.WriteGuestPage(dst_id, gfn, word));
      }
      if (injected(MigrationFault::kClockAdvance)) {
        return InternalError("migrate: injected clock advance fault");
      }
      HYPERTP_RETURN_IF_ERROR(dst.AdvanceGuestClocks(
          dst_id, final_copy_est + traits.resume_fixed +
                      traits.resume_per_vcpu * static_cast<int>(f.info.vcpus)));
      if (injected(MigrationFault::kResume)) {
        return InternalError("migrate: injected destination resume fault");
      }
      HYPERTP_RETURN_IF_ERROR(dst.ResumeVm(dst_id));
      return dst_id;
    };

    auto attempted = attempt();
    if (!attempted.ok() && config.tracer != nullptr) {
      const SpanId marker =
          config.tracer->AddInstant("migrate_aborted:vm-" + std::to_string(f.info.uid),
                                    config.trace_base + start_final,
                                    "vm-" + std::to_string(f.info.uid));
      config.tracer->SetAttribute(marker, "error", std::string_view(attempted.error().ToString()));
    }
    if (!attempted.ok()) {
      // Per-VM abort, still before the point of no return: destroy whatever
      // the destination built, re-enable dirty logging (so a retried
      // migration starts from a consistent log), and resume the source VM.
      if (created_dst.has_value()) {
        (void)dst.DestroyVm(*created_dst);
      }
      if (dirty_disabled) {
        (void)src.EnableDirtyLogging(f.src_id);
      }
      if (paused) {
        (void)src.ResumeVm(f.src_id);
      }
      HYPERTP_LOG(kWarning, "migrate") << "vm uid " << f.info.uid << " migration aborted ("
                                       << attempted.error().ToString()
                                       << "); vm resumed at the source";
      outcome.error = attempted.error();
      batch.outcomes.push_back(std::move(outcome));
      continue;
    }
    const VmId dst_id = *attempted;
    // Point of no return passed (the VM runs at the destination): tear down
    // the source VM. A teardown failure must not undo the migration; it
    // leaves a paused husk at the source, which we report but never resume.
    if (auto destroyed = src.DestroyVm(f.src_id); !destroyed.ok()) {
      HYPERTP_LOG(kWarning, "migrate")
          << "vm uid " << f.info.uid
          << ": source teardown failed after successful migration: "
          << destroyed.error().ToString();
    }

    // Timing: final copy at full link bandwidth + destination restore.
    const SimDuration final_copy = final_copy_est;
    const SimDuration restore =
        traits.resume_fixed + traits.resume_per_vcpu * static_cast<int>(f.info.vcpus);
    // The VM runs while queued (dirtying extra pages); downtime starts at
    // the pause, so it is the final copy — inflated by the queue-time dirt —
    // plus the destination restore.
    f.result.downtime = final_copy + restore;
    f.result.bytes_transferred += final_pages * page_wire_bytes + f.result.uisr_bytes;
    f.result.total_time = start_final + final_copy + restore;
    if (postcopy) {
      // Background page streaming: the VM runs at the destination while its
      // memory faults in over the link.
      const uint64_t total_pages_all = f.info.memory_bytes / kPageSize;
      const SimDuration stream = static_cast<SimDuration>(
          static_cast<double>(total_pages_all * page_wire_bytes) / final_bw * 1e9);
      f.result.postcopy_fault_window = stream;
      f.result.total_time += stream;
      f.result.bytes_transferred += total_pages_all * page_wire_bytes;
    }
    f.result.dest_vm_id = dst_id;
    *slot = start_final + final_copy + restore;

    if (config.tracer != nullptr) {
      // Span tree on this VM's track: rounds back-to-back from the batch
      // start, then queue wait, stop-and-copy (the downtime) and restore.
      Tracer& tr = *config.tracer;
      const std::string track = "vm-" + std::to_string(f.info.uid);
      const SimTime base = config.trace_base;
      const SpanId vm_span =
          tr.AddSpan("migrate:" + track, base, f.result.total_time, 0, track);
      tr.SetAttribute(vm_span, "uid", static_cast<int64_t>(f.info.uid));
      tr.SetAttribute(vm_span, "rounds", static_cast<int64_t>(f.result.rounds));
      tr.SetAttribute(vm_span, "converged", f.result.converged);
      tr.SetAttribute(vm_span, "bytes_transferred",
                      static_cast<int64_t>(f.result.bytes_transferred));
      tr.SetAttribute(vm_span, "downtime_ms", ToMillis(f.result.downtime));
      SimTime t = base;
      for (size_t r = 0; r < f.result.round_log.size(); ++r) {
        const SpanId round = tr.AddSpan("precopy:round-" + std::to_string(r), t,
                                        f.result.round_log[r].duration, vm_span, track);
        tr.SetAttribute(round, "pages", static_cast<int64_t>(f.result.round_log[r].pages));
        t += f.result.round_log[r].duration;
      }
      if (f.result.queue_wait > 0) {
        tr.AddSpan("queue_wait", base + precopy_end, f.result.queue_wait, vm_span, track);
      }
      tr.AddSpan("stop_and_copy", base + start_final, final_copy, vm_span, track);
      tr.AddSpan("restore", base + start_final + final_copy, restore, vm_span, track);
      if (postcopy) {
        tr.AddSpan("postcopy_fault_window", base + start_final + final_copy + restore,
                   f.result.postcopy_fault_window, vm_span, track);
      }
    }

    HYPERTP_LOG(kInfo, "migrate") << "vm uid " << f.info.uid << ": "
                                  << FormatDuration(f.result.total_time) << " total, "
                                  << FormatDuration(f.result.downtime) << " downtime, "
                                  << f.result.rounds << " rounds";
    outcome.migrated = true;
    outcome.result = std::move(f.result);
    batch.outcomes.push_back(std::move(outcome));
  }
  return batch;
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
  FixupLogToJson(j, result.fixups);
  j.EndObject();
  return j.Take();
}

}  // namespace hypertp
