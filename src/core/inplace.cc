// InPlaceTransplant::Run — the orchestration spine: ledger commits, fault
// injection, kexec micro-reboot, abort/rollback, verification and the timing
// summary. The per-phase conversion work lives in the phase units of
// inplace_internal.h (inplace_save.cc / inplace_restore.cc), which run the
// shared src/pipeline/ stages and hand back the worker-pool schedule each
// phase charged — so durations, per-VM spans and the PhaseBreakdown all
// derive from one schedule.

#include "src/core/inplace.h"

#include <algorithm>
#include <optional>
#include <string>

#include "src/base/logging.h"
#include "src/core/factory.h"
#include "src/core/inplace_internal.h"
#include "src/kexec/kexec.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/pram/ledger.h"
#include "src/pram/pram.h"

namespace hypertp {
namespace {

using inplace_internal::PrepareVms;
using inplace_internal::RestoreAllFromPram;
using inplace_internal::RestoreOutcome;
using inplace_internal::TranslateInMap;
using inplace_internal::TranslateVms;
using inplace_internal::VmSnapshot;

// One "<prefix>:vm-<uid>" span per VM, laid out exactly where the worker-pool
// schedule placed that VM's stage work relative to `phase_start`, as children
// of `parent` on per-VM tracks. `uids` is parallel to `schedule.tasks`.
void TraceScheduledSpans(Tracer* tracer, std::string_view prefix,
                         const std::vector<uint64_t>& uids, const WorkSchedule& schedule,
                         SimTime phase_start, SpanId parent) {
  if (tracer == nullptr) {
    return;
  }
  for (size_t i = 0; i < schedule.tasks.size() && i < uids.size(); ++i) {
    const std::string label = "vm-" + std::to_string(uids[i]);
    tracer->AddSpan(std::string(prefix) + ":" + label, phase_start + schedule.tasks[i].start,
                    schedule.tasks[i].duration(), parent, label);
  }
}

}  // namespace

Result<InPlaceResult> InPlaceTransplant::Run(std::unique_ptr<Hypervisor> source,
                                             HypervisorKind target,
                                             const InPlaceOptions& options,
                                             std::unique_ptr<Hypervisor>* aborted_source) {
  if (source == nullptr) {
    return InvalidArgumentError("inplace: null source hypervisor");
  }
  Machine& machine = source->machine();
  const HostCostProfile& costs = machine.profile().costs;
  // Modeled workers charge every duration; real threads only move wall-clock.
  const int workers = options.parallel_translation ? machine.worker_threads() : 1;
  const int real_threads =
      options.real_threads > 0 ? options.real_threads : ParallelThreadsFromEnv();

  TransplantReport report;
  report.source_hypervisor = std::string(source->name());

  // Tracing: phase spans are laid out along one simulated timeline whose
  // cursor advances by exactly the durations the report charges, so the span
  // tree and the PhaseBreakdown agree to the nanosecond.
  Tracer* const tracer = options.tracer;
  SimTime cursor = options.trace_base;
  SpanId root = 0;
  if (tracer != nullptr) {
    root = tracer->BeginSpan("inplace_transplant", cursor);
    tracer->SetAttribute(root, "source", std::string_view(report.source_hypervisor));
  }

  std::vector<VmId> paused;  // For the abort path.
  auto abort = [&](const Error& cause) -> Error {
    if (tracer != nullptr) {
      tracer->SetAttribute(root, "outcome", "aborted");
      tracer->SetAttribute(root, "abort_cause", std::string_view(cause.ToString()));
      tracer->EndSpan(root, cursor);
    }
    for (VmId id : paused) {
      (void)source->ResumeVm(id);
    }
    // Release everything the aborted attempt staged: PRAM metadata, parked
    // UISR blobs, and the kexec kernel image. The source hypervisor keeps
    // running as if nothing happened.
    for (FrameOwnerKind kind :
         {FrameOwnerKind::kPramMeta, FrameOwnerKind::kUisr, FrameOwnerKind::kKernelImage}) {
      for (const FrameExtent& ext : machine.memory().ExtentsOfKind(kind)) {
        (void)machine.memory().Free(ext.base, ext.count);
      }
    }
    if (aborted_source != nullptr) {
      *aborted_source = std::move(source);
    }
    return AbortedError("inplace transplant aborted before micro-reboot: " + cause.ToString());
  };

  // ❶ Stage the target kernel image (no downtime).
  KexecController kexec(machine);
  const KernelImage image = KernelImage::For(target);
  const HypervisorKind source_kind = source->kind();
  report.target_hypervisor = image.name;
  if (auto staged = kexec.LoadImage(image); !staged.ok()) {
    return abort(staged.error());
  }

  // Open the transplant ledger: the phase record that lets the post-reboot
  // kernel distinguish a healthy hand-off from a crashed one. It lives in a
  // kPramMeta frame, so the abort and cleanup paths below reclaim it with the
  // rest of the PRAM metadata.
  LedgerRecord ledger_record;
  ledger_record.phase = TransplantPhase::kStaged;
  ledger_record.source_kind = static_cast<uint8_t>(source_kind);
  ledger_record.target_kind = static_cast<uint8_t>(target);
  auto ledger_or = TransplantLedger::Create(machine.memory(), ledger_record);
  if (!ledger_or.ok()) {
    return abort(ledger_or.error());
  }
  TransplantLedger ledger = std::move(*ledger_or);

  // --- Preparation: PRAM construction, guest-cooperative device prep. ------
  // Runs before the pause when the prepare_before_pause optimization is on.
  std::vector<VmSnapshot> vms;
  PramBuilder builder(machine.memory());
  auto pram_schedule = PrepareVms(*source, machine, options, workers, builder, vms);
  if (!pram_schedule.ok()) {
    return abort(pram_schedule.error());
  }
  report.vm_count = static_cast<int>(vms.size());
  report.phases.pram = pram_schedule->makespan;
  if (tracer != nullptr) {
    tracer->AddSpan("phase:pram", cursor, report.phases.pram, root);
  }
  cursor += report.phases.pram;

  // --- Speculative pre-translation: Extract -> UisrEncode while the guests
  // still run, keyed by per-VM state generations. Runs after PrepareVms so
  // the PRAM file ids it bakes into the blobs are final. Its makespan is
  // charged to total_time only — the guests are not paused for it.
  pipeline::PreTranslationCache pretranslate_cache;
  if (options.pre_translate) {
    std::vector<pipeline::PreTranslateRequest> requests;
    requests.reserve(vms.size());
    for (const VmSnapshot& snap : vms) {
      requests.push_back(pipeline::PreTranslateRequest{snap.id, snap.info.uid, snap.vm_file_id,
                                                       snap.info.vcpus, snap.info.memory_bytes});
    }
    // The blobs are parked in machine memory, outside the pause window: a
    // generation hit later only registers the PRAM file. The extents are
    // owned kUisr, so abort()/cleanup reclaim them like any pause-time store.
    auto pre_schedule = pipeline::PreTranslateVms(*source, costs, requests, workers, real_threads,
                                                  &pretranslate_cache);
    if (!pre_schedule.ok()) {
      return abort(pre_schedule.error());
    }
    report.pre_translated = true;
    report.phases.pre_translation = pre_schedule->makespan;
    if (tracer != nullptr) {
      const SpanId span =
          tracer->AddSpan("phase:pre_translation", cursor, report.phases.pre_translation, root);
      std::vector<uint64_t> uids;
      uids.reserve(vms.size());
      for (const VmSnapshot& snap : vms) {
        uids.push_back(snap.info.uid);
      }
      TraceScheduledSpans(tracer, "pre_translate", uids, *pre_schedule, cursor, span);
    }
    cursor += report.phases.pre_translation;
  }

  // The guests ran through all of the above. Let the test/bench hook inject
  // its guest activity now (in both modes, so invalidation comparisons are
  // fair) — whatever it dirties must show up in the translated state.
  if (options.concurrent_activity) {
    options.concurrent_activity(*source);
  }

  // ❷ Pause all guests.
  for (VmSnapshot& snap : vms) {
    if (auto pause = source->PauseVm(snap.id); !pause.ok()) {
      return abort(pause.error());
    }
    paused.push_back(snap.id);
  }
  if (tracer != nullptr) {
    tracer->AddInstant("guests_paused", cursor);
  }

  // ❸ Translate VM_i States to UISR; park the blobs in RAM as PRAM files.
  // With pre-translation on this only reconciles the cache against the
  // paused-state generations; without it, the full Extract -> UisrEncode
  // pipeline runs here, inside the pause window.
  auto translate_schedule =
      TranslateVms(*source, machine, options, workers, real_threads, builder, report, vms,
                   options.pre_translate ? &pretranslate_cache : nullptr);
  if (!translate_schedule.ok()) {
    return abort(translate_schedule.error());
  }
  report.phases.translation = translate_schedule->makespan;
  if (options.metrics != nullptr && report.pre_translated) {
    options.metrics->GetCounter("hypertp_pretranslate_hits")
        .Increment(static_cast<uint64_t>(report.pretranslate_hits));
    options.metrics->GetCounter("hypertp_pretranslate_invalidations")
        .Increment(static_cast<uint64_t>(report.pretranslate_invalidations));
  }
  if (tracer != nullptr) {
    const SpanId span = tracer->AddSpan("phase:translation", cursor, report.phases.translation, root);
    tracer->SetAttribute(span, "uisr_bytes", static_cast<int64_t>(report.uisr_total_bytes));
    std::vector<uint64_t> uids;
    uids.reserve(vms.size());
    for (const VmSnapshot& snap : vms) {
      uids.push_back(snap.info.uid);
    }
    TraceScheduledSpans(tracer, "translate", uids, *translate_schedule, cursor, span);
  }
  cursor += report.phases.translation;

  auto pram_handle = builder.Finalize();
  if (!pram_handle.ok()) {
    return abort(pram_handle.error());
  }
  report.pram_metadata_bytes = pram_handle->metadata_bytes();

  ledger_record.phase = TransplantPhase::kTranslated;
  ledger_record.vm_count = static_cast<uint32_t>(vms.size());
  if (auto committed = ledger.Commit(ledger_record); !committed.ok()) {
    return abort(committed.error());
  }

  if (options.inject_fault == InPlaceOptions::Fault::kPramCorruptionBeforeReboot) {
    // Clobber the head of the PRAM root page: models a stray hypervisor
    // write between translation and the kexec jump.
    if (auto root = machine.memory().BackedExtent(pram_handle->root_mfn, 1); root.ok()) {
      std::fill_n(root->begin(), 64, uint8_t{0xFF});
    }
  }
  if (options.inject_fault == InPlaceOptions::Fault::kUisrCorruptionBeforeReboot &&
      !vms.empty() && !vms.front().uisr_frames.empty()) {
    // Flip bytes inside the first VM's parked UISR blob. The PRAM structure
    // stays valid (guest memory survives), but the blob's CRC must catch
    // this at restore time.
    const FrameExtent& victim = vms.front().uisr_frames.front();
    if (auto blob = machine.memory().BackedExtent(victim.base, victim.count); blob.ok()) {
      (*blob)[kPageSize / 2] ^= 0xFF;
    }
  }

  // Commit the point-of-no-return record: from here on the ledger is what
  // authorizes a rollback and names the hypervisor kind to salvage under.
  ledger_record.phase = TransplantPhase::kCommitted;
  ledger_record.pram_root = pram_handle->root_mfn;
  if (auto committed = ledger.Commit(ledger_record); !committed.ok()) {
    return abort(committed.error());
  }
  if (options.inject_fault == InPlaceOptions::Fault::kLedgerTornWrite) {
    // Tear the commit record the fault-recovery path depends on: flip a byte
    // inside the slot the kCommitted generation was written to. Read() must
    // fall back to the previous (kTranslated) generation, which does not
    // authorize rollback.
    if (auto page = machine.memory().BackedExtent(ledger.frame(), 1); page.ok()) {
      (*page)[TransplantLedger::SlotOffset(ledger.generation()) + 2] ^= 0xFF;
    }
  }

  // ❹ Micro-reboot into the target kernel. Point of no return.
  source->DetachForMicroReboot();
  source.reset();
  SpanId reboot_span = 0;
  if (tracer != nullptr) {
    reboot_span = tracer->BeginSpan("phase:reboot", cursor, root);
    kexec.SetTrace(tracer, cursor, reboot_span);
  }
  auto boot = kexec.Reboot(FormatKexecCmdline(pram_handle->root_mfn, ledger.frame()));
  if (!boot.ok()) {
    if (tracer != nullptr) {
      tracer->SetAttribute(root, "outcome", "data_loss");
      tracer->EndSpan(reboot_span, cursor);
      tracer->EndSpan(root, cursor);
    }
    return DataLossError("inplace: micro-reboot lost the guests: " + boot.error().ToString());
  }
  report.phases.reboot = boot->reboot_time;
  report.phases.pram_parse = boot->pram_parse_time;
  report.phases.network = boot->network_ready;
  report.frames_scrubbed = boot->frames_scrubbed;
  if (tracer != nullptr) {
    tracer->EndSpan(reboot_span, cursor + report.phases.reboot);
    // NIC re-init starts at the kexec jump and overlaps the later phases.
    tracer->AddSpan("nic_reinit", cursor, report.phases.network, root, "network");
  }
  cursor += report.phases.reboot;

  // ❺ + ❻ Construct the target hypervisor; restore and relink every VM.
  // A post-pause failure here no longer strands the host: the salvage path
  // below re-instantiates the *source* hypervisor kind from the same PRAM
  // image (ReHype-style), so the guests lose time, not state.
  InPlaceResult result;
  std::unique_ptr<Hypervisor> hv;
  std::optional<Error> rollback_cause;
  if (options.inject_fault == InPlaceOptions::Fault::kKexecFailure) {
    // Models the target kernel panicking right after the scrub: the machine
    // comes back via the watchdog path with nothing restored.
    rollback_cause = InternalError("injected kexec fault: target kernel panicked after scrub");
  } else {
    hv = MakeHypervisor(target, machine);
    if (hv == nullptr) {
      return InternalError("inplace: unknown target hypervisor kind");
    }
    auto restored = RestoreAllFromPram(*hv, machine, boot->pram, options, target, workers,
                                       real_threads, &report.fixups, options.inject_fault);
    if (!restored.ok()) {
      rollback_cause = restored.error();
    } else {
      report.phases.restoration = restored->schedule.makespan;
      if (!options.early_restoration) {
        // Without the early-restoration optimization, restores wait for the
        // full service startup window instead of overlapping the late boot.
        report.phases.restoration += costs.boot_linux / 5;
      }
      if (tracer != nullptr) {
        const SpanId span =
            tracer->AddSpan("phase:restoration", cursor, report.phases.restoration, root);
        TraceScheduledSpans(tracer, "restore", restored->uids, restored->schedule, cursor, span);
      }
      result.restored_vms = std::move(restored->vms);
      cursor += report.phases.restoration;
    }
  }

  if (rollback_cause.has_value()) {
    // --- Salvage: roll back to the source hypervisor kind. -----------------
    // The guests' memory is still in RAM (the PRAM reservation survived the
    // scrub) and the UISR image is hypervisor-neutral, so a second
    // micro-reboot into the source kind can restore every VM — if and only
    // if the ledger proves the image was fully committed.
    SpanId rollback_span = 0;
    if (tracer != nullptr) {
      rollback_span = tracer->BeginSpan("phase:rollback", cursor, root);
      tracer->SetAttribute(rollback_span, "cause", std::string_view(rollback_cause->ToString()));
    }
    auto salvage = [&]() -> Result<void> {
      auto opened = TransplantLedger::Open(machine.memory(), boot->ledger_mfn);
      if (!opened.ok()) {
        return opened.error();
      }
      // Crash-grade triage rather than a bare phase check: Assess() also
      // detects a *newer* write torn over an old committed record, which a
      // Read() fallback would happily salvage as if current (stale-state
      // resurrection). The planned path holds itself to the same bar as the
      // unplanned ReHype recovery.
      HYPERTP_ASSIGN_OR_RETURN(SalvageAssessment assessment, opened->Assess());
      if (assessment.decision != SalvageDecision::kSalvageFromImage) {
        return DataLossError(assessment.reason);
      }
      LedgerRecord record = *assessment.record;
      const auto salvage_kind = static_cast<HypervisorKind>(record.source_kind);
      if (hv != nullptr) {
        // Partially restored target state (VM structures, NPTs) is reclaimed
        // by the second scrub; the target must not free adopted guest frames.
        hv->DetachForMicroReboot();
        hv.reset();
      }
      HYPERTP_RETURN_IF_ERROR(kexec.LoadImage(KernelImage::For(salvage_kind)));
      if (tracer != nullptr) {
        kexec.SetTrace(tracer, cursor, rollback_span);
      }
      HYPERTP_ASSIGN_OR_RETURN(
          KexecBootResult reborn,
          kexec.Reboot(FormatKexecCmdline(record.pram_root, opened->frame())));
      report.phases.rollback += reborn.reboot_time;
      report.frames_scrubbed += reborn.frames_scrubbed;
      hv = MakeHypervisor(salvage_kind, machine);
      if (hv == nullptr) {
        return InternalError("inplace: ledger names unknown source hypervisor kind");
      }
      HYPERTP_ASSIGN_OR_RETURN(
          RestoreOutcome out,
          RestoreAllFromPram(*hv, machine, reborn.pram, options, salvage_kind, workers,
                             real_threads, &report.fixups, InPlaceOptions::Fault::kNone));
      TraceScheduledSpans(tracer, "restore", out.uids, out.schedule,
                          cursor + reborn.reboot_time, rollback_span);
      result.restored_vms = std::move(out.vms);
      report.phases.rollback += out.schedule.makespan;
      record.phase = TransplantPhase::kRolledBack;
      HYPERTP_RETURN_IF_ERROR(opened->Commit(record));
      return OkResult();
    };
    if (auto salvaged = salvage(); !salvaged.ok()) {
      if (tracer != nullptr) {
        tracer->SetAttribute(root, "outcome", "data_loss");
        tracer->EndSpan(rollback_span, cursor);
        tracer->EndSpan(root, cursor);
      }
      return DataLossError("inplace: post-pause fault (" + rollback_cause->ToString() +
                           ") and rollback failed: " + salvaged.error().ToString());
    }
    if (tracer != nullptr) {
      tracer->EndSpan(rollback_span, cursor + report.phases.rollback);
    }
    cursor += report.phases.rollback;
    report.outcome = TransplantOutcome::kRolledBack;
    report.notes.push_back("post-pause fault; salvaged all " +
                           std::to_string(result.restored_vms.size()) +
                           " VMs under the source hypervisor: " + rollback_cause->ToString());
    HYPERTP_LOG(kWarning, "inplace")
        << "rolled back to source hypervisor after post-pause fault: "
        << rollback_cause->ToString();
  }

  // ❼ Resume all guests, advancing their clocks past the pause so guest
  // time never runs backwards.
  const SimDuration pause_span = (options.prepare_before_pause ? 0 : report.phases.pram) +
                                 report.phases.translation + report.phases.reboot +
                                 report.phases.restoration + report.phases.rollback;
  for (VmId id : result.restored_vms) {
    if (auto advanced = hv->AdvanceGuestClocks(id, pause_span); !advanced.ok()) {
      return DataLossError("inplace: clock adjust failed: " + advanced.error().ToString());
    }
    if (auto resumed = hv->ResumeVm(id); !resumed.ok()) {
      return DataLossError("inplace: resume failed: " + resumed.error().ToString());
    }
  }
  report.phases.resume = Millis(2) * report.vm_count;
  if (tracer != nullptr) {
    tracer->AddSpan("phase:resume", cursor, report.phases.resume, root);
  }
  cursor += report.phases.resume;

  // Cleanup: the PRAM metadata and parked UISR blobs are ephemeral.
  for (const FrameExtent& ext : machine.memory().ExtentsOfKind(FrameOwnerKind::kPramMeta)) {
    (void)machine.memory().Free(ext.base, ext.count);
  }
  for (const FrameExtent& ext : machine.memory().ExtentsOfKind(FrameOwnerKind::kUisr)) {
    (void)machine.memory().Free(ext.base, ext.count);
  }
  report.phases.cleanup = Millis(20);
  if (tracer != nullptr) {
    // Cleanup runs after the guests resumed; it is charged to neither
    // downtime nor total_time, so it sits beside the root span, not inside.
    tracer->AddSpan("phase:cleanup", cursor, report.phases.cleanup);
  }

  // Verification: guest memory must be byte-identical AND in place.
  if (options.verify_guest_memory) {
    for (const VmSnapshot& snap : vms) {
      auto new_id = [&]() -> Result<VmId> {
        for (VmId id : result.restored_vms) {
          auto info = hv->GetVmInfo(id);
          if (info.ok() && info->uid == snap.info.uid) {
            return id;
          }
        }
        return NotFoundError("restored vm for uid " + std::to_string(snap.info.uid));
      }();
      if (!new_id.ok()) {
        return DataLossError("inplace: " + new_id.error().ToString());
      }
      auto new_map = hv->GuestMemoryMap(*new_id);
      if (!new_map.ok()) {
        return DataLossError("inplace: " + new_map.error().ToString());
      }
      for (size_t i = 0; i < snap.sample_gfns.size(); ++i) {
        auto word = hv->ReadGuestPage(*new_id, snap.sample_gfns[i]);
        auto mfn = TranslateInMap(*new_map, snap.sample_gfns[i]);
        if (!word.ok() || !mfn.ok() || *word != snap.sample_words[i] ||
            *mfn != snap.sample_mfns[i]) {
          return DataLossError("inplace: guest memory verification failed for uid " +
                               std::to_string(snap.info.uid) + " at gfn " +
                               std::to_string(snap.sample_gfns[i]));
        }
      }
    }
    report.notes.push_back("guest memory verified in place (content + MFN samples)");
  }

  // --- Assemble the timing summary. ----------------------------------------
  report.downtime = (options.prepare_before_pause ? 0 : report.phases.pram) +
                    report.phases.translation + report.phases.reboot +
                    report.phases.restoration + report.phases.rollback + report.phases.resume;
  report.total_time = report.phases.pram + report.phases.pre_translation +
                      report.phases.translation + report.phases.reboot +
                      report.phases.restoration + report.phases.rollback + report.phases.resume;
  // NIC re-init starts at the kexec jump and overlaps the remaining phases.
  report.network_downtime =
      std::max(report.downtime, report.phases.translation + report.phases.network);

  if (tracer != nullptr) {
    tracer->SetAttribute(root, "target", std::string_view(report.target_hypervisor));
    tracer->SetAttribute(root, "vm_count", static_cast<int64_t>(report.vm_count));
    tracer->SetAttribute(root, "outcome", TransplantOutcomeName(report.outcome));
    tracer->SetAttribute(root, "downtime_ms", ToMillis(report.downtime));
    tracer->EndSpan(root, options.trace_base + report.total_time);
  }

  HYPERTP_LOG(kInfo, "inplace") << report.ToString();
  result.report = std::move(report);
  result.hypervisor = std::move(hv);
  return result;
}

}  // namespace hypertp
