// Transplant options and reports — the operator-facing telemetry HyperTP
// produces, structured like the paper's Fig. 6 breakdown.

#ifndef HYPERTP_SRC_CORE_REPORT_H_
#define HYPERTP_SRC_CORE_REPORT_H_

#include <functional>
#include <string>
#include <vector>

#include "src/hv/hypervisor.h"
#include "src/sim/time.h"

namespace hypertp {

class MetricsRegistry;
class Tracer;

// Options controlling the InPlaceTP optimizations of paper §4.2.5. The
// defaults are the paper's configuration; the ablation benches flip them.
struct InPlaceOptions {
  // Observability: when non-null, the run records one span per phase (and
  // per VM restore, per kexec stage) starting at `trace_base` on the
  // tracer's simulated timeline. Null (the default) records nothing and
  // changes no behavior or reported duration.
  Tracer* tracer = nullptr;
  SimTime trace_base = 0;
  // When non-null, the run increments hypertp_pretranslate_{hits,invalidations}
  // counters after the translation phase. Null (the default) records nothing.
  MetricsRegistry* metrics = nullptr;

  // "Preparation work without pausing the guest": build PRAM before pause.
  bool prepare_before_pause = true;
  // Speculative pre-translation (src/pipeline/pretranslate.h): Extract +
  // UisrEncode while the guests still run, keyed by per-VM state generations.
  // At pause time only invalidated VMs are re-translated, and within a VM only
  // the dirty UISR sections are patched. Off = the exact legacy pause-window
  // translation (byte-identical blobs, reports and traces).
  bool pre_translate = true;
  // Invoked after pre-translation completes (or, with pre_translate off, at
  // the same point in the sequence) while the guests are still running. Test
  // and bench hook: inject guest events here to dirty state generations and
  // exercise the invalidation path. Null runs nothing.
  std::function<void(Hypervisor&)> concurrent_activity;
  // "Parallelization": one worker per free core for PRAM + translation.
  // This is the *modeled* worker count (Machine::worker_threads()); it
  // decides every charged duration via the worker-pool schedule.
  bool parallel_translation = true;
  // Real OS threads for the pure UISR encode/decode stage work. Wall-clock
  // only: never changes charged durations, reports, blobs or trace JSON —
  // those derive from the modeled schedule above. 0 = read the
  // HYPERTP_PARALLEL env var (unset = 1); 1 = run inline.
  int real_threads = 0;
  // "Huge page support": 2 MiB PRAM entries where alignment permits.
  bool use_huge_pages = true;
  // "Early restoration": start restores while late boot services come up.
  bool early_restoration = true;
  // Extra safety: sample guest pages before/after and compare (content and
  // machine frame numbers must both be identical for InPlaceTP).
  bool verify_guest_memory = true;
  int verify_sample_pages = 32;
  // §4.2.1 future-work extension: renegotiate IOAPIC pins the target cannot
  // host instead of disconnecting them.
  bool remap_high_ioapic_pins = false;

  // Fault injection for testing the recovery paths, one per InPlaceTP phase.
  //
  // Pre-reboot faults expect a clean abort (guests resume under the source):
  //   kTranslationFailure fires after the guests are paused; kPramWriteFailure
  //   fires while parking a UISR blob into PRAM-registered frames.
  // Post-reboot faults expect a rollback (guests salvaged under the source
  // hypervisor kind via the transplant ledger):
  //   kKexecFailure models the target kernel panicking right after the scrub;
  //   kDecodeFailure and kRestoreFailure fire in the target's restore loop.
  // Unrecoverable faults expect kDataLoss:
  //   kPramCorruptionBeforeReboot clobbers the PRAM root just before the
  //   micro-reboot (guests scrubbed); kUisrCorruptionBeforeReboot clobbers a
  //   parked UISR page (guests survive but neither hypervisor can decode
  //   their platform state); kLedgerTornWrite tears the ledger's commit
  //   record, so the post-reboot kernel refuses to roll back.
  enum class Fault : uint8_t {
    kNone,
    kTranslationFailure,
    kPramCorruptionBeforeReboot,
    kUisrCorruptionBeforeReboot,
    kPramWriteFailure,
    kKexecFailure,
    kDecodeFailure,
    kRestoreFailure,
    kLedgerTornWrite,
  };
  Fault inject_fault = Fault::kNone;
};

// Per-phase durations (Fig. 6's stacked bars).
struct PhaseBreakdown {
  SimDuration pram = 0;             // PRAM structure construction.
  // Speculative Extract -> UisrEncode while the guests run. Charged to
  // total_time only — the guests are not paused for it.
  SimDuration pre_translation = 0;
  SimDuration translation = 0;  // VM_i State -> UISR (incl. PRAM finalize).
  SimDuration reboot = 0;       // kexec jump + kernel boot(s) + PRAM parse.
  SimDuration pram_parse = 0;   // Early-boot part of `reboot`.
  SimDuration restoration = 0;  // UISR -> target format + VM relink.
  SimDuration resume = 0;       // Unpausing guests.
  SimDuration cleanup = 0;      // Freeing PRAM/UISR ephemeral frames.
  SimDuration network = 0;      // NIC re-initialization (overlaps reboot).
  SimDuration rollback = 0;     // Salvage micro-reboot + source restore (0 on success).
};

// How an in-place transplant that returned OK actually ended: on the target
// hypervisor, or salvaged back onto the source kind after a post-pause fault.
enum class TransplantOutcome : uint8_t {
  kCompleted = 0,
  kRolledBack = 1,
};

std::string_view TransplantOutcomeName(TransplantOutcome outcome);

// One transplanted VM's record inside the report.
struct VmTransplantRecord {
  uint64_t uid = 0;
  std::string name;
  uint32_t vcpus = 0;
  uint64_t memory_bytes = 0;
  size_t uisr_bytes = 0;
};

struct TransplantReport {
  std::string source_hypervisor;
  std::string target_hypervisor;
  int vm_count = 0;
  std::vector<VmTransplantRecord> vms;
  PhaseBreakdown phases;
  // VMs are paused for: [pram if not prepared early +] translation + reboot
  // + visible restoration + resume.
  SimDuration downtime = 0;
  // Wall-clock of the whole operation (prep included).
  SimDuration total_time = 0;
  // Downtime as seen by network-dependent applications: until the NIC is
  // back up (Fig. 6 reports this separately from the transplant phases).
  SimDuration network_downtime = 0;
  uint64_t pram_metadata_bytes = 0;
  uint64_t uisr_total_bytes = 0;
  uint64_t frames_scrubbed = 0;
  // kRolledBack when a post-pause fault forced the salvage path: the VMs are
  // running, but under the *source* hypervisor kind, and phases.rollback
  // carries the extra downtime the recovery cost.
  TransplantOutcome outcome = TransplantOutcome::kCompleted;
  // Pre-translation accounting (all zero unless pre_translated is true).
  bool pre_translated = false;
  int64_t pretranslate_hits = 0;           // Cached blob adopted unmodified.
  int64_t pretranslate_invalidations = 0;  // Generation moved; reconciled.
  FixupLog fixups;
  std::vector<std::string> notes;

  // Multi-line human-readable rendering.
  std::string ToString() const;
};

// Telemetry export: one JSON object with phases (ms), downtime/total/network
// (ms), memory overheads (bytes), fixups, and notes — what a production
// HyperTP would push to its operators' dashboards after each §4.5.2 host live
// upgrade.
std::string TransplantReportToJson(const TransplantReport& report);

}  // namespace hypertp

#endif  // HYPERTP_SRC_CORE_REPORT_H_
