// Transplant ledger: a single PRAM-resident page that records how far an
// in-place transplant has progressed, so the kernel that comes up after the
// micro-reboot can tell a healthy hand-off from a crashed one and — when the
// restore under the target hypervisor fails — prove that rolling back to the
// source hypervisor kind is safe.
//
// The page holds two fixed-size commit slots. Every Commit() bumps a
// monotonically increasing generation and rewrites only the slot selected by
// the generation's parity, leaving the previous commit intact. Each slot
// carries a CRC over its payload, so a write torn by the very fault we are
// trying to survive invalidates at most the newest slot and Read() falls back
// to the last fully committed record. A reader therefore never observes a
// half-written phase. The page is a one-frame backing in PhysicalMemory: a
// commit writes its slot where it lies, and readers decode the slots there.
//
// The ledger frame's MFN travels on the kexec command line (`tpledger=`)
// alongside the PRAM pointer; it is owned by kPramMeta so the existing abort
// and cleanup paths reclaim it with the rest of the PRAM metadata.

#ifndef HYPERTP_SRC_PRAM_LEDGER_H_
#define HYPERTP_SRC_PRAM_LEDGER_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "src/base/result.h"
#include "src/hw/physical_memory.h"

namespace hypertp {

// Where the in-place transplant stands. Values are persisted; append only.
enum class TransplantPhase : uint8_t {
  kIdle = 0,        // Ledger created, nothing staged yet.
  kStaged = 1,      // Target kernel image parked in RAM.
  kTranslated = 2,  // All VMs paused + serialized; PRAM finalized.
  kCommitted = 3,   // About to micro-reboot: PRAM root recorded. Rollback legal.
  kRestored = 4,    // Target hypervisor restored every VM.
  kComplete = 5,    // VMs resumed under the target; transplant done.
  kRolledBack = 6,  // Restore failed; VMs were salvaged under the source kind.
};

std::string_view TransplantPhaseName(TransplantPhase phase);

// What an unplanned micro-reboot (ReHype-mode crash recovery) may do with the
// ledger it finds. A *planned* rollback only ever runs with the transplant
// still on the stack; a crash recovery starts from nothing but this page.
enum class SalvageDecision : uint8_t {
  kSalvageFromImage = 0,  // Newest commit is clean: restore from pram_root.
  kRecoverLive = 1,       // No committed image governs: re-adopt the in-RAM
                          // guests under a fresh hypervisor (ReHype classic);
                          // rolling back would resurrect stale state.
  kDataLoss = 2,          // Nothing trustworthy: neither the image's currency
                          // nor the in-RAM structures can be proven.
};

std::string_view SalvageDecisionName(SalvageDecision decision);

// The distinguishable states a mid-traffic hypervisor crash can leave the
// ledger page in. `Assess()` derives one from the raw slots; the fleet layer
// samples the same taxonomy stochastically, so the simulated outcome
// distribution and the byte-level behaviour share one decision table.
enum class CrashLedgerState : uint8_t {
  kCleanCommit = 0,   // Newest valid slot is kCommitted/kRestored, no torn
                      // newer write: the image is provably current.
  kPrePause = 1,      // Newest valid slot predates the commit point (idle/
                      // staged/translated/complete/rolled_back): no image
                      // authorizes rollback; live guest state is authoritative.
  kMidSaveTorn = 2,   // A newer write tore over a pre-commit base: the save
                      // was in flight, the half-written image must be refused.
  kStaleCommit = 3,   // A newer write tore over a *committed* base: a later
                      // transplant superseded the image, so its currency
                      // cannot be proven — salvaging it would be silent
                      // stale-state resurrection.
  kScrubbed = 4,      // No valid slot at all (torn both, scrubbed, missing).
};

std::string_view CrashLedgerStateName(CrashLedgerState state);

// Pure decision table: clean commit -> salvage, pre-pause/mid-save -> refuse
// rollback and recover live, stale commit/scrubbed -> honest data loss.
SalvageDecision DecideSalvage(CrashLedgerState state);

// One commit record. Hypervisor kinds are stored as raw bytes so the pram
// layer stays below src/hv in the dependency order; src/core casts them.
struct LedgerRecord {
  uint32_t generation = 0;  // Assigned by Commit(); 0 = never committed.
  TransplantPhase phase = TransplantPhase::kIdle;
  uint8_t source_kind = 0;
  uint8_t target_kind = 0;
  Mfn pram_root = 0;        // Valid from kCommitted onwards.
  uint32_t vm_count = 0;

  bool operator==(const LedgerRecord&) const = default;
};

// Crash-time triage of one ledger page.
struct SalvageAssessment {
  CrashLedgerState state = CrashLedgerState::kScrubbed;
  SalvageDecision decision = SalvageDecision::kDataLoss;
  // Best (highest-generation) CRC-valid record, when one exists.
  std::optional<LedgerRecord> record;
  // True when the slot *not* holding `record` carries bytes that fail CRC:
  // evidence of a newer commit torn by the crash. Read() alone cannot tell
  // this apart from "no newer write ever happened".
  bool torn_newer_write = false;
  std::string reason;  // Human-readable justification for the decision.
};

class TransplantLedger {
 public:
  // Allocates the ledger frame (owner kPramMeta) and commits `initial` as
  // generation 1.
  static Result<TransplantLedger> Create(PhysicalMemory& ram, LedgerRecord initial);

  // Attaches to an existing ledger frame (post-reboot recovery handshake).
  // Validates the page magic; does not require any slot to be valid — Read()
  // reports that separately so a torn final commit is distinguishable from a
  // missing ledger.
  static Result<TransplantLedger> Open(PhysicalMemory& ram, Mfn frame);

  // Writes `record` (its generation is overwritten with the next one) into
  // the slot chosen by generation parity. The other slot is untouched.
  Result<void> Commit(LedgerRecord record);

  // Decodes both slots and returns the valid record with the highest
  // generation; kDataLoss if neither slot survives CRC.
  Result<LedgerRecord> Read() const;

  // Crash-time inspection: classifies the page into a CrashLedgerState and
  // the salvage decision it authorizes. Unlike Read(), this distinguishes "no
  // newer write" from "newer write torn by the crash" — the difference
  // between a legal rollback and stale-state resurrection. A ledger frame
  // that was freed or scrubbed assesses as kScrubbed.
  Result<SalvageAssessment> Assess() const;

  Mfn frame() const { return frame_; }
  uint32_t generation() const { return generation_; }

  // Byte offset of the slot a given generation was written to — used by
  // fault-injection tests to tear a specific commit.
  static size_t SlotOffset(uint32_t generation);
  static size_t SlotSize();

 private:
  TransplantLedger(PhysicalMemory& ram, Mfn frame, uint32_t generation)
      : ram_(&ram), frame_(frame), generation_(generation) {}

  PhysicalMemory* ram_;
  Mfn frame_ = 0;
  uint32_t generation_ = 0;  // Highest generation written or observed.
};

}  // namespace hypertp

#endif  // HYPERTP_SRC_PRAM_LEDGER_H_
