#include "src/pram/ledger.h"

#include <optional>
#include <span>
#include <string>

#include "src/base/bytes.h"
#include "src/base/crc32.h"
#include "src/base/logging.h"

namespace hypertp {
namespace {

constexpr uint32_t kLedgerMagic = 0x474C5054;  // "TPLG"
constexpr uint32_t kLedgerVersion = 1;

// Page header: magic u32 + version u32.
constexpr size_t kHeaderSize = 8;
// Slot payload: generation u32 + phase u8 + source u8 + target u8 + reserved
// u8 + pram_root u64 + vm_count u32; followed by crc u32 over the payload.
constexpr size_t kSlotPayloadSize = 20;
constexpr size_t kSlotSize = kSlotPayloadSize + 4;

// Writes `record` and its CRC into the slot at `offset` of the ledger page.
void EncodeSlot(const LedgerRecord& record, std::span<uint8_t> page, size_t offset) {
  const std::span<uint8_t> slot = page.subspan(offset, kSlotSize);
  SpanWriter w(slot);
  w.PutU32(record.generation);
  w.PutU8(static_cast<uint8_t>(record.phase));
  w.PutU8(record.source_kind);
  w.PutU8(record.target_kind);
  w.PutU8(0);
  w.PutU64(record.pram_root);
  w.PutU32(record.vm_count);
  w.PutU32(Crc32(slot.first(kSlotPayloadSize)));
}

// Decodes one slot; nullopt if the slot was never written or its CRC fails.
std::optional<LedgerRecord> DecodeSlot(std::span<const uint8_t> page, size_t offset) {
  if (page.size() < offset + kSlotSize) {
    return std::nullopt;
  }
  const std::span<const uint8_t> slot = page.subspan(offset, kSlotSize);
  const auto u32 = [&slot](size_t at) {
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(slot[at + static_cast<size_t>(i)]) << (8 * i);
    }
    return v;
  };
  const auto u64 = [&slot](size_t at) {
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(slot[at + static_cast<size_t>(i)]) << (8 * i);
    }
    return v;
  };
  LedgerRecord record;
  record.generation = u32(0);
  record.phase = static_cast<TransplantPhase>(slot[4]);
  record.source_kind = slot[5];
  record.target_kind = slot[6];
  record.pram_root = u64(8);
  record.vm_count = u32(16);
  const uint32_t stored_crc = u32(kSlotPayloadSize);
  if (record.generation == 0 || Crc32(slot.subspan(0, kSlotPayloadSize)) != stored_crc) {
    return std::nullopt;
  }
  return record;
}

// The ledger page's bytes where they lie; empty once the frame was freed or
// scrubbed, which reads as two unwritten slots.
std::span<const uint8_t> PageOf(const PhysicalMemory& ram, Mfn frame) {
  auto page = ram.BackedExtent(frame, 1);
  return page.ok() ? *page : std::span<const uint8_t>{};
}

// Best (highest-generation) valid record in the page, if any.
std::optional<LedgerRecord> BestSlot(std::span<const uint8_t> page) {
  std::optional<LedgerRecord> best;
  for (int slot = 0; slot < 2; ++slot) {
    std::optional<LedgerRecord> record =
        DecodeSlot(page, kHeaderSize + static_cast<size_t>(slot) * kSlotSize);
    if (record && (!best || record->generation > best->generation)) {
      best = record;
    }
  }
  return best;
}

// True when the slot region carries any nonzero byte — i.e. a write landed
// there at some point, whether or not it decodes.
bool SlotLooksWritten(std::span<const uint8_t> page, size_t offset) {
  if (page.size() < offset + kSlotSize) {
    return false;
  }
  const std::span<const uint8_t> slot = page.subspan(offset, kSlotSize);
  return std::any_of(slot.begin(), slot.end(), [](uint8_t b) { return b != 0; });
}

bool CommitAuthorizesRollback(TransplantPhase phase) {
  // kCommitted is the point of no return; kRestored means the target restored
  // the VMs from the image but never resumed them — the image is unconsumed
  // and still governs.
  return phase == TransplantPhase::kCommitted || phase == TransplantPhase::kRestored;
}

}  // namespace

std::string_view TransplantPhaseName(TransplantPhase phase) {
  switch (phase) {
    case TransplantPhase::kIdle:
      return "idle";
    case TransplantPhase::kStaged:
      return "staged";
    case TransplantPhase::kTranslated:
      return "translated";
    case TransplantPhase::kCommitted:
      return "committed";
    case TransplantPhase::kRestored:
      return "restored";
    case TransplantPhase::kComplete:
      return "complete";
    case TransplantPhase::kRolledBack:
      return "rolled_back";
  }
  return "unknown";
}

std::string_view SalvageDecisionName(SalvageDecision decision) {
  switch (decision) {
    case SalvageDecision::kSalvageFromImage:
      return "salvage_from_image";
    case SalvageDecision::kRecoverLive:
      return "recover_live";
    case SalvageDecision::kDataLoss:
      return "data_loss";
  }
  return "unknown";
}

std::string_view CrashLedgerStateName(CrashLedgerState state) {
  switch (state) {
    case CrashLedgerState::kCleanCommit:
      return "clean_commit";
    case CrashLedgerState::kPrePause:
      return "pre_pause";
    case CrashLedgerState::kMidSaveTorn:
      return "mid_save_torn";
    case CrashLedgerState::kStaleCommit:
      return "stale_commit";
    case CrashLedgerState::kScrubbed:
      return "scrubbed";
  }
  return "unknown";
}

SalvageDecision DecideSalvage(CrashLedgerState state) {
  switch (state) {
    case CrashLedgerState::kCleanCommit:
      return SalvageDecision::kSalvageFromImage;
    case CrashLedgerState::kPrePause:
    case CrashLedgerState::kMidSaveTorn:
      return SalvageDecision::kRecoverLive;
    case CrashLedgerState::kStaleCommit:
    case CrashLedgerState::kScrubbed:
      return SalvageDecision::kDataLoss;
  }
  return SalvageDecision::kDataLoss;
}

Result<TransplantLedger> TransplantLedger::Create(PhysicalMemory& ram, LedgerRecord initial) {
  HYPERTP_ASSIGN_OR_RETURN(Mfn frame, ram.AllocFrame(FrameOwner{FrameOwnerKind::kPramMeta, 0}));
  HYPERTP_ASSIGN_OR_RETURN(std::span<uint8_t> page, ram.BackExtent(frame, 1));
  SpanWriter header(page);
  header.PutU32(kLedgerMagic);
  header.PutU32(kLedgerVersion);

  TransplantLedger ledger(ram, frame, 0);
  HYPERTP_RETURN_IF_ERROR(ledger.Commit(initial));
  return ledger;
}

Result<TransplantLedger> TransplantLedger::Open(PhysicalMemory& ram, Mfn frame) {
  const std::span<const uint8_t> page = PageOf(ram, frame);
  if (page.empty()) {
    return DataLossError("transplant ledger at mfn " + std::to_string(frame) +
                         " is empty or scrubbed");
  }
  ByteReader r(page);
  HYPERTP_ASSIGN_OR_RETURN(uint32_t magic, r.ReadU32());
  HYPERTP_ASSIGN_OR_RETURN(uint32_t version, r.ReadU32());
  if (magic != kLedgerMagic) {
    return DataLossError("transplant ledger: bad magic at mfn " + std::to_string(frame));
  }
  if (version != kLedgerVersion) {
    return DataLossError("transplant ledger: unsupported version " + std::to_string(version));
  }
  const std::optional<LedgerRecord> best = BestSlot(page);
  return TransplantLedger(ram, frame, best ? best->generation : 0);
}

Result<void> TransplantLedger::Commit(LedgerRecord record) {
  auto page = ram_->BackedExtent(frame_, 1);
  if (!page.ok()) {
    return FailedPreconditionError("transplant ledger at mfn " + std::to_string(frame_) +
                                   " was freed");
  }
  record.generation = generation_ + 1;
  EncodeSlot(record, *page, SlotOffset(record.generation));
  generation_ = record.generation;
  HYPERTP_LOG(kDebug, "ledger") << "committed generation " << generation_ << " phase "
                                << TransplantPhaseName(record.phase);
  return {};
}

Result<LedgerRecord> TransplantLedger::Read() const {
  const std::optional<LedgerRecord> best = BestSlot(PageOf(*ram_, frame_));
  if (!best) {
    return DataLossError("transplant ledger: no valid commit record (torn write?)");
  }
  return *best;
}

Result<SalvageAssessment> TransplantLedger::Assess() const {
  const std::span<const uint8_t> page = PageOf(*ram_, frame_);
  SalvageAssessment assessment;
  const std::optional<LedgerRecord> best = BestSlot(page);
  if (!best) {
    assessment.state = CrashLedgerState::kScrubbed;
    assessment.decision = DecideSalvage(assessment.state);
    assessment.reason =
        "no valid commit record survives CRC (slots torn, scrubbed or never "
        "written); the page does not authorize rollback";
    return assessment;
  }
  assessment.record = *best;
  // The slot the *next* generation would have been written to: nonzero bytes
  // there that do not decode as a valid record of any generation are the
  // fingerprint of a commit torn by the crash. (A valid older record in that
  // slot is the normal A/B steady state, not a torn write.)
  const size_t other_offset = SlotOffset(best->generation + 1);
  assessment.torn_newer_write =
      !DecodeSlot(page, other_offset).has_value() && SlotLooksWritten(page, other_offset);

  const std::string phase_name(TransplantPhaseName(best->phase));
  if (assessment.torn_newer_write) {
    if (CommitAuthorizesRollback(best->phase)) {
      // The crash tore a write *newer* than a committed image: a later
      // transplant superseded it, so the image's currency cannot be proven.
      // Salvaging it would silently resurrect stale guest state.
      assessment.state = CrashLedgerState::kStaleCommit;
      assessment.reason = "committed generation " + std::to_string(best->generation) +
                          " is superseded by a torn newer write; the stale image "
                          "does not authorize rollback";
    } else {
      assessment.state = CrashLedgerState::kMidSaveTorn;
      assessment.reason = "crash tore the save in flight over phase '" + phase_name +
                          "'; the half-saved image does not authorize rollback";
    }
  } else if (CommitAuthorizesRollback(best->phase)) {
    assessment.state = CrashLedgerState::kCleanCommit;
    assessment.reason = "generation " + std::to_string(best->generation) + " phase '" +
                        phase_name + "' cleanly committed; rollback from the image is legal";
  } else {
    assessment.state = CrashLedgerState::kPrePause;
    assessment.reason = "transplant ledger phase '" + phase_name +
                        "' does not authorize rollback (commit record torn or missing); "
                        "live guest state is authoritative";
  }
  assessment.decision = DecideSalvage(assessment.state);
  return assessment;
}

size_t TransplantLedger::SlotOffset(uint32_t generation) {
  return kHeaderSize + static_cast<size_t>(generation % 2) * kSlotSize;
}

size_t TransplantLedger::SlotSize() { return kSlotSize; }

}  // namespace hypertp
