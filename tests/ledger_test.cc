// Unit tests for the transplant ledger: the single-frame PRAM phase record
// that lets a post-reboot kernel distinguish a healthy hand-off from a
// crashed transplant, and that authorizes (or refuses) a rollback.

#include <gtest/gtest.h>

#include <algorithm>

#include "src/hw/physical_memory.h"
#include "src/pram/ledger.h"

namespace hypertp {
namespace {

LedgerRecord StagedRecord() {
  LedgerRecord r;
  r.phase = TransplantPhase::kStaged;
  r.source_kind = 0;  // kXen
  r.target_kind = 1;  // kKvm
  return r;
}

TEST(TransplantLedgerTest, CreateCommitRead) {
  PhysicalMemory ram(16 << 20);
  auto ledger = TransplantLedger::Create(ram, StagedRecord());
  ASSERT_TRUE(ledger.ok()) << ledger.error().ToString();
  EXPECT_NE(ledger->frame(), 0u);
  EXPECT_EQ(ledger->generation(), 1u);

  auto read = ledger->Read();
  ASSERT_TRUE(read.ok()) << read.error().ToString();
  EXPECT_EQ(read->phase, TransplantPhase::kStaged);
  EXPECT_EQ(read->generation, 1u);
  EXPECT_EQ(read->source_kind, 0);
  EXPECT_EQ(read->target_kind, 1);
}

TEST(TransplantLedgerTest, CommitsAdvanceGenerationAndAlternateSlots) {
  PhysicalMemory ram(16 << 20);
  auto ledger = TransplantLedger::Create(ram, StagedRecord());
  ASSERT_TRUE(ledger.ok());

  LedgerRecord record = StagedRecord();
  record.phase = TransplantPhase::kTranslated;
  record.vm_count = 4;
  ASSERT_TRUE(ledger->Commit(record).ok());
  EXPECT_EQ(ledger->generation(), 2u);

  record.phase = TransplantPhase::kCommitted;
  record.pram_root = 0x1234;
  ASSERT_TRUE(ledger->Commit(record).ok());
  EXPECT_EQ(ledger->generation(), 3u);
  // Consecutive generations land in different slots (A/B alternation).
  EXPECT_NE(TransplantLedger::SlotOffset(2), TransplantLedger::SlotOffset(3));
  EXPECT_EQ(TransplantLedger::SlotOffset(1), TransplantLedger::SlotOffset(3));

  auto read = ledger->Read();
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->phase, TransplantPhase::kCommitted);
  EXPECT_EQ(read->generation, 3u);
  EXPECT_EQ(read->pram_root, 0x1234u);
  EXPECT_EQ(read->vm_count, 4u);
}

TEST(TransplantLedgerTest, OpenSeesLatestCommit) {
  // Models the post-reboot handshake: a fresh kernel opens the ledger frame
  // named on the kexec cmdline and must see the last committed record.
  PhysicalMemory ram(16 << 20);
  auto ledger = TransplantLedger::Create(ram, StagedRecord());
  ASSERT_TRUE(ledger.ok());
  LedgerRecord record = StagedRecord();
  record.phase = TransplantPhase::kCommitted;
  record.pram_root = 0x42;
  ASSERT_TRUE(ledger->Commit(record).ok());

  auto opened = TransplantLedger::Open(ram, ledger->frame());
  ASSERT_TRUE(opened.ok()) << opened.error().ToString();
  EXPECT_EQ(opened->generation(), ledger->generation());
  auto read = opened->Read();
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->phase, TransplantPhase::kCommitted);
  EXPECT_EQ(read->pram_root, 0x42u);
  // And the reopened ledger keeps committing from where it left off.
  record.phase = TransplantPhase::kRolledBack;
  ASSERT_TRUE(opened->Commit(record).ok());
  EXPECT_EQ(opened->Read()->phase, TransplantPhase::kRolledBack);
}

TEST(TransplantLedgerTest, TornSlotFallsBackToPreviousGeneration) {
  PhysicalMemory ram(16 << 20);
  auto ledger = TransplantLedger::Create(ram, StagedRecord());
  ASSERT_TRUE(ledger.ok());
  LedgerRecord record = StagedRecord();
  record.phase = TransplantPhase::kTranslated;
  ASSERT_TRUE(ledger->Commit(record).ok());  // Generation 2.
  record.phase = TransplantPhase::kCommitted;
  ASSERT_TRUE(ledger->Commit(record).ok());  // Generation 3.

  // Tear generation 3's slot: Read() must fall back to generation 2 instead
  // of returning a half-written kCommitted record.
  auto page = ram.BackedExtent(ledger->frame(), 1);
  ASSERT_TRUE(page.ok());
  (*page)[TransplantLedger::SlotOffset(3) + 2] ^= 0xFF;

  auto read = ledger->Read();
  ASSERT_TRUE(read.ok()) << read.error().ToString();
  EXPECT_EQ(read->generation, 2u);
  EXPECT_EQ(read->phase, TransplantPhase::kTranslated);
}

TEST(TransplantLedgerTest, BothSlotsTornIsDetectedDataLoss) {
  PhysicalMemory ram(16 << 20);
  auto ledger = TransplantLedger::Create(ram, StagedRecord());
  ASSERT_TRUE(ledger.ok());
  LedgerRecord record = StagedRecord();
  record.phase = TransplantPhase::kTranslated;
  ASSERT_TRUE(ledger->Commit(record).ok());

  auto page = ram.BackedExtent(ledger->frame(), 1);
  ASSERT_TRUE(page.ok());
  (*page)[TransplantLedger::SlotOffset(1) + 2] ^= 0xFF;
  (*page)[TransplantLedger::SlotOffset(2) + 2] ^= 0xFF;

  auto read = ledger->Read();
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.error().code(), ErrorCode::kDataLoss);
}

TEST(TransplantLedgerTest, AssessCleanCommitAuthorizesSalvage) {
  PhysicalMemory ram(16 << 20);
  auto ledger = TransplantLedger::Create(ram, StagedRecord());
  ASSERT_TRUE(ledger.ok());
  LedgerRecord record = StagedRecord();
  record.phase = TransplantPhase::kTranslated;
  ASSERT_TRUE(ledger->Commit(record).ok());  // Generation 2.
  record.phase = TransplantPhase::kCommitted;
  record.pram_root = 0xBEEF;
  ASSERT_TRUE(ledger->Commit(record).ok());  // Generation 3.

  auto assessment = ledger->Assess();
  ASSERT_TRUE(assessment.ok()) << assessment.error().ToString();
  EXPECT_EQ(assessment->state, CrashLedgerState::kCleanCommit);
  EXPECT_EQ(assessment->decision, SalvageDecision::kSalvageFromImage);
  EXPECT_FALSE(assessment->torn_newer_write);
  ASSERT_TRUE(assessment->record.has_value());
  EXPECT_EQ(assessment->record->pram_root, 0xBEEFu);
}

// The satellite regression: a crash lands *between* the A/B generation-slot
// commit and the phase bracketing. The newest slot is fully committed
// (CRC-valid), but its phase record still says pre-pause — the image was
// never sealed. Salvaging from it would restore half-saved guest state;
// Assess() must refuse rollback and point recovery at the live state.
TEST(TransplantLedgerTest, AssessRefusesRollbackWhenNewestCommitIsPrePause) {
  PhysicalMemory ram(16 << 20);
  auto ledger = TransplantLedger::Create(ram, StagedRecord());
  ASSERT_TRUE(ledger.ok());
  LedgerRecord record = StagedRecord();
  record.phase = TransplantPhase::kTranslated;  // Paused + serialized, but the
  record.vm_count = 4;                          // kCommitted bracket never landed.
  ASSERT_TRUE(ledger->Commit(record).ok());     // Generation 2 — newest slot.

  auto assessment = ledger->Assess();
  ASSERT_TRUE(assessment.ok()) << assessment.error().ToString();
  EXPECT_EQ(assessment->state, CrashLedgerState::kPrePause);
  EXPECT_EQ(assessment->decision, SalvageDecision::kRecoverLive);
  EXPECT_NE(assessment->reason.find("does not authorize rollback"), std::string::npos)
      << assessment->reason;
}

// Hand-built torn ledger frame: the crash tore the write of generation 3
// (the save in flight) over a pre-commit base. Read() falls back to the old
// record; Assess() must see the torn newer write and refuse the half-saved
// image instead of salvaging it.
TEST(TransplantLedgerTest, AssessDetectsTornSaveOverPreCommitBase) {
  PhysicalMemory ram(16 << 20);
  auto ledger = TransplantLedger::Create(ram, StagedRecord());
  ASSERT_TRUE(ledger.ok());
  LedgerRecord record = StagedRecord();
  record.phase = TransplantPhase::kTranslated;
  ASSERT_TRUE(ledger->Commit(record).ok());  // Generation 2.
  record.phase = TransplantPhase::kCommitted;
  record.pram_root = 0x1234;
  ASSERT_TRUE(ledger->Commit(record).ok());  // Generation 3.

  auto page = ram.BackedExtent(ledger->frame(), 1);
  ASSERT_TRUE(page.ok());
  (*page)[TransplantLedger::SlotOffset(3) + 2] ^= 0xFF;  // Tear generation 3.

  // Read() alone would report generation 2 / kTranslated as if nothing newer
  // ever happened — exactly the ambiguity Assess() exists to resolve.
  auto read = ledger->Read();
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->generation, 2u);

  auto assessment = ledger->Assess();
  ASSERT_TRUE(assessment.ok()) << assessment.error().ToString();
  EXPECT_TRUE(assessment->torn_newer_write);
  EXPECT_EQ(assessment->state, CrashLedgerState::kMidSaveTorn);
  EXPECT_EQ(assessment->decision, SalvageDecision::kRecoverLive);
  EXPECT_NE(assessment->reason.find("does not authorize rollback"), std::string::npos)
      << assessment->reason;
}

// Stale-generation salvage hazard: the newest *valid* record is a committed
// image, but a torn write of an even newer generation sits on top of it —
// a later transplant superseded that image mid-commit. Its currency cannot
// be proven, so the honest answer is data loss, not a silent rollback into
// stale guest state.
TEST(TransplantLedgerTest, AssessRefusesStaleCommitUnderTornNewerWrite) {
  PhysicalMemory ram(16 << 20);
  auto ledger = TransplantLedger::Create(ram, StagedRecord());
  ASSERT_TRUE(ledger.ok());
  LedgerRecord record = StagedRecord();
  record.phase = TransplantPhase::kCommitted;
  record.pram_root = 0x5678;
  ASSERT_TRUE(ledger->Commit(record).ok());  // Generation 2: committed image.
  record.phase = TransplantPhase::kComplete;
  ASSERT_TRUE(ledger->Commit(record).ok());  // Generation 3: supersedes it...

  auto page = ram.BackedExtent(ledger->frame(), 1);
  ASSERT_TRUE(page.ok());
  (*page)[TransplantLedger::SlotOffset(3) + 2] ^= 0xFF;  // ...but tore mid-write.

  auto assessment = ledger->Assess();
  ASSERT_TRUE(assessment.ok()) << assessment.error().ToString();
  EXPECT_TRUE(assessment->torn_newer_write);
  EXPECT_EQ(assessment->state, CrashLedgerState::kStaleCommit);
  EXPECT_EQ(assessment->decision, SalvageDecision::kDataLoss);
}

TEST(TransplantLedgerTest, AssessBothSlotsTornIsScrubbed) {
  PhysicalMemory ram(16 << 20);
  auto ledger = TransplantLedger::Create(ram, StagedRecord());
  ASSERT_TRUE(ledger.ok());
  LedgerRecord record = StagedRecord();
  record.phase = TransplantPhase::kTranslated;
  ASSERT_TRUE(ledger->Commit(record).ok());

  auto page = ram.BackedExtent(ledger->frame(), 1);
  ASSERT_TRUE(page.ok());
  (*page)[TransplantLedger::SlotOffset(1) + 2] ^= 0xFF;
  (*page)[TransplantLedger::SlotOffset(2) + 2] ^= 0xFF;

  auto assessment = ledger->Assess();
  ASSERT_TRUE(assessment.ok());
  EXPECT_EQ(assessment->state, CrashLedgerState::kScrubbed);
  EXPECT_EQ(assessment->decision, SalvageDecision::kDataLoss);
  EXPECT_FALSE(assessment->record.has_value());
}

TEST(TransplantLedgerTest, DecideSalvageTableIsTotal) {
  EXPECT_EQ(DecideSalvage(CrashLedgerState::kCleanCommit), SalvageDecision::kSalvageFromImage);
  EXPECT_EQ(DecideSalvage(CrashLedgerState::kPrePause), SalvageDecision::kRecoverLive);
  EXPECT_EQ(DecideSalvage(CrashLedgerState::kMidSaveTorn), SalvageDecision::kRecoverLive);
  EXPECT_EQ(DecideSalvage(CrashLedgerState::kStaleCommit), SalvageDecision::kDataLoss);
  EXPECT_EQ(DecideSalvage(CrashLedgerState::kScrubbed), SalvageDecision::kDataLoss);
}

TEST(TransplantLedgerTest, OpenRejectsNonLedgerFrame) {
  PhysicalMemory ram(16 << 20);
  auto frame = ram.AllocFrame(FrameOwner{FrameOwnerKind::kPramMeta, 7});
  ASSERT_TRUE(frame.ok());
  auto page = ram.BackExtent(*frame, 1);
  ASSERT_TRUE(page.ok());
  std::fill_n(page->begin(), 64, uint8_t{0xAB});
  EXPECT_FALSE(TransplantLedger::Open(ram, *frame).ok());
}

TEST(TransplantLedgerTest, SurvivesScrubWhenPreserved) {
  // The micro-reboot path preserves the ledger frame by cmdline pointer;
  // everything else is scrubbed. The record must still read back.
  PhysicalMemory ram(16 << 20);
  auto ledger = TransplantLedger::Create(ram, StagedRecord());
  ASSERT_TRUE(ledger.ok());
  LedgerRecord record = StagedRecord();
  record.phase = TransplantPhase::kCommitted;
  record.pram_root = 0x77;
  ASSERT_TRUE(ledger->Commit(record).ok());

  // Unrelated allocation that the scrub should reclaim.
  ASSERT_TRUE(ram.Alloc(32, 1, FrameOwner{FrameOwnerKind::kVmm, 9}).ok());
  const FrameOwner ledger_owner = ram.OwnerOf(ledger->frame()).value();
  ram.ScrubExcept({FrameExtent{ledger->frame(), 1, ledger_owner}});

  auto opened = TransplantLedger::Open(ram, ledger->frame());
  ASSERT_TRUE(opened.ok()) << opened.error().ToString();
  auto read = opened->Read();
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->phase, TransplantPhase::kCommitted);
  EXPECT_EQ(read->pram_root, 0x77u);
  EXPECT_TRUE(ram.ExtentsOfKind(FrameOwnerKind::kVmm).empty());
}

}  // namespace
}  // namespace hypertp
