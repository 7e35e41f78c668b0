// Speculative pre-translation (src/pipeline/pretranslate.h) and its wiring
// through InPlaceTransplant:
//  - state generations: bump on guest-visible events, never on
//    pause/resume/save, on all three hypervisors;
//  - reconcile byte-identity: hit, patched and re-encoded blobs, reconciled
//    in their parked PRAM frames, all equal a from-scratch encode of the
//    fresh extraction;
//  - golden behaviour: pre_translate=false is indistinguishable from the
//    legacy pipeline (no new report/JSON/trace artifacts), and a fully-clean
//    cache produces the same UISR bytes and restored guests;
//  - invalidation matrix: 0% / 50% / 100% of the fleet dirtied between the
//    speculative pass and the pause;
//  - observability: per-VM pre_translate spans and the metrics counters.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/factory.h"
#include "src/core/inplace.h"
#include "src/core/report.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/pipeline/conversion.h"
#include "src/pipeline/pretranslate.h"
#include "src/pram/pram.h"
#include "src/sim/rng.h"
#include "src/uisr/codec.h"

namespace hypertp {
namespace {

std::unique_ptr<Machine> MakeM1(uint64_t id) {
  return std::make_unique<Machine>(MachineProfile::M1(), id);
}

std::vector<VmId> PopulateVms(Hypervisor& hv, int n, uint64_t first_uid) {
  std::vector<VmId> ids;
  for (int i = 0; i < n; ++i) {
    VmConfig config = VmConfig::Small("pre-" + std::to_string(i));
    config.uid = first_uid + static_cast<uint64_t>(i);  // Pinned across runs.
    auto id = hv.CreateVm(config);
    EXPECT_TRUE(id.ok()) << id.error().ToString();
    for (Gfn gfn : {Gfn{0}, Gfn{1234}, Gfn{99999}}) {
      EXPECT_TRUE(hv.WriteGuestPage(*id, gfn, 0xF00D0000 + gfn).ok());
    }
    ids.push_back(*id);
  }
  return ids;
}

// --- State generation semantics, per hypervisor ----------------------------

class StateGenerationTest : public ::testing::TestWithParam<HypervisorKind> {};

TEST_P(StateGenerationTest, BumpsOnGuestVisibleEventsOnly) {
  auto machine = MakeM1(1);
  std::unique_ptr<Hypervisor> hv = MakeHypervisor(GetParam(), *machine);
  ASSERT_NE(hv, nullptr);
  auto id = hv->CreateVm(VmConfig::Small("gen"));
  ASSERT_TRUE(id.ok());

  auto gen = [&] { return hv->StateGeneration(*id).value(); };
  const uint64_t base = gen();

  // Pause / save / resume never move the generation: a snapshot taken under
  // a micro-pause stays valid until the guest itself runs again.
  ASSERT_TRUE(hv->PauseVm(*id).ok());
  FixupLog log;
  ASSERT_TRUE(hv->SaveVmToUisr(*id, &log).ok());
  ASSERT_TRUE(hv->ResumeVm(*id).ok());
  EXPECT_EQ(gen(), base);

  // Guest-visible changes each bump it.
  ASSERT_TRUE(hv->WriteGuestPage(*id, 5, 0xBEEF).ok());
  EXPECT_EQ(gen(), base + 1);
  ASSERT_TRUE(hv->AdvanceGuestClocks(*id, Millis(3)).ok());
  EXPECT_EQ(gen(), base + 2);
  for (auto kind : {Hypervisor::GuestEventKind::kTimerTick,
                    Hypervisor::GuestEventKind::kEventChannel,
                    Hypervisor::GuestEventKind::kWorkloadStep}) {
    ASSERT_TRUE(hv->InjectGuestEvent(*id, kind).ok());
  }
  EXPECT_EQ(gen(), base + 5);

  // Events need a running guest; a paused one cannot execute anything.
  ASSERT_TRUE(hv->PauseVm(*id).ok());
  auto injected = hv->InjectGuestEvent(*id, Hypervisor::GuestEventKind::kTimerTick);
  EXPECT_FALSE(injected.ok());
  EXPECT_EQ(gen(), base + 5);
}

TEST_P(StateGenerationTest, WorkloadStepChangesTheEncodedUisr) {
  auto machine = MakeM1(2);
  std::unique_ptr<Hypervisor> hv = MakeHypervisor(GetParam(), *machine);
  ASSERT_NE(hv, nullptr);
  auto id = hv->CreateVm(VmConfig::Small("gen-uisr"));
  ASSERT_TRUE(id.ok());

  auto extract = [&] {
    EXPECT_TRUE(hv->PauseVm(*id).ok());
    FixupLog log;
    auto state = hv->SaveVmToUisr(*id, &log);
    EXPECT_TRUE(state.ok());
    EXPECT_TRUE(hv->ResumeVm(*id).ok());
    return EncodeUisrVm(*state);
  };
  const std::vector<uint8_t> before = extract();
  ASSERT_TRUE(hv->InjectGuestEvent(*id, Hypervisor::GuestEventKind::kWorkloadStep).ok());
  EXPECT_NE(extract(), before);
}

INSTANTIATE_TEST_SUITE_P(AllHosts, StateGenerationTest,
                         ::testing::Values(HypervisorKind::kXen, HypervisorKind::kKvm,
                                           HypervisorKind::kBhyve));

// --- Reconcile byte-identity ------------------------------------------------

// Builds a cache entry the way InPlaceTransplant's PreTranslateVms call
// would, from the VM's current state, with the blob parked in `memory`.
pipeline::PreTranslatedVm SnapshotEntry(Hypervisor& hv, PhysicalMemory& memory, VmId id,
                                        uint64_t pram_file_id) {
  pipeline::PreTranslatedVm entry;
  EXPECT_TRUE(hv.PauseVm(id).ok());
  auto state = pipeline::ExtractVmState(hv, id, &entry.fixups);
  EXPECT_TRUE(state.ok());
  EXPECT_TRUE(hv.ResumeVm(id).ok());
  entry.vm_uid = state->vm_uid;
  entry.generation = hv.StateGeneration(id).value();
  entry.state = std::move(*state);
  entry.state.memory.pram_file_id = pram_file_id;
  entry.blob = EncodeUisrVm(entry.state, &entry.layout);
  entry.parked = pipeline::ParkUisrBlob(memory, entry.vm_uid, entry.blob).value();
  return entry;
}

// A reconcile in the parked frames, plus the PRAM bytes it left behind.
struct Reconciled {
  pipeline::ReconcileResult result;
  std::vector<uint8_t> bytes;
};

Reconciled Reconcile(PhysicalMemory& memory, const pipeline::PreTranslatedVm& entry,
                     const UisrVm& fresh) {
  PramBuilder builder(memory);
  auto rec = pipeline::ReconcilePreTranslated(memory, builder, entry, fresh);
  EXPECT_TRUE(rec.ok()) << rec.error().ToString();
  const FrameExtent& frames = rec->stored.frames;
  auto view = std::as_const(memory).BackedExtent(frames.base, frames.count);
  EXPECT_TRUE(view.ok());
  const auto bytes = view->first(rec->stored.bytes);
  return Reconciled{*rec, std::vector<uint8_t>(bytes.begin(), bytes.end())};
}

UisrVm FreshExtract(Hypervisor& hv, VmId id, uint64_t pram_file_id) {
  EXPECT_TRUE(hv.PauseVm(id).ok());
  FixupLog log;
  auto state = pipeline::ExtractVmState(hv, id, &log);
  EXPECT_TRUE(state.ok());
  EXPECT_TRUE(hv.ResumeVm(id).ok());
  state->memory.pram_file_id = pram_file_id;
  return *state;
}

TEST(ReconcileTest, CleanGuestIsAHitWithIdenticalBytes) {
  auto machine = MakeM1(3);
  std::unique_ptr<Hypervisor> xen = MakeHypervisor(HypervisorKind::kXen, *machine);
  auto id = xen->CreateVm(VmConfig::Small("clean"));
  ASSERT_TRUE(id.ok());
  const pipeline::PreTranslatedVm entry = SnapshotEntry(*xen, machine->memory(), *id, 77);

  // Nothing ran: the generation still matches (the transplant would not even
  // reconcile), and a reconcile pass confirms zero differing sections.
  EXPECT_EQ(xen->StateGeneration(*id).value(), entry.generation);
  const UisrVm fresh = FreshExtract(*xen, *id, 77);
  const Reconciled rec = Reconcile(machine->memory(), entry, fresh);
  EXPECT_EQ(rec.result.kind, pipeline::ReconcileKind::kHit);
  EXPECT_EQ(rec.result.patched_sections, 0u);
  EXPECT_EQ(rec.result.stored.frames.base, entry.parked.base);
  EXPECT_EQ(rec.bytes, EncodeUisrVm(fresh));
}

TEST(ReconcileTest, WorkloadStepPatchesOnlyDirtySections) {
  auto machine = MakeM1(4);
  std::unique_ptr<Hypervisor> xen = MakeHypervisor(HypervisorKind::kXen, *machine);
  VmConfig config = VmConfig::Small("dirty");
  config.vcpus = 4;
  auto id = xen->CreateVm(config);
  ASSERT_TRUE(id.ok());
  const pipeline::PreTranslatedVm entry = SnapshotEntry(*xen, machine->memory(), *id, 78);

  ASSERT_TRUE(xen->InjectGuestEvent(*id, Hypervisor::GuestEventKind::kWorkloadStep).ok());
  EXPECT_NE(xen->StateGeneration(*id).value(), entry.generation);

  const UisrVm fresh = FreshExtract(*xen, *id, 78);
  const Reconciled rec = Reconcile(machine->memory(), entry, fresh);
  EXPECT_EQ(rec.result.kind, pipeline::ReconcileKind::kPatched);
  // The workload step touched every vCPU's tsc but nothing else: only vCPU
  // sections are rewritten, a strict subset of the payload, in the parked
  // frames themselves.
  EXPECT_GT(rec.result.patched_sections, 0u);
  EXPECT_LT(rec.result.patched_bytes, rec.result.total_payload_bytes);
  EXPECT_EQ(rec.result.stored.frames.base, entry.parked.base);
  EXPECT_EQ(rec.bytes, EncodeUisrVm(fresh));
}

TEST(ReconcileTest, StructuralChangeFallsBackToReencode) {
  // A cached entry whose section structure no longer matches (vCPU count
  // changed) cannot be patched in place; the fallback is a full re-encode
  // that is still byte-identical to the from-scratch path.
  auto machine = MakeM1(5);
  std::unique_ptr<Hypervisor> xen = MakeHypervisor(HypervisorKind::kXen, *machine);
  VmConfig config = VmConfig::Small("structural");
  config.vcpus = 2;
  auto id = xen->CreateVm(config);
  ASSERT_TRUE(id.ok());
  pipeline::PreTranslatedVm entry = SnapshotEntry(*xen, machine->memory(), *id, 79);

  UisrVm fresh = FreshExtract(*xen, *id, 79);
  fresh.vcpus.pop_back();
  const Reconciled rec = Reconcile(machine->memory(), entry, fresh);
  EXPECT_EQ(rec.result.kind, pipeline::ReconcileKind::kReencoded);
  EXPECT_EQ(rec.bytes, EncodeUisrVm(fresh));
}

TEST(ReconcileTest, NonUisrActivityIsAFalsePositiveHit) {
  // A Xen PV event-channel flip bumps the generation (the guest observably
  // ran) without reaching any translated UISR section: the reconcile pass
  // discovers zero differing payloads and adopts the cached blob.
  auto machine = MakeM1(6);
  std::unique_ptr<Hypervisor> xen = MakeHypervisor(HypervisorKind::kXen, *machine);
  auto id = xen->CreateVm(VmConfig::Small("false-positive"));
  ASSERT_TRUE(id.ok());
  const pipeline::PreTranslatedVm entry = SnapshotEntry(*xen, machine->memory(), *id, 80);

  ASSERT_TRUE(xen->InjectGuestEvent(*id, Hypervisor::GuestEventKind::kEventChannel).ok());
  EXPECT_NE(xen->StateGeneration(*id).value(), entry.generation);

  const UisrVm fresh = FreshExtract(*xen, *id, 80);
  const Reconciled rec = Reconcile(machine->memory(), entry, fresh);
  EXPECT_EQ(rec.result.kind, pipeline::ReconcileKind::kHit);
  EXPECT_EQ(rec.bytes, entry.blob);
}

TEST(ReconcileTest, StaleGenerationBlobIsNeverSalvagedVerbatim) {
  // Crash-salvage hazard: a VM whose StateGeneration advanced after the last
  // PreTranslateVms snapshot must not be revived from the stale speculative
  // blob. Across a 0% / 50% / 100% dirty matrix, every VM whose generation
  // moved (and whose payload really changed) yields a reconciled blob that is
  // byte-identical to a fresh encode and different from the cached bytes.
  auto machine = MakeM1(8);
  std::unique_ptr<Hypervisor> xen = MakeHypervisor(HypervisorKind::kXen, *machine);
  const int kVms = 4;
  std::vector<VmId> ids = PopulateVms(*xen, kVms, 9300);

  for (const int dirty : {0, kVms / 2, kVms}) {
    std::vector<pipeline::PreTranslatedVm> entries;
    for (int i = 0; i < kVms; ++i) {
      entries.push_back(
          SnapshotEntry(*xen, machine->memory(), ids[static_cast<size_t>(i)], 90 + i));
    }
    for (int i = 0; i < dirty; ++i) {
      ASSERT_TRUE(xen->InjectGuestEvent(ids[static_cast<size_t>(i)],
                                        Hypervisor::GuestEventKind::kWorkloadStep)
                      .ok());
    }
    for (int i = 0; i < kVms; ++i) {
      const pipeline::PreTranslatedVm& entry = entries[static_cast<size_t>(i)];
      const uint64_t generation = xen->StateGeneration(ids[static_cast<size_t>(i)]).value();
      const UisrVm fresh = FreshExtract(*xen, ids[static_cast<size_t>(i)], 90 + i);
      const Reconciled rec = Reconcile(machine->memory(), entry, fresh);
      // The invariant that makes salvage safe: whatever the cache held, the
      // PRAM bytes equal a from-scratch encode of the *current* state.
      EXPECT_EQ(rec.bytes, EncodeUisrVm(fresh)) << "dirty=" << dirty << " vm=" << i;
      EXPECT_EQ(rec.result.stored.frames.base, entry.parked.base);
      if (i < dirty) {
        // Generation moved and the workload really rewrote payload bytes: the
        // stale blob must have been patched, not adopted.
        EXPECT_NE(generation, entry.generation);
        EXPECT_NE(rec.result.kind, pipeline::ReconcileKind::kHit);
        EXPECT_NE(rec.bytes, entry.blob);
      } else {
        EXPECT_EQ(generation, entry.generation);
        EXPECT_EQ(rec.result.kind, pipeline::ReconcileKind::kHit);
        EXPECT_EQ(rec.bytes, entry.blob);
      }
    }
  }
}

TEST(ReconcileTest, DeviceSizeChangeReencodesInTheParkedFramesOrAnew) {
  // A device whose opaque state changed size shifts the TLV lengths, so the
  // VM is re-encoded: into its parked frames while the frame count holds,
  // stored anew (freeing the parking) once it does not.
  // Either way the PRAM bytes equal a fresh encode and no kUisr frame leaks.
  auto machine = MakeM1(9);
  std::unique_ptr<Hypervisor> xen = MakeHypervisor(HypervisorKind::kXen, *machine);
  auto id = xen->CreateVm(VmConfig::Small("device-growth"));
  ASSERT_TRUE(id.ok());
  for (const size_t growth : {size_t{8}, 3 * kPageSize}) {
    const pipeline::PreTranslatedVm entry = SnapshotEntry(*xen, machine->memory(), *id, 81);
    UisrVm fresh = FreshExtract(*xen, *id, 81);
    ASSERT_FALSE(fresh.devices.empty());
    fresh.devices[0].opaque.resize(fresh.devices[0].opaque.size() + growth, 0x5A);
    const Reconciled rec = Reconcile(machine->memory(), entry, fresh);
    EXPECT_EQ(rec.result.kind, pipeline::ReconcileKind::kReencoded) << "growth=" << growth;
    EXPECT_EQ(rec.result.patched_bytes, rec.result.total_payload_bytes);
    EXPECT_EQ(rec.bytes, EncodeUisrVm(fresh)) << "growth=" << growth;
    const bool same_frames = growth < kPageSize;
    EXPECT_EQ(rec.result.stored.frames.count == entry.parked.count, same_frames);
    if (same_frames) {
      EXPECT_EQ(rec.result.stored.frames.base, entry.parked.base);
    }
    const std::vector<FrameExtent> uisr = machine->memory().ExtentsOfKind(FrameOwnerKind::kUisr);
    ASSERT_EQ(uisr.size(), 1u) << "growth=" << growth;
    EXPECT_EQ(uisr[0].base, rec.result.stored.frames.base);
    ASSERT_TRUE(machine->memory().Free(uisr[0].base, uisr[0].count).ok());
  }
}

TEST(ReconcileTest, RefusesAnEntryWithoutParkedFrames) {
  auto machine = MakeM1(10);
  std::unique_ptr<Hypervisor> xen = MakeHypervisor(HypervisorKind::kXen, *machine);
  auto id = xen->CreateVm(VmConfig::Small("unparked"));
  ASSERT_TRUE(id.ok());
  pipeline::PreTranslatedVm entry = SnapshotEntry(*xen, machine->memory(), *id, 82);
  entry.parked = FrameExtent{};
  PramBuilder builder(machine->memory());
  auto rec = pipeline::ReconcilePreTranslated(machine->memory(), builder, entry,
                                              FreshExtract(*xen, *id, 82));
  ASSERT_FALSE(rec.ok());
  EXPECT_EQ(rec.error().code(), ErrorCode::kFailedPrecondition);
}

// The charge a reconcile of `cached_blob` (laid out as `cached`) to `fresh`
// must report, from two full encodes: the payload bytes and count of the
// sections whose bytes differ when the (type, payload size) sequence holds,
// every cached payload byte (and no section count) when it does not.
struct ReferenceDiff {
  bool structural = false;
  size_t sections = 0;
  size_t bytes = 0;
  size_t total = 0;  // Payload bytes of the cached blob.
};

ReferenceDiff DiffEncodes(const std::vector<uint8_t>& cached_blob,
                          const UisrSectionLayout& cached, const UisrVm& fresh) {
  UisrSectionLayout layout;
  const std::vector<uint8_t> blob = EncodeUisrVm(fresh, &layout);
  ReferenceDiff diff;
  for (const UisrSectionSpan& span : cached.sections) {
    diff.total += span.payload_size;
  }
  diff.structural = layout.sections.size() != cached.sections.size();
  for (size_t i = 0; !diff.structural && i < cached.sections.size(); ++i) {
    diff.structural = layout.sections[i].type != cached.sections[i].type ||
                      layout.sections[i].payload_size != cached.sections[i].payload_size;
  }
  if (diff.structural) {
    diff.bytes = diff.total;
    return diff;
  }
  for (size_t i = 0; i < cached.sections.size(); ++i) {
    const UisrSectionSpan& was = cached.sections[i];
    const UisrSectionSpan& now = layout.sections[i];
    const auto old_payload = cached_blob.begin() + static_cast<ptrdiff_t>(was.payload_offset);
    const auto new_payload = blob.begin() + static_cast<ptrdiff_t>(now.payload_offset);
    if (!std::equal(old_payload, old_payload + static_cast<ptrdiff_t>(was.payload_size),
                    new_payload)) {
      ++diff.sections;
      diff.bytes += was.payload_size;
    }
  }
  return diff;
}

TEST(ReconcileTest, GeneratedEditsMatchAFreshEncode) {
  // Seeded edits between a parked snapshot and the pause-time extract, over
  // all three source hypervisors. Whatever the edit, the PRAM frames must
  // hold exactly a fresh encode (zero page padding after it), the charge
  // must equal a diff of two full encodes, the parked frames must be reused
  // exactly when the frame count holds, and one kUisr extent must remain.
  enum class Edit {
    kNone,
    kVcpuRegisters,
    kDeviceByteFlip,
    kGrowInLastFrame,
    kGrowAcrossPage,
    kShrinkInLastFrame,
    kShrinkAcrossPage,
    kVcpuCount,
    kDeviceCount,
  };
  constexpr int kEdits = 9;
  constexpr int kRounds = 9;  // 9 edits x 3 hypervisors x 9 rounds = 243 cases.
  Rng rng(0x5EC7);
  int cases = 0;
  int hits = 0;
  int patched = 0;
  int reencoded_in_place = 0;
  int restored_elsewhere = 0;
  for (HypervisorKind kind :
       {HypervisorKind::kXen, HypervisorKind::kKvm, HypervisorKind::kBhyve}) {
    auto machine = MakeM1(100 + static_cast<uint64_t>(kind));
    std::unique_ptr<Hypervisor> hv = MakeHypervisor(kind, *machine);
    ASSERT_NE(hv, nullptr);
    PhysicalMemory& memory = machine->memory();
    std::vector<UisrVm> bases;
    for (uint32_t vcpus : {1u, 2u, 4u}) {
      VmConfig config = VmConfig::Small("generated-" + std::to_string(vcpus));
      config.vcpus = vcpus;
      auto id = hv->CreateVm(config);
      ASSERT_TRUE(id.ok()) << id.error().ToString();
      bases.push_back(FreshExtract(*hv, *id, 200 + vcpus));
      ASSERT_FALSE(bases.back().devices.empty());
    }

    for (int round = 0; round < kRounds; ++round) {
      for (int e = 0; e < kEdits; ++e) {
        const Edit edit = static_cast<Edit>(e);
        SCOPED_TRACE("hypervisor " + std::string(HypervisorKindName(kind)) + " round " +
                     std::to_string(round) + " edit " + std::to_string(e));
        ++cases;

        // The snapshot: one device's opaque state padded by at least a page,
        // so the blob ends `used` bytes (2..page-1) into its last frame and a
        // shrink can cross a page boundary.
        pipeline::PreTranslatedVm entry;
        entry.state = bases[rng.NextBelow(bases.size())];
        entry.vm_uid = entry.state.vm_uid;
        const size_t padded = rng.NextBelow(entry.state.devices.size());
        const size_t used = static_cast<size_t>(rng.NextInRange(2, kPageSize - 1));
        const size_t base_tail = EncodedUisrSize(entry.state) % kPageSize;
        const size_t pad = (used + kPageSize - base_tail) % kPageSize +
                           kPageSize * static_cast<size_t>(rng.NextInRange(1, 2));
        std::vector<uint8_t>& pad_opaque = entry.state.devices[padded].opaque;
        pad_opaque.resize(pad_opaque.size() + pad, 0xC3);
        entry.blob = EncodeUisrVm(entry.state, &entry.layout);
        ASSERT_EQ(entry.blob.size() % kPageSize, used);
        const size_t slack = kPageSize - used;

        // A hole below the parking, large enough for any re-store, so a
        // re-store can never land on the parked base by first fit.
        const uint64_t frames = (entry.blob.size() + kPageSize - 1) / kPageSize;
        auto hole = memory.Alloc(frames + 8, 1, FrameOwner{FrameOwnerKind::kVmm, 0});
        ASSERT_TRUE(hole.ok()) << hole.error().ToString();
        entry.parked = pipeline::ParkUisrBlob(memory, entry.vm_uid, entry.blob).value();
        ASSERT_TRUE(memory.Free(*hole, frames + 8).ok());

        UisrVm fresh = entry.state;
        std::vector<uint8_t>& opaque = fresh.devices[padded].opaque;
        const auto resize_by = [&opaque](int64_t delta) {
          opaque.resize(static_cast<size_t>(static_cast<int64_t>(opaque.size()) + delta), 0x3C);
        };
        switch (edit) {
          case Edit::kNone:
            break;
          case Edit::kVcpuRegisters:
            for (UisrVcpu& vcpu : fresh.vcpus) {
              if (rng.NextBool(0.5)) {
                vcpu.regs.rip += 1 + rng.NextBelow(64);
                vcpu.regs.gpr[rng.NextBelow(vcpu.regs.gpr.size())] ^= rng.NextU64() | 1;
              }
            }
            fresh.vcpus[0].regs.rflags ^= 0x1;  // At least one vCPU changes.
            break;
          case Edit::kDeviceByteFlip: {
            UisrDeviceState& dev = fresh.devices[rng.NextBelow(fresh.devices.size())];
            if (dev.opaque.empty()) {
              dev.opaque.push_back(0);  // Becomes a structural change.
            } else {
              dev.opaque[rng.NextBelow(dev.opaque.size())] ^=
                  static_cast<uint8_t>(rng.NextInRange(1, 255));
            }
            break;
          }
          case Edit::kGrowInLastFrame:
            resize_by(rng.NextInRange(1, static_cast<int64_t>(slack)));
            break;
          case Edit::kGrowAcrossPage:
            resize_by(rng.NextInRange(static_cast<int64_t>(slack) + 1,
                                      static_cast<int64_t>(slack + 2 * kPageSize)));
            break;
          case Edit::kShrinkInLastFrame:
            resize_by(-rng.NextInRange(1, static_cast<int64_t>(used) - 1));
            break;
          case Edit::kShrinkAcrossPage:
            // The padding keeps the opaque state longer than `used`.
            resize_by(-rng.NextInRange(static_cast<int64_t>(used),
                                       static_cast<int64_t>(std::min(used + kPageSize,
                                                                     opaque.size()))));
            break;
          case Edit::kVcpuCount:
            if (fresh.vcpus.size() > 1 && rng.NextBool(0.5)) {
              fresh.vcpus.pop_back();
            } else {
              fresh.vcpus.push_back(fresh.vcpus.back());
              fresh.vcpus.back().id = static_cast<uint32_t>(fresh.vcpus.size() - 1);
            }
            break;
          case Edit::kDeviceCount:
            if (rng.NextBool(0.5)) {
              fresh.devices.erase(fresh.devices.begin() +
                                  static_cast<ptrdiff_t>(rng.NextBelow(fresh.devices.size())));
            } else {
              fresh.devices.push_back(fresh.devices.front());
              ++fresh.devices.back().instance;
            }
            break;
        }

        const std::vector<uint8_t> want = EncodeUisrVm(fresh);
        const ReferenceDiff diff = DiffEncodes(entry.blob, entry.layout, fresh);
        PramBuilder builder(memory);
        auto rec = pipeline::ReconcilePreTranslated(memory, builder, entry, fresh);
        ASSERT_TRUE(rec.ok()) << rec.error().ToString();

        const FrameExtent& stored = rec->stored.frames;
        const uint64_t want_frames = (want.size() + kPageSize - 1) / kPageSize;
        ASSERT_EQ(stored.count, want_frames);
        EXPECT_EQ(rec->stored.bytes, want.size());
        auto view = std::as_const(memory).BackedExtent(stored.base, stored.count);
        ASSERT_TRUE(view.ok()) << view.error().ToString();
        EXPECT_TRUE(std::equal(want.begin(), want.end(), view->begin()));
        EXPECT_TRUE(std::all_of(view->begin() + static_cast<ptrdiff_t>(want.size()),
                                view->end(), [](uint8_t b) { return b == 0; }));

        EXPECT_EQ(rec->total_payload_bytes, diff.total);
        EXPECT_EQ(rec->patched_bytes, diff.bytes);
        EXPECT_EQ(rec->patched_sections, diff.sections);
        EXPECT_EQ(rec->kind, diff.structural      ? pipeline::ReconcileKind::kReencoded
                             : diff.sections == 0 ? pipeline::ReconcileKind::kHit
                                                  : pipeline::ReconcileKind::kPatched);
        EXPECT_EQ(stored.base == entry.parked.base, want_frames == entry.parked.count);
        hits += rec->kind == pipeline::ReconcileKind::kHit ? 1 : 0;
        patched += rec->kind == pipeline::ReconcileKind::kPatched ? 1 : 0;
        if (rec->kind == pipeline::ReconcileKind::kReencoded) {
          (want_frames == entry.parked.count ? reencoded_in_place : restored_elsewhere) += 1;
        }
        if (edit == Edit::kGrowAcrossPage || edit == Edit::kShrinkAcrossPage) {
          EXPECT_NE(want_frames, entry.parked.count);
        }
        if (edit == Edit::kGrowInLastFrame || edit == Edit::kShrinkInLastFrame) {
          EXPECT_EQ(want_frames, entry.parked.count);
        }

        const std::vector<FrameExtent> uisr = memory.ExtentsOfKind(FrameOwnerKind::kUisr);
        ASSERT_EQ(uisr.size(), 1u);
        EXPECT_EQ(uisr[0].base, stored.base);
        ASSERT_TRUE(memory.Free(uisr[0].base, uisr[0].count).ok());
      }
    }
  }
  EXPECT_GE(cases, 200);
  // Every outcome of a reconcile was exercised.
  EXPECT_GT(hits, 0);
  EXPECT_GT(patched, 0);
  EXPECT_GT(reencoded_in_place, 0);
  EXPECT_GT(restored_elsewhere, 0);
}

// --- PreTranslateVms --------------------------------------------------------

TEST(PreTranslateVmsTest, SnapshotsEveryVmAndLeavesThemRunning) {
  auto machine = MakeM1(7);
  std::unique_ptr<Hypervisor> xen = MakeHypervisor(HypervisorKind::kXen, *machine);
  std::vector<VmId> ids = PopulateVms(*xen, 3, 9100);

  std::vector<pipeline::PreTranslateRequest> requests;
  for (VmId id : ids) {
    auto info = xen->GetVmInfo(id);
    ASSERT_TRUE(info.ok());
    requests.push_back(pipeline::PreTranslateRequest{id, info->uid, 50 + info->uid, info->vcpus,
                                                     info->memory_bytes});
  }
  pipeline::PreTranslationCache cache;
  auto schedule = pipeline::PreTranslateVms(*xen, machine->profile().costs, requests,
                                            machine->worker_threads(), 1, &cache);
  ASSERT_TRUE(schedule.ok()) << schedule.error().ToString();

  // One full translate cost per VM, laid out over the modeled workers — the
  // same charge the legacy pause-window translation would have made.
  EXPECT_EQ(schedule->tasks.size(), 3u);
  EXPECT_EQ(schedule->makespan,
            pipeline::TranslateStageCost(machine->profile().costs, 1, 1ull << 30));

  ASSERT_EQ(cache.vms.size(), 3u);
  for (size_t i = 0; i < ids.size(); ++i) {
    // All guests are running again (micro-pause only).
    EXPECT_EQ(xen->GetVmInfo(ids[i])->run_state, VmRunState::kRunning);
    const pipeline::PreTranslatedVm* entry = cache.Find(cache.vms[i].vm_uid);
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->generation, xen->StateGeneration(ids[i]).value());
    EXPECT_EQ(entry->state.memory.pram_file_id, requests[i].pram_file_id);
    // The blob is exactly what a pause-time encode of this state yields.
    EXPECT_EQ(entry->blob, EncodeUisrVm(entry->state));
    EXPECT_EQ(entry->layout.total_size, entry->blob.size());
  }
  EXPECT_EQ(cache.Find(424242), nullptr);
}

// --- Transplant integration -------------------------------------------------

struct MatrixRun {
  TransplantReport report;
  std::vector<uint64_t> guest_words;  // Restored guest memory samples.
};

MatrixRun RunTransplant(uint64_t machine_id, int vms, int dirty, bool pre_translate,
                        Tracer* tracer = nullptr, MetricsRegistry* metrics = nullptr) {
  Machine machine(MachineProfile::M1(), machine_id);
  std::unique_ptr<Hypervisor> xen = MakeHypervisor(HypervisorKind::kXen, machine);
  std::vector<VmId> ids = PopulateVms(*xen, vms, 9200);

  InPlaceOptions options;
  options.pre_translate = pre_translate;
  options.tracer = tracer;
  options.metrics = metrics;
  options.concurrent_activity = [dirty](Hypervisor& hv) {
    std::vector<VmId> running = hv.ListVms();
    for (int i = 0; i < dirty && i < static_cast<int>(running.size()); ++i) {
      EXPECT_TRUE(hv.InjectGuestEvent(running[i], Hypervisor::GuestEventKind::kWorkloadStep).ok());
    }
  };

  MatrixRun run;
  auto result = InPlaceTransplant::Run(std::move(xen), HypervisorKind::kKvm, options);
  EXPECT_TRUE(result.ok()) << result.error().ToString();
  if (!result.ok()) {
    return run;
  }
  run.report = result->report;
  for (VmId id : result->restored_vms) {
    for (Gfn gfn : {Gfn{0}, Gfn{1234}, Gfn{99999}}) {
      run.guest_words.push_back(result->hypervisor->ReadGuestPage(id, gfn).value());
    }
  }
  return run;
}

TEST(PreTranslateTransplantTest, LegacyModeEmitsNoPreTranslationArtifacts) {
  // pre_translate=false must look exactly like the pipeline before this
  // optimization existed: no phase time, no counters, no spans. The report
  // keeps one key set, so the JSON and text carry the zeros.
  Tracer tracer;
  const MatrixRun legacy = RunTransplant(10, 3, /*dirty=*/0, /*pre_translate=*/false, &tracer);
  EXPECT_FALSE(legacy.report.pre_translated);
  EXPECT_EQ(legacy.report.phases.pre_translation, 0);
  EXPECT_EQ(legacy.report.pretranslate_hits, 0);
  EXPECT_EQ(legacy.report.pretranslate_invalidations, 0);
  EXPECT_EQ(tracer.FindSpan("phase:pre_translation"), nullptr);

  const std::string json = TransplantReportToJson(legacy.report);
  EXPECT_NE(json.find(R"("pre_translation":0,)"), std::string::npos) << json;
  EXPECT_NE(json.find(R"("pretranslate_hits":0,"pretranslate_invalidations":0,)"),
            std::string::npos)
      << json;
  EXPECT_NE(legacy.report.ToString().find("cache hits 0 | invalidations 0"), std::string::npos);
  EXPECT_EQ(tracer.ToChromeTraceJson().find("pre_translate"), std::string::npos);
}

TEST(PreTranslateTransplantTest, CleanCacheMatchesLegacyOutputBytes) {
  const MatrixRun legacy = RunTransplant(11, 4, 0, false);
  const MatrixRun clean = RunTransplant(12, 4, 0, true);

  // Same UISR bytes per VM and in total, same fixups, same restored guests.
  EXPECT_EQ(clean.report.uisr_total_bytes, legacy.report.uisr_total_bytes);
  ASSERT_EQ(clean.report.vms.size(), legacy.report.vms.size());
  for (size_t i = 0; i < clean.report.vms.size(); ++i) {
    EXPECT_EQ(clean.report.vms[i].uid, legacy.report.vms[i].uid);
    EXPECT_EQ(clean.report.vms[i].uisr_bytes, legacy.report.vms[i].uisr_bytes);
  }
  ASSERT_EQ(clean.report.fixups.size(), legacy.report.fixups.size());
  for (size_t i = 0; i < clean.report.fixups.size(); ++i) {
    EXPECT_EQ(clean.report.fixups[i].vm_uid, legacy.report.fixups[i].vm_uid);
    EXPECT_EQ(clean.report.fixups[i].component, legacy.report.fixups[i].component);
  }
  EXPECT_EQ(clean.guest_words, legacy.guest_words);

  // All hits; the pause-window translation collapses to the generation
  // checks while the same work total moved to pre_translation.
  EXPECT_EQ(clean.report.pretranslate_hits, 4);
  EXPECT_EQ(clean.report.pretranslate_invalidations, 0);
  EXPECT_EQ(clean.report.phases.pre_translation, legacy.report.phases.translation);
  EXPECT_LT(clean.report.phases.translation, legacy.report.phases.translation / 10);
  EXPECT_LT(clean.report.downtime, legacy.report.downtime);
}

TEST(PreTranslateTransplantTest, InvalidationMatrixZeroHalfAll) {
  // 8 VMs on M1's 6 modeled workers: with only half the fleet dirty the
  // reconciles still fit one scheduling round, with all of it dirty they
  // need two — so the 0% < 50% < 100% ordering is strict.
  const int kVms = 8;
  const MatrixRun legacy = RunTransplant(20, kVms, kVms, false);
  const MatrixRun none = RunTransplant(21, kVms, 0, true);
  const MatrixRun half = RunTransplant(22, kVms, kVms / 2, true);
  const MatrixRun all = RunTransplant(23, kVms, kVms, true);

  EXPECT_EQ(none.report.pretranslate_hits, kVms);
  EXPECT_EQ(none.report.pretranslate_invalidations, 0);
  EXPECT_EQ(half.report.pretranslate_hits, kVms / 2);
  EXPECT_EQ(half.report.pretranslate_invalidations, kVms / 2);
  EXPECT_EQ(all.report.pretranslate_hits, 0);
  EXPECT_EQ(all.report.pretranslate_invalidations, kVms);

  // Pause-window translation grows with the dirty share but never exceeds
  // the legacy full translate (partial section patches cost less).
  EXPECT_LT(none.report.phases.translation, half.report.phases.translation);
  EXPECT_LT(half.report.phases.translation, all.report.phases.translation);
  EXPECT_LE(all.report.phases.translation, legacy.report.phases.translation);

  // Whatever the dirty fraction, the restored guests and UISR sizes match a
  // legacy transplant that saw the same guest activity.
  for (const MatrixRun* run : {&none, &half, &all}) {
    EXPECT_EQ(run->guest_words, legacy.guest_words);
    EXPECT_EQ(run->report.uisr_total_bytes, legacy.report.uisr_total_bytes);
  }
}

TEST(PreTranslateTransplantTest, SpansAndMetricsCoverThePreTranslation) {
  Tracer tracer;
  MetricsRegistry metrics;
  const MatrixRun run = RunTransplant(30, 3, 1, true, &tracer, &metrics);

  const Span* phase = tracer.FindSpan("phase:pre_translation");
  ASSERT_NE(phase, nullptr);
  EXPECT_EQ(phase->duration(), run.report.phases.pre_translation);
  EXPECT_EQ(tracer.ChildrenOf(phase->id).size(), 3u);
  for (const VmTransplantRecord& vm : run.report.vms) {
    EXPECT_NE(tracer.FindSpan("pre_translate:vm-" + std::to_string(vm.uid)), nullptr);
  }

  EXPECT_EQ(metrics.GetCounter("hypertp_pretranslate_hits").value(), 2u);
  EXPECT_EQ(metrics.GetCounter("hypertp_pretranslate_invalidations").value(), 1u);
  const std::string json = metrics.ToJson();
  EXPECT_NE(json.find("hypertp_pretranslate_hits"), std::string::npos);
  EXPECT_NE(json.find("hypertp_pretranslate_invalidations"), std::string::npos);
}

TEST(PreTranslateTransplantTest, TotalTimeChargesPreTranslationOutsideDowntime) {
  const MatrixRun run = RunTransplant(40, 2, 0, true);
  const PhaseBreakdown& p = run.report.phases;
  EXPECT_EQ(run.report.downtime,
            p.translation + p.reboot + p.restoration + p.rollback + p.resume);
  EXPECT_EQ(run.report.total_time, p.pram + p.pre_translation + p.translation + p.reboot +
                                       p.restoration + p.rollback + p.resume);
}

}  // namespace
}  // namespace hypertp
