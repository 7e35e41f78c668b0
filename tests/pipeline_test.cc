// Tests for the shared conversion pipeline (src/pipeline/):
//  - every encode path (vector, writer overload, batch stage, checkpoint
//    embedding, migration wire round-trip) produces byte-identical UISR;
//  - the PramStore/PramLoad stages round-trip blobs through PRAM, and a
//    `uisr:` file that is not one contiguous frame run is refused;
//  - real-thread count never changes any output byte: InPlaceTransplant
//    reports and trace JSON are identical for real_threads 1/2/8 and for
//    HYPERTP_PARALLEL, and per-VM spans are laid out by the modeled schedule.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/base/bytes.h"
#include "src/base/crc32.h"
#include "src/core/checkpoint.h"
#include "src/core/factory.h"
#include "src/core/inplace.h"
#include "src/core/inplace_internal.h"
#include "src/core/report.h"
#include "src/migrate/migrate.h"
#include "src/obs/trace.h"
#include "src/pipeline/conversion.h"
#include "src/uisr/codec.h"

namespace hypertp {
namespace {

// Golden values for GoldenBlobBytesArePinned: the exact wire size and CRC32
// of the fixed synthetic VM built in that test. Any intentional UISR format
// change must update these in the same commit that documents the change.
constexpr size_t kGoldenBlobSize = 9012;
constexpr uint32_t kGoldenBlobCrc = 0x815E5DACu;

// A paused Xen VM with a pinned uid, ready for extraction.
std::pair<std::unique_ptr<Hypervisor>, VmId> PausedXenVm(Machine& machine, uint64_t uid) {
  std::unique_ptr<Hypervisor> xen = MakeHypervisor(HypervisorKind::kXen, machine);
  VmConfig config = VmConfig::Small("pipe");
  config.vcpus = 2;
  config.uid = uid;
  auto id = xen->CreateVm(config);
  EXPECT_TRUE(id.ok());
  EXPECT_TRUE(xen->WriteGuestPage(*id, 7, 0xABCDEF).ok());
  EXPECT_TRUE(xen->PrepareVmForTransplant(*id).ok());
  EXPECT_TRUE(xen->PauseVm(*id).ok());
  return {std::move(xen), *id};
}

TEST(ConversionParityTest, EveryEncodePathIsByteIdentical) {
  Machine machine(MachineProfile::M1(), 21);
  auto [xen, id] = PausedXenVm(machine, 4242);
  FixupLog log;
  auto uisr = pipeline::ExtractVmState(*xen, id, &log);
  ASSERT_TRUE(uisr.ok()) << uisr.error().ToString();

  // Vector overload == exact pre-computed size.
  const std::vector<uint8_t> blob = EncodeUisrVm(*uisr);
  EXPECT_EQ(EncodedUisrSize(*uisr), blob.size());

  // Span overload mid-stream: the embedded bytes must equal the standalone
  // blob even when other bytes precede them (the CRC covers only this VM),
  // and the encode fills exactly the pre-computed size.
  std::vector<uint8_t> prefixed(8 + EncodedUisrSize(*uisr));
  SpanWriter w(prefixed);
  w.PutU64(0xFEEDFACE);
  EncodeUisrVm(*uisr, w);
  EXPECT_EQ(w.size(), prefixed.size());
  const std::vector<uint8_t> embedded(prefixed.begin() + 8, prefixed.end());
  EXPECT_EQ(embedded, blob);

  // Batch encode stage, serial and threaded.
  const std::vector<UisrVm> batch = {*uisr, *uisr, *uisr};
  for (int threads : {1, 4}) {
    const auto blobs = pipeline::EncodeVmStates(batch, threads);
    ASSERT_EQ(blobs.size(), batch.size());
    for (const auto& b : blobs) {
      EXPECT_EQ(b, blob) << "threads=" << threads;
    }
  }

  // Wire round-trip (what MigrationTP runs): same byte count, and the decoded
  // state re-encodes to the identical blob.
  uint64_t wire_bytes = 0;
  auto round = pipeline::RoundTripVmState(*uisr, &wire_bytes);
  ASSERT_TRUE(round.ok()) << round.error().ToString();
  EXPECT_EQ(wire_bytes, blob.size());
  EXPECT_EQ(round->vm_uid, uisr->vm_uid);
  EXPECT_EQ(EncodeUisrVm(*round), blob);
}

TEST(ConversionParityTest, CheckpointEmbedsTheIdenticalBlob) {
  // The checkpoint writer encodes straight into its file (no intermediate
  // blob); the embedded section must still be byte-identical to
  // the standalone encoding of the same extracted state.
  Machine machine(MachineProfile::M1(), 22);
  auto [xen, id] = PausedXenVm(machine, 4242);
  FixupLog log;
  auto uisr = pipeline::ExtractVmState(*xen, id, &log);
  ASSERT_TRUE(uisr.ok());
  const std::vector<uint8_t> blob = EncodeUisrVm(*uisr);

  auto checkpoint = SaveVmCheckpoint(*xen, id);
  ASSERT_TRUE(checkpoint.ok()) << checkpoint.error().ToString();
  ByteReader r(*checkpoint);
  ASSERT_TRUE(r.Skip(8).ok());  // magic + version + flags
  auto embedded = r.ReadLengthPrefixed();
  ASSERT_TRUE(embedded.ok());
  EXPECT_EQ(*embedded, blob);
}

TEST(ConversionParityTest, InPlaceAndMigrationReportTheSameUisrBytes) {
  // The same VM converts through InPlaceTP and MigrationTP; both mechanisms
  // now share the pipeline stages, so the reported UISR wire size matches.
  uint64_t inplace_bytes = 0;
  {
    Machine machine(MachineProfile::M1(), 31);
    auto [xen, id] = PausedXenVm(machine, 4242);
    ASSERT_TRUE(xen->ResumeVm(id).ok());  // Run() pauses by itself.
    auto result = InPlaceTransplant::Run(std::move(xen), HypervisorKind::kKvm, InPlaceOptions{});
    ASSERT_TRUE(result.ok()) << result.error().ToString();
    ASSERT_EQ(result->report.vms.size(), 1u);
    inplace_bytes = result->report.vms[0].uisr_bytes;
  }
  uint64_t migrate_bytes = 0;
  {
    Machine src_machine(MachineProfile::M1(), 32);
    Machine dst_machine(MachineProfile::M1(), 33);
    auto [xen, id] = PausedXenVm(src_machine, 4242);
    ASSERT_TRUE(xen->ResumeVm(id).ok());  // Migration pauses at stop-and-copy.
    std::unique_ptr<Hypervisor> kvm = MakeHypervisor(HypervisorKind::kKvm, dst_machine);
    MigrationEngine engine{NetworkLink{}};
    auto result = engine.MigrateVm(*xen, id, *kvm, MigrationConfig{});
    ASSERT_TRUE(result.ok()) << result.error().ToString();
    migrate_bytes = result->uisr_bytes;
  }
  EXPECT_GT(inplace_bytes, 0u);
  EXPECT_EQ(inplace_bytes, migrate_bytes);
}

TEST(PramStageTest, ScatteredUisrFileIsRefusedAtRestore) {
  // Every store path leaves a `uisr:` file as one contiguous frame run. A
  // file whose pages are scattered (here: the right bytes, page by page, in
  // reverse frame order, each page its own one-frame backing) is not silently
  // reassembled; the restore refuses it with kDataLoss naming the file.
  Machine machine(MachineProfile::M1(), 41);
  auto [xen, id] = PausedXenVm(machine, 4343);
  FixupLog log;
  auto uisr = pipeline::ExtractVmState(*xen, id, &log);
  ASSERT_TRUE(uisr.ok());
  const std::vector<uint8_t> blob = EncodeUisrVm(*uisr);
  const uint64_t pages = (blob.size() + kPageSize - 1) / kPageSize;
  ASSERT_GT(pages, 1u);
  auto base = machine.memory().Alloc(pages, 1, FrameOwner{FrameOwnerKind::kUisr, 4343});
  ASSERT_TRUE(base.ok());
  std::vector<PramPageEntry> entries;
  for (uint64_t gfn = 0; gfn < pages; ++gfn) {
    const Mfn mfn = *base + (pages - 1 - gfn);
    const size_t from = gfn * kPageSize;
    const size_t to = std::min(blob.size(), from + kPageSize);
    auto page = machine.memory().BackExtent(mfn, 1);
    ASSERT_TRUE(page.ok());
    std::copy(blob.begin() + from, blob.begin() + to, page->begin());
    entries.push_back(PramPageEntry{gfn, mfn, 0});
  }
  PramBuilder builder(machine.memory());
  ASSERT_TRUE(builder.AddFile("uisr:4343", blob.size(), false, entries).ok());
  auto handle = builder.Finalize();
  ASSERT_TRUE(handle.ok());
  auto image = ParsePram(machine.memory(), handle->root_mfn);
  ASSERT_TRUE(image.ok()) << image.error().ToString();

  auto restored = inplace_internal::RestoreAllFromPram(
      *xen, machine, *image, InPlaceOptions{}, HypervisorKind::kXen, 1, 1, &log,
      InPlaceOptions::Fault::kNone);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.error().code(), ErrorCode::kDataLoss);
  EXPECT_NE(restored.error().message().find("'uisr:4343'"), std::string::npos)
      << restored.error().ToString();
  EXPECT_NE(restored.error().message().find("not one contiguous frame run"), std::string::npos);
}

// Encode-then-park (the pre-translation path: a blob vector copied into
// frames, then registered) vs zero-copy encode-into-frames, same machine seed
// on both sides: the PRAM metadata, the frame extents and every stored byte
// must be identical, so a VM's PRAM image does not depend on which path
// stored it.
TEST(PramStageTest, ZeroCopyStoreIsByteIdenticalToLegacy) {
  // Three distinct VMs so the batch has different sizes per slot.
  auto make_states = [](Machine& machine) {
    std::vector<UisrVm> states;
    std::unique_ptr<Hypervisor> xen = MakeHypervisor(HypervisorKind::kXen, machine);
    for (uint64_t uid : {900u, 901u, 902u}) {
      VmConfig config = VmConfig::Small("zc-" + std::to_string(uid));
      config.vcpus = static_cast<uint32_t>(1 + uid % 3);
      config.uid = uid;
      auto id = xen->CreateVm(config);
      EXPECT_TRUE(id.ok());
      EXPECT_TRUE(xen->WriteGuestPage(*id, 5, 0xC0DE + uid).ok());
      EXPECT_TRUE(xen->PrepareVmForTransplant(*id).ok());
      EXPECT_TRUE(xen->PauseVm(*id).ok());
      FixupLog log;
      auto uisr = xen->SaveVmToUisr(*id, &log);
      EXPECT_TRUE(uisr.ok());
      states.push_back(std::move(*uisr));
    }
    return states;
  };

  // Encode to a vector, park it, register it.
  Machine park_machine(MachineProfile::M1(), 61);
  const std::vector<UisrVm> states = make_states(park_machine);
  PramBuilder park_builder(park_machine.memory());
  std::vector<pipeline::StoredUisrBlob> park_stored;
  std::vector<std::vector<uint8_t>> park_blobs;
  for (const UisrVm& vm : states) {
    park_blobs.push_back(EncodeUisrVm(vm));
    auto parked = pipeline::ParkUisrBlob(park_machine.memory(), vm.vm_uid, park_blobs.back());
    ASSERT_TRUE(parked.ok()) << parked.error().ToString();
    auto stored = pipeline::RegisterParkedBlob(park_builder, vm.vm_uid, *parked,
                                               park_blobs.back().size());
    ASSERT_TRUE(stored.ok()) << stored.error().ToString();
    park_stored.push_back(*stored);
  }
  auto park_handle = park_builder.Finalize();
  ASSERT_TRUE(park_handle.ok());
  auto park_image = ParsePram(park_machine.memory(), park_handle->root_mfn);
  ASSERT_TRUE(park_image.ok());

  for (int threads : {1, 4}) {
    Machine zc_machine(MachineProfile::M1(), 61);  // Same seed: same Mfn layout.
    const std::vector<UisrVm> zc_states = make_states(zc_machine);
    PramBuilder zc_builder(zc_machine.memory());
    auto zc_stored = pipeline::EncodeVmStatesIntoPram(zc_machine.memory(), zc_builder,
                                                      zc_states, threads);
    ASSERT_TRUE(zc_stored.ok()) << zc_stored.error().ToString();
    ASSERT_EQ(zc_stored->size(), states.size());
    auto zc_handle = zc_builder.Finalize();
    ASSERT_TRUE(zc_handle.ok());
    auto zc_image = ParsePram(zc_machine.memory(), zc_handle->root_mfn);
    ASSERT_TRUE(zc_image.ok());

    // PRAM metadata (ids, names, sizes, every page entry) identical.
    EXPECT_EQ(*zc_image, *park_image) << "threads=" << threads;
    EXPECT_EQ(zc_handle->root_mfn, park_handle->root_mfn);

    for (size_t i = 0; i < states.size(); ++i) {
      EXPECT_EQ((*zc_stored)[i].frames.base, park_stored[i].frames.base);
      EXPECT_EQ((*zc_stored)[i].frames.count, park_stored[i].frames.count);
      EXPECT_EQ((*zc_stored)[i].bytes, park_blobs[i].size());
      // Every stored byte identical, through the view and page by page.
      const PramFile* file = zc_image->FindFile((*zc_stored)[i].file_id);
      ASSERT_NE(file, nullptr);
      auto view = pipeline::ViewUisrBlob(zc_machine.memory(), *file);
      ASSERT_TRUE(view.ok()) << view.error().ToString();
      EXPECT_TRUE(std::equal(view->begin(), view->end(), park_blobs[i].begin(),
                             park_blobs[i].end()))
          << "vm " << i << " threads=" << threads;
      const Mfn first = file->entries.front().mfn;
      auto backing = std::as_const(zc_machine.memory()).BackedExtent(first, file->entries.size());
      ASSERT_TRUE(backing.ok()) << backing.error().ToString();
      std::vector<uint8_t> paged;
      for (const PramPageEntry& e : file->entries) {
        const auto page = backing->subspan((e.mfn - first) * kPageSize, kPageSize);
        paged.insert(paged.end(), page.begin(), page.end());
      }
      paged.resize(file->size_bytes);
      EXPECT_EQ(paged, park_blobs[i]);
    }
  }
}

TEST(PramStageTest, ViewUisrBlobBorrowsWithoutCopying) {
  Machine machine(MachineProfile::M1(), 42);
  std::vector<uint8_t> blob(kPageSize + 123);
  for (size_t i = 0; i < blob.size(); ++i) {
    blob[i] = static_cast<uint8_t>(i * 13 + 5);
  }
  PramBuilder builder(machine.memory());
  auto parked = pipeline::ParkUisrBlob(machine.memory(), 88, blob);
  ASSERT_TRUE(parked.ok());
  auto stored = pipeline::RegisterParkedBlob(builder, 88, *parked, blob.size());
  ASSERT_TRUE(stored.ok());
  auto handle = builder.Finalize();
  ASSERT_TRUE(handle.ok());
  auto image = ParsePram(machine.memory(), handle->root_mfn);
  ASSERT_TRUE(image.ok());
  const PramFile* file = image->FindFile(stored->file_id);
  ASSERT_NE(file, nullptr);

  auto view = pipeline::ViewUisrBlob(machine.memory(), *file);
  ASSERT_TRUE(view.ok()) << view.error().ToString();
  EXPECT_EQ(view->size(), blob.size());
  EXPECT_TRUE(std::equal(view->begin(), view->end(), blob.begin(), blob.end()));

  // The span-based decode stage accepts borrowed views directly.
  std::vector<std::span<const uint8_t>> views = {*view};
  const auto decoded = pipeline::DecodeVmStates(views, 1);
  ASSERT_EQ(decoded.size(), 1u);
  // (A raw test pattern is not a valid UISR blob; decode failing is fine —
  // the point is the overload consumes views without copying. CRC-valid
  // decode through views is covered by the transplant integration tests.)
  EXPECT_FALSE(decoded[0].ok());

  // A non-contiguous entry list is refused, not mis-viewed.
  PramFile scrambled = *file;
  std::reverse(scrambled.entries.begin(), scrambled.entries.end());
  ASSERT_GT(scrambled.entries.size(), 1u);
  auto refused = pipeline::ViewUisrBlob(machine.memory(), scrambled);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.error().code(), ErrorCode::kDataLoss);
}

// Golden bytes: a fixed synthetic VM must encode to exactly these bytes
// (size + CRC32 pinned). Catches silent wire-format drift that the
// parity tests — which compare paths against each other — would miss.
TEST(ConversionParityTest, GoldenBlobBytesArePinned) {
  UisrVm vm;
  vm.vm_uid = 7;
  vm.name = "golden";
  vm.memory.memory_bytes = 64ull << 20;
  vm.memory.pram_file_id = 3;
  vm.vcpus.push_back(MakeSyntheticVcpu(7, 0));
  vm.vcpus.push_back(MakeSyntheticVcpu(7, 1));
  vm.ioapic.num_pins = 24;

  const std::vector<uint8_t> blob = EncodeUisrVm(vm);
  EXPECT_EQ(blob.size(), kGoldenBlobSize);
  EXPECT_EQ(Crc32(blob), kGoldenBlobCrc);

  // And the zero-copy path parks the same golden bytes.
  Machine machine(MachineProfile::M1(), 77);
  PramBuilder builder(machine.memory());
  auto stored = pipeline::EncodeVmStatesIntoPram(machine.memory(), builder, {vm}, 1);
  ASSERT_TRUE(stored.ok()) << stored.error().ToString();
  ASSERT_EQ(stored->size(), 1u);
  auto handle = builder.Finalize();
  ASSERT_TRUE(handle.ok());
  auto image = ParsePram(machine.memory(), handle->root_mfn);
  ASSERT_TRUE(image.ok());
  const PramFile* file = image->FindFile((*stored)[0].file_id);
  ASSERT_NE(file, nullptr);
  auto view = pipeline::ViewUisrBlob(machine.memory(), *file);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->size(), kGoldenBlobSize);
  EXPECT_EQ(Crc32(*view), kGoldenBlobCrc);
}

TEST(DecodeStageTest, ErrorsComeBackInPlaceForAnyThreadCount) {
  Machine machine(MachineProfile::M1(), 51);
  auto [xen, id] = PausedXenVm(machine, 4242);
  FixupLog log;
  auto uisr = pipeline::ExtractVmState(*xen, id, &log);
  ASSERT_TRUE(uisr.ok());
  const std::vector<uint8_t> good = EncodeUisrVm(*uisr);
  std::vector<uint8_t> bad = good;
  bad[bad.size() / 2] ^= 0xFF;  // CRC must catch it.

  const std::vector<std::vector<uint8_t>> blobs = {good, bad, good};
  for (int threads : {1, 4}) {
    auto decoded = pipeline::DecodeVmStates(blobs, threads);
    ASSERT_EQ(decoded.size(), 3u);
    EXPECT_TRUE(decoded[0].ok()) << "threads=" << threads;
    EXPECT_FALSE(decoded[1].ok()) << "threads=" << threads;
    EXPECT_TRUE(decoded[2].ok()) << "threads=" << threads;
  }
}

// --- Determinism: real threads never change an output byte. ----------------

struct TracedRun {
  std::string report_json;
  std::string trace_json;
};

TracedRun RunTracedInPlace(int real_threads) {
  Machine machine(MachineProfile::M2(), 61);
  std::unique_ptr<Hypervisor> xen = MakeHypervisor(HypervisorKind::kXen, machine);
  for (int i = 0; i < 6; ++i) {
    VmConfig config = VmConfig::Small("det-" + std::to_string(i));
    config.uid = 9000 + static_cast<uint64_t>(i);  // Pin uids across runs.
    config.vcpus = 1 + static_cast<uint32_t>(i % 3);  // Unequal stage costs.
    auto id = xen->CreateVm(config);
    EXPECT_TRUE(id.ok());
  }
  Tracer tracer;
  InPlaceOptions options;
  options.tracer = &tracer;
  options.real_threads = real_threads;
  auto result = InPlaceTransplant::Run(std::move(xen), HypervisorKind::kKvm, options);
  EXPECT_TRUE(result.ok()) << result.error().ToString();
  return TracedRun{TransplantReportToJson(result->report), tracer.ToChromeTraceJson()};
}

TEST(PipelineDeterminismTest, RealThreadCountNeverChangesReportOrTrace) {
  const TracedRun serial = RunTracedInPlace(1);
  ASSERT_FALSE(serial.report_json.empty());
  for (int threads : {2, 8}) {
    const TracedRun threaded = RunTracedInPlace(threads);
    EXPECT_EQ(threaded.report_json, serial.report_json) << "real_threads=" << threads;
    EXPECT_EQ(threaded.trace_json, serial.trace_json) << "real_threads=" << threads;
  }
}

TEST(PipelineDeterminismTest, HypertpParallelEnvNeverChangesReportOrTrace) {
  unsetenv("HYPERTP_PARALLEL");
  const TracedRun baseline = RunTracedInPlace(0);  // 0 = read the env var.
  setenv("HYPERTP_PARALLEL", "8", 1);
  const TracedRun enabled = RunTracedInPlace(0);
  unsetenv("HYPERTP_PARALLEL");
  EXPECT_EQ(enabled.report_json, baseline.report_json);
  EXPECT_EQ(enabled.trace_json, baseline.trace_json);
  // And the env-driven run matches an explicit thread count.
  const TracedRun explicit_run = RunTracedInPlace(8);
  EXPECT_EQ(explicit_run.report_json, baseline.report_json);
  EXPECT_EQ(explicit_run.trace_json, baseline.trace_json);
}

// --- Schedule-derived spans. ------------------------------------------------

TEST(ScheduledSpansTest, PerVmSpansAreLaidOutInsideTheirPhaseBySchedule) {
  Machine machine(MachineProfile::M2(), 62);
  std::unique_ptr<Hypervisor> xen = MakeHypervisor(HypervisorKind::kXen, machine);
  const int vm_count = 5;
  for (int i = 0; i < vm_count; ++i) {
    VmConfig config = VmConfig::Small("span-" + std::to_string(i));
    config.vcpus = 1 + static_cast<uint32_t>(i % 2);
    EXPECT_TRUE(xen->CreateVm(config).ok());
  }
  Tracer tracer;
  InPlaceOptions options;
  options.tracer = &tracer;
  auto result = InPlaceTransplant::Run(std::move(xen), HypervisorKind::kKvm, options);
  ASSERT_TRUE(result.ok()) << result.error().ToString();

  for (const char* phase : {"phase:translation", "phase:restoration"}) {
    const Span* span = tracer.FindSpan(phase);
    ASSERT_NE(span, nullptr) << phase;
    const auto children = tracer.ChildrenOf(span->id);
    ASSERT_EQ(children.size(), static_cast<size_t>(vm_count)) << phase;
    SimDuration latest_end = 0;
    for (const Span* child : children) {
      // Every per-VM stage span sits inside its phase at a schedule offset.
      EXPECT_GE(child->start, span->start) << phase << " / " << child->name;
      EXPECT_LE(child->end, span->end) << phase << " / " << child->name;
      latest_end = std::max(latest_end, child->end - span->start);
    }
    // The phase duration IS the schedule makespan: some task ends exactly at
    // the phase boundary (restoration may append the early-restoration stall,
    // which the default options disable).
    EXPECT_EQ(latest_end, span->duration()) << phase;
  }
}

}  // namespace
}  // namespace hypertp
