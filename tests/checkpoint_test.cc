// Tests for VM checkpointing: heterogeneous cold restore, integrity, and
// the guest-image invariant across a save/destroy/restore cycle.
//
// The mutator fuzz edits the page count, the UISR length prefix and the
// version, truncates at every field boundary, and reseals the CRC trailer,
// so each case reaches the parser past its integrity check. It runs ten
// fixed seeds; HYPERTP_CHECKPOINT_FUZZ_SEEDS=<n> (n > 0) runs n seeds
// instead (the ten, then 100, 101, ...), for long runs such as the
// sanitized one in tests/run_sanitized.sh.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <span>
#include <vector>

#include "src/base/crc32.h"
#include "src/core/checkpoint.h"
#include "src/core/factory.h"
#include "src/guest/guest_image.h"
#include "src/kvm/kvm_host.h"
#include "src/sim/rng.h"
#include "src/uisr/codec.h"
#include "src/xen/xenvisor.h"

namespace hypertp {
namespace {

// Checkpoint layout: u32 magic | u16 version | u16 flags | u32 uisr length |
// uisr blob | u64 page count | page count x (u64 gfn, u64 word) | u32 CRC.
constexpr size_t kVersionAt = 4;
constexpr size_t kUisrLengthAt = 8;
constexpr size_t kUisrAt = 12;

uint64_t LoadLe(std::span<const uint8_t> blob, size_t at, size_t width) {
  uint64_t v = 0;
  for (size_t i = 0; i < width; ++i) {
    v |= static_cast<uint64_t>(blob[at + i]) << (8 * i);
  }
  return v;
}

void StoreLe(std::vector<uint8_t>& blob, size_t at, size_t width, uint64_t v) {
  for (size_t i = 0; i < width; ++i) {
    blob[at + i] = static_cast<uint8_t>(v >> (8 * i));
  }
}

// Replaces the CRC trailer of `blob` (whose last 4 bytes are a trailer,
// stale or not) with one over everything before it.
void Reseal(std::vector<uint8_t>& blob) {
  const size_t body = blob.size() - 4;
  StoreLe(blob, body, 4, Crc32(std::span<const uint8_t>(blob).first(body)));
}

// Offset of the page-count field in an unmutated checkpoint.
size_t PageCountAt(std::span<const uint8_t> blob) {
  return kUisrAt + LoadLe(blob, kUisrLengthAt, 4);
}

class CheckpointTest : public ::testing::Test {
 protected:
  CheckpointTest()
      : xen_machine_(MachineProfile::M1(), 1),
        kvm_machine_(MachineProfile::M1(), 2),
        xen_(xen_machine_),
        kvm_(kvm_machine_) {}

  Machine xen_machine_, kvm_machine_;
  XenVisor xen_;
  KvmHost kvm_;
};

TEST_F(CheckpointTest, RequiresPausedVm) {
  auto id = xen_.CreateVm(VmConfig::Small("cp"));
  ASSERT_TRUE(id.ok());
  auto blob = SaveVmCheckpoint(xen_, *id);
  ASSERT_FALSE(blob.ok());
  EXPECT_EQ(blob.error().code(), ErrorCode::kFailedPrecondition);
}

TEST_F(CheckpointTest, SaveDestroyRestoreSameHypervisor) {
  auto id = xen_.CreateVm(VmConfig::Small("cp"));
  ASSERT_TRUE(id.ok());
  auto image = InstallGuestImage(xen_, *id, 42);
  ASSERT_TRUE(image.ok());
  const uint64_t uid = xen_.GetVmInfo(*id)->uid;

  ASSERT_TRUE(xen_.PrepareVmForTransplant(*id).ok());
  ASSERT_TRUE(xen_.PauseVm(*id).ok());
  auto blob = SaveVmCheckpoint(xen_, *id);
  ASSERT_TRUE(blob.ok()) << blob.error().ToString();
  ASSERT_TRUE(xen_.DestroyVm(*id).ok());
  EXPECT_TRUE(xen_.ListVms().empty());

  auto restored = RestoreVmCheckpoint(xen_, *blob);
  ASSERT_TRUE(restored.ok()) << restored.error().ToString();
  EXPECT_EQ(xen_.GetVmInfo(*restored)->uid, uid);
  ASSERT_TRUE(xen_.ResumeVm(*restored).ok());
  EXPECT_TRUE(VerifyGuestImage(xen_, *restored, *image).ok());
}

TEST_F(CheckpointTest, HeterogeneousColdRestore) {
  // Save on Xen, restore on KVM — the cold-transplant path.
  auto id = xen_.CreateVm(VmConfig::Small("cold"));
  ASSERT_TRUE(id.ok());
  auto image = InstallGuestImage(xen_, *id, 9);
  ASSERT_TRUE(image.ok());
  ASSERT_TRUE(xen_.PrepareVmForTransplant(*id).ok());
  ASSERT_TRUE(xen_.PauseVm(*id).ok());
  auto blob = SaveVmCheckpoint(xen_, *id);
  ASSERT_TRUE(blob.ok());
  ASSERT_TRUE(xen_.DestroyVm(*id).ok());

  auto restored = RestoreVmCheckpoint(kvm_, *blob);
  ASSERT_TRUE(restored.ok()) << restored.error().ToString();
  ASSERT_TRUE(kvm_.ResumeVm(*restored).ok());
  auto verified = VerifyGuestImage(kvm_, *restored, *image);
  EXPECT_TRUE(verified.ok()) << verified.error().ToString();
}

TEST_F(CheckpointTest, InspectWithoutRestore) {
  VmConfig config = VmConfig::Small("peek");
  config.vcpus = 3;
  auto id = xen_.CreateVm(config);
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(xen_.WriteGuestPage(*id, 10, 1).ok());
  ASSERT_TRUE(xen_.PrepareVmForTransplant(*id).ok());
  ASSERT_TRUE(xen_.PauseVm(*id).ok());
  auto blob = SaveVmCheckpoint(xen_, *id);
  ASSERT_TRUE(blob.ok());

  auto info = InspectCheckpoint(*blob);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->name, "peek");
  EXPECT_EQ(info->vcpus, 3u);
  EXPECT_EQ(info->source_hypervisor, "xenvisor-4.12");
  EXPECT_GE(info->page_count, 1u);
}

TEST_F(CheckpointTest, CorruptBlobRejected) {
  auto id = xen_.CreateVm(VmConfig::Small("c"));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(xen_.PrepareVmForTransplant(*id).ok());
  ASSERT_TRUE(xen_.PauseVm(*id).ok());
  auto blob = SaveVmCheckpoint(xen_, *id);
  ASSERT_TRUE(blob.ok());
  ASSERT_TRUE(xen_.DestroyVm(*id).ok());

  // Every sampled single-byte corruption must be caught by the CRC.
  for (size_t i = 0; i < blob->size(); i += 211) {
    auto corrupted = *blob;
    corrupted[i] ^= 0x20;
    auto result = RestoreVmCheckpoint(xen_, corrupted);
    ASSERT_FALSE(result.ok()) << "corruption at " << i << " undetected";
  }
  // Truncations too.
  std::vector<uint8_t> cut(blob->begin(), blob->begin() + static_cast<ptrdiff_t>(8));
  EXPECT_FALSE(RestoreVmCheckpoint(xen_, cut).ok());
}

TEST_F(CheckpointTest, DuplicateUidRejected) {
  auto id = xen_.CreateVm(VmConfig::Small("dup"));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(xen_.PrepareVmForTransplant(*id).ok());
  ASSERT_TRUE(xen_.PauseVm(*id).ok());
  auto blob = SaveVmCheckpoint(xen_, *id);
  ASSERT_TRUE(blob.ok());
  // VM still exists: restoring alongside it must fail.
  auto clone = RestoreVmCheckpoint(xen_, *blob);
  ASSERT_FALSE(clone.ok());
  EXPECT_EQ(clone.error().code(), ErrorCode::kAlreadyExists);
}

TEST_F(CheckpointTest, ResealedHugePageCountIsDataLoss) {
  auto id = xen_.CreateVm(VmConfig::Small("huge"));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(xen_.WriteGuestPage(*id, 3, 0xABCD).ok());
  ASSERT_TRUE(xen_.PrepareVmForTransplant(*id).ok());
  ASSERT_TRUE(xen_.PauseVm(*id).ok());
  auto blob = SaveVmCheckpoint(xen_, *id);
  ASSERT_TRUE(blob.ok()) << blob.error().ToString();
  ASSERT_TRUE(xen_.DestroyVm(*id).ok());

  // A CRC-valid checkpoint claiming 2^60 page records: refused before any
  // allocation sized by the count, by inspect and restore alike.
  std::vector<uint8_t> huge = *blob;
  StoreLe(huge, PageCountAt(huge), 8, uint64_t{1} << 60);
  Reseal(huge);
  auto info = InspectCheckpoint(huge);
  ASSERT_FALSE(info.ok());
  EXPECT_EQ(info.error().code(), ErrorCode::kDataLoss);
  auto restored = RestoreVmCheckpoint(xen_, huge);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.error().code(), ErrorCode::kDataLoss);
  EXPECT_TRUE(xen_.ListVms().empty());
}

TEST_F(CheckpointTest, ResealedLoweredPageCountIsDataLoss) {
  auto id = xen_.CreateVm(VmConfig::Small("lowered"));
  ASSERT_TRUE(id.ok());
  for (Gfn gfn : {Gfn{1}, Gfn{2}, Gfn{3}}) {
    ASSERT_TRUE(xen_.WriteGuestPage(*id, gfn, 0x10 + gfn).ok());
  }
  ASSERT_TRUE(xen_.PrepareVmForTransplant(*id).ok());
  ASSERT_TRUE(xen_.PauseVm(*id).ok());
  auto blob = SaveVmCheckpoint(xen_, *id);
  ASSERT_TRUE(blob.ok()) << blob.error().ToString();
  ASSERT_TRUE(xen_.DestroyVm(*id).ok());
  ASSERT_EQ(LoadLe(*blob, PageCountAt(*blob), 8), 3u);

  // A CRC-valid checkpoint whose count covers two of its three records
  // would drop the third page silently: the leftover record is refused.
  std::vector<uint8_t> lowered = *blob;
  StoreLe(lowered, PageCountAt(lowered), 8, 2);
  Reseal(lowered);
  auto info = InspectCheckpoint(lowered);
  ASSERT_FALSE(info.ok());
  EXPECT_EQ(info.error().code(), ErrorCode::kDataLoss);
  auto restored = RestoreVmCheckpoint(xen_, lowered);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.error().code(), ErrorCode::kDataLoss);
  EXPECT_TRUE(xen_.ListVms().empty());
}

TEST_F(CheckpointTest, ResealedOutOfRangeGfnLeavesNoVm) {
  auto id = xen_.CreateVm(VmConfig::Small("gfn"));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(xen_.WriteGuestPage(*id, 5, 0x55).ok());
  ASSERT_TRUE(xen_.PrepareVmForTransplant(*id).ok());
  ASSERT_TRUE(xen_.PauseVm(*id).ok());
  auto blob = SaveVmCheckpoint(xen_, *id);
  ASSERT_TRUE(blob.ok()) << blob.error().ToString();
  ASSERT_TRUE(xen_.DestroyVm(*id).ok());

  // The first page record names a gfn far past the VM's memory: the page
  // write fails after the VM exists, and the restore must remove it again.
  std::vector<uint8_t> far = *blob;
  StoreLe(far, PageCountAt(far) + 8, 8, uint64_t{1} << 40);
  Reseal(far);
  auto restored = RestoreVmCheckpoint(xen_, far);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.error().code(), ErrorCode::kNotFound);
  EXPECT_TRUE(xen_.ListVms().empty());

  // The uid is free again: the intact checkpoint still restores.
  auto clean = RestoreVmCheckpoint(xen_, *blob);
  ASSERT_TRUE(clean.ok()) << clean.error().ToString();
  EXPECT_EQ(xen_.ReadGuestPage(*clean, 5).value(), 0x55u);
}

std::vector<uint64_t> FuzzSeeds() {
  std::vector<uint64_t> seeds = {1, 2, 3, 5, 8, 13, 21, 34, 55, 89};
  const char* raw = std::getenv("HYPERTP_CHECKPOINT_FUZZ_SEEDS");
  if (const uint64_t n = raw != nullptr ? std::strtoull(raw, nullptr, 10) : 0; n > 0) {
    seeds.resize(std::min<uint64_t>(n, seeds.size()));
    for (uint64_t i = seeds.size(); i < n; ++i) {
      seeds.push_back(100 + i - 10);
    }
  }
  return seeds;
}

// A value for a field `width` bytes wide: near the true value, at the edges
// of the type, or anywhere.
uint64_t MutatedValue(Rng& rng, uint64_t truth, size_t width) {
  const uint64_t max = width == 8 ? std::numeric_limits<uint64_t>::max()
                                  : (uint64_t{1} << (8 * width)) - 1;
  switch (rng.NextBelow(6)) {
    case 0:
      return 0;
    case 1:
      return max;
    case 2:
      return (truth + 1) & max;
    case 3:
      return (truth - 1) & max;
    case 4:
      return uint64_t{1} << rng.NextBelow(8 * width);
    default:
      return rng.NextU64() & max;
  }
}

// Restores `blob` (or fails with a Status); a restored VM is destroyed again
// so the next case can reuse its uid. Returns whether it restored.
bool InspectAndRestore(Hypervisor& hv, std::span<const uint8_t> blob) {
  auto info = InspectCheckpoint(blob);
  if (info.ok()) {
    // A count the bytes could not hold never parses.
    EXPECT_LE(info->page_count, blob.size() / 16);
  }
  auto restored = RestoreVmCheckpoint(hv, blob);
  if (!restored.ok()) {
    return false;
  }
  EXPECT_TRUE(hv.DestroyVm(*restored).ok());
  return true;
}

TEST_F(CheckpointTest, ResealedMutationsDecodeOrFail) {
  auto id = xen_.CreateVm(VmConfig::Small("fuzz"));
  ASSERT_TRUE(id.ok());
  for (Gfn gfn : {Gfn{0}, Gfn{7}, Gfn{4096}, Gfn{100000}}) {
    ASSERT_TRUE(xen_.WriteGuestPage(*id, gfn, 0x5EED0000 + gfn).ok());
  }
  ASSERT_TRUE(xen_.PrepareVmForTransplant(*id).ok());
  ASSERT_TRUE(xen_.PauseVm(*id).ok());
  auto saved = SaveVmCheckpoint(xen_, *id);
  ASSERT_TRUE(saved.ok()) << saved.error().ToString();
  ASSERT_TRUE(xen_.DestroyVm(*id).ok());
  const std::vector<uint8_t> blob = *saved;
  ASSERT_TRUE(InspectAndRestore(xen_, blob));

  // Every field boundary: the header fields, each UISR section, the page
  // count and each page record's two words.
  const size_t page_count_at = PageCountAt(blob);
  auto uisr = DecodeUisrVm(std::span<const uint8_t>(blob).subspan(kUisrAt, page_count_at - kUisrAt));
  ASSERT_TRUE(uisr.ok()) << uisr.error().ToString();
  UisrSectionLayout layout;
  EncodeUisrVm(*uisr, &layout);
  std::vector<size_t> boundaries = {0, 4, 6, kUisrLengthAt, kUisrAt};
  for (const UisrSectionSpan& span : layout.sections) {
    boundaries.push_back(kUisrAt + span.header_offset);
    boundaries.push_back(kUisrAt + span.payload_offset);
  }
  for (size_t at = page_count_at; at < blob.size() - 4; at += 8) {
    boundaries.push_back(at);
  }
  int cases = 0;
  for (const size_t at : boundaries) {
    std::vector<uint8_t> cut(blob.begin(), blob.begin() + static_cast<ptrdiff_t>(at));
    cut.resize(at + 4);
    Reseal(cut);
    EXPECT_FALSE(InspectAndRestore(xen_, cut)) << "truncated at " << at;
    ++cases;
  }

  // Seeded edits of the length-bearing fields, one to three per case, each
  // resealed so the parser, not the CRC, has to refuse it.
  int restored = 0;
  for (const uint64_t seed : FuzzSeeds()) {
    Rng rng(seed);
    for (int c = 0; c < 64; ++c) {
      std::vector<uint8_t> mutated = blob;
      const int edits = static_cast<int>(rng.NextInRange(1, 3));
      for (int e = 0; e < edits; ++e) {
        switch (rng.NextBelow(4)) {
          case 0:
            StoreLe(mutated, page_count_at, 8,
                    MutatedValue(rng, LoadLe(blob, page_count_at, 8), 8));
            break;
          case 1:
            StoreLe(mutated, kUisrLengthAt, 4,
                    MutatedValue(rng, LoadLe(blob, kUisrLengthAt, 4), 4));
            break;
          case 2:
            StoreLe(mutated, kVersionAt, 2, MutatedValue(rng, LoadLe(blob, kVersionAt, 2), 2));
            break;
          default:
            mutated.resize(static_cast<size_t>(
                rng.NextInRange(4, static_cast<int64_t>(mutated.size()))));
            break;
        }
      }
      Reseal(mutated);
      restored += InspectAndRestore(xen_, mutated) ? 1 : 0;
      ++cases;
    }
  }
  // Both outcomes occur: an older version still restores, and most edits
  // are refused.
  EXPECT_GT(restored, 0);
  EXPECT_LT(restored, cases);
  RecordProperty("cases", cases);
}

// Parameterized matrix: checkpoints restore across every hypervisor pair.
struct CheckpointPair {
  HypervisorKind save_on;
  HypervisorKind restore_on;
};

class CheckpointMatrixTest : public ::testing::TestWithParam<CheckpointPair> {};

TEST_P(CheckpointMatrixTest, RestoresAcrossKinds) {
  Machine src_machine(MachineProfile::M1(), 11);
  Machine dst_machine(MachineProfile::M1(), 12);
  std::unique_ptr<Hypervisor> src = MakeHypervisor(GetParam().save_on, src_machine);
  std::unique_ptr<Hypervisor> dst = MakeHypervisor(GetParam().restore_on, dst_machine);

  auto id = src->CreateVm(VmConfig::Small("cpm"));
  ASSERT_TRUE(id.ok());
  auto image = InstallGuestImage(*src, *id, 55);
  ASSERT_TRUE(image.ok());
  ASSERT_TRUE(src->PrepareVmForTransplant(*id).ok());
  ASSERT_TRUE(src->PauseVm(*id).ok());
  auto blob = SaveVmCheckpoint(*src, *id);
  ASSERT_TRUE(blob.ok()) << blob.error().ToString();
  ASSERT_TRUE(src->DestroyVm(*id).ok());

  auto restored = RestoreVmCheckpoint(*dst, *blob);
  ASSERT_TRUE(restored.ok()) << restored.error().ToString();
  ASSERT_TRUE(dst->ResumeVm(*restored).ok());
  auto verified = VerifyGuestImage(*dst, *restored, *image);
  EXPECT_TRUE(verified.ok()) << verified.error().ToString();
}

INSTANTIATE_TEST_SUITE_P(
    AllPairs, CheckpointMatrixTest,
    ::testing::Values(CheckpointPair{HypervisorKind::kXen, HypervisorKind::kBhyve},
                      CheckpointPair{HypervisorKind::kBhyve, HypervisorKind::kKvm},
                      CheckpointPair{HypervisorKind::kKvm, HypervisorKind::kBhyve},
                      CheckpointPair{HypervisorKind::kBhyve, HypervisorKind::kXen},
                      CheckpointPair{HypervisorKind::kBhyve, HypervisorKind::kBhyve}),
    [](const ::testing::TestParamInfo<CheckpointPair>& info) {
      return std::string(HypervisorKindName(info.param.save_on)) + "_to_" +
             std::string(HypervisorKindName(info.param.restore_on));
    });

}  // namespace
}  // namespace hypertp
