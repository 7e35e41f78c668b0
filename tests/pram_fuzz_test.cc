// Property/fuzz tests for PRAM: randomized guest layouts round-trip through
// build -> finalize -> parse (with its preservation list) -> scrub, seeded
// and parameterized.
//
// The layout fuzz runs ten fixed seeds. HYPERTP_PRAM_FUZZ_SEEDS=<n> (n > 0)
// runs n seeds instead (the ten, then 100, 101, ...), for long runs such as
// the sanitized one in tests/run_sanitized.sh.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <ostream>
#include <span>
#include <vector>

#include "src/base/crc32.h"
#include "src/pram/pram.h"
#include "src/sim/rng.h"

namespace hypertp {

void PrintTo(const FrameExtent& e, std::ostream* os) {
  *os << "{" << e.base << ", +" << e.count << ", " << FrameOwnerKindName(e.owner.kind) << ":"
      << e.owner.id << "}";
}

namespace {

std::vector<uint64_t> LayoutSeeds() {
  std::vector<uint64_t> seeds = {1, 2, 3, 5, 8, 13, 21, 34, 55, 89};
  const char* raw = std::getenv("HYPERTP_PRAM_FUZZ_SEEDS");
  if (const uint64_t n = raw != nullptr ? std::strtoull(raw, nullptr, 10) : 0; n > 0) {
    seeds.resize(std::min<uint64_t>(n, seeds.size()));
    for (uint64_t i = seeds.size(); i < n; ++i) {
      seeds.push_back(100 + i - 10);
    }
  }
  return seeds;
}

// The preservation list by its definition: every metadata frame the builder
// allocated plus every guest extent a page entry names, sorted by base, with
// touching or overlapping extents merged under the lowest one's owner.
std::vector<FrameExtent> ReferencePreservation(const PramHandle& handle,
                                               const PramImage& image) {
  std::vector<FrameExtent> raw = handle.extents;
  for (const PramFile& file : image.files) {
    for (const PramPageEntry& e : file.entries) {
      raw.push_back(
          FrameExtent{e.mfn, e.frame_count(), FrameOwner{FrameOwnerKind::kGuest, file.file_id}});
    }
  }
  std::stable_sort(raw.begin(), raw.end(),
                   [](const FrameExtent& a, const FrameExtent& b) { return a.base < b.base; });
  std::vector<FrameExtent> merged;
  for (const FrameExtent& e : raw) {
    if (!merged.empty() && e.base <= merged.back().end()) {
      merged.back().count = std::max(merged.back().end(), e.end()) - merged.back().base;
    } else {
      merged.push_back(e);
    }
  }
  return merged;
}

class PramFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PramFuzzTest, RandomLayoutsSurviveTheFullCycle) {
  Rng rng(GetParam());
  PhysicalMemory ram(512ull << 20);  // 128k frames.

  // Random number of VMs with random scattered allocations.
  const int vm_count = static_cast<int>(rng.NextInRange(1, 6));
  PramBuilder builder(ram);
  struct VmLayout {
    uint64_t file_id;
    std::vector<PramPageEntry> entries;
    std::map<Mfn, uint64_t> probes;  // mfn -> expected word (last write wins).
  };
  std::vector<VmLayout> layouts;

  for (int v = 0; v < vm_count; ++v) {
    VmLayout layout;
    std::vector<std::pair<Gfn, Mfn>> map;
    Gfn gfn = 0;
    const int chunks = static_cast<int>(rng.NextInRange(1, 8));
    for (int c = 0; c < chunks; ++c) {
      const uint64_t frames = static_cast<uint64_t>(rng.NextInRange(1, 2048));
      auto mfn = ram.Alloc(frames, 1, FrameOwner{FrameOwnerKind::kGuest, 100 + static_cast<uint64_t>(v)});
      if (!mfn.ok()) {
        break;  // RAM full: use what we have.
      }
      // Random GFN hole before this chunk.
      gfn += static_cast<Gfn>(rng.NextInRange(0, 512));
      for (uint64_t i = 0; i < frames; ++i) {
        map.emplace_back(gfn + i, *mfn + i);
      }
      // Probe a few random frames with content.
      for (int p = 0; p < 3; ++p) {
        const Mfn probe = *mfn + static_cast<uint64_t>(rng.NextBelow(frames));
        const uint64_t word = rng.NextU64() | 1;
        EXPECT_TRUE(ram.WriteWord(probe, word).ok());
        layout.probes[probe] = word;
      }
      gfn += frames;
    }
    if (map.empty()) {
      continue;
    }
    layout.entries = BuildPageEntries(map, rng.NextBool(0.5));
    auto id = builder.AddFile("fuzz-vm-" + std::to_string(v), map.size() * kPageSize, false,
                              layout.entries);
    ASSERT_TRUE(id.ok()) << id.error().ToString();
    layout.file_id = *id;
    layouts.push_back(std::move(layout));
  }

  // Interleave hostile allocations that must be scrubbed.
  std::vector<Mfn> hostiles;
  for (int i = 0; i < 10; ++i) {
    auto mfn = ram.Alloc(static_cast<uint64_t>(rng.NextInRange(1, 256)), 1,
                         FrameOwner{FrameOwnerKind::kHypervisor, 0});
    if (mfn.ok()) {
      hostiles.push_back(*mfn);
    }
  }

  auto handle = builder.Finalize();
  ASSERT_TRUE(handle.ok()) << handle.error().ToString();
  std::vector<FrameExtent> preserve;
  auto image = ParsePram(ram, handle->root_mfn, &preserve);
  ASSERT_TRUE(image.ok()) << image.error().ToString();
  ASSERT_EQ(image->files.size(), layouts.size());
  for (size_t v = 0; v < layouts.size(); ++v) {
    EXPECT_EQ(image->files[v].entries, layouts[v].entries) << "vm " << v;
  }
  // The one-walk list equals the list built from its definition.
  EXPECT_EQ(preserve, ReferencePreservation(*handle, *image));

  ram.ScrubExcept(preserve);

  // Every probed guest word survived; every hostile frame did not.
  for (const VmLayout& layout : layouts) {
    for (const auto& [mfn, word] : layout.probes) {
      EXPECT_EQ(ram.ReadWord(mfn).value(), word);
    }
  }
  for (Mfn hostile : hostiles) {
    EXPECT_FALSE(ram.IsAllocated(hostile));
  }
  // And PRAM still parses post-scrub.
  EXPECT_TRUE(ParsePram(ram, handle->root_mfn).ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, PramFuzzTest, ::testing::ValuesIn(LayoutSeeds()));

// Two files and the metadata pages laid out back to back in MFN: the list
// merges across owners into one extent under the lowest file's owner.
TEST(PramPreservationListTest, MergesAcrossFilesAndMetadata) {
  PhysicalMemory ram(64 << 20);
  PramBuilder builder(ram);
  std::vector<uint64_t> ids;
  std::vector<Mfn> bases;
  for (int v = 0; v < 2; ++v) {
    const uint64_t frames = 600;
    const Mfn base = ram.Alloc(frames, 1, FrameOwner{FrameOwnerKind::kGuest, 7}).value();
    bases.push_back(base);
    std::vector<std::pair<Gfn, Mfn>> map;
    for (uint64_t i = 0; i < frames; ++i) {
      map.emplace_back(i, base + i);
    }
    auto id = builder.AddFile("adjacent-" + std::to_string(v), frames * kPageSize, false,
                              BuildPageEntries(map, false));
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  auto handle = builder.Finalize();
  ASSERT_TRUE(handle.ok()) << handle.error().ToString();
  ASSERT_EQ(bases[1], bases[0] + 600);
  ASSERT_EQ(handle->extents.front().base, bases[0] + 1200);  // Right after the second file.

  std::vector<FrameExtent> preserve;
  auto image = ParsePram(ram, handle->root_mfn, &preserve);
  ASSERT_TRUE(image.ok()) << image.error().ToString();
  const std::vector<FrameExtent> want = {
      FrameExtent{bases[0], 1200 + handle->metadata_pages,
                  FrameOwner{FrameOwnerKind::kGuest, ids[0]}}};
  EXPECT_EQ(preserve, want);
  EXPECT_EQ(preserve, ReferencePreservation(*handle, *image));

  // The merged extent covers every allocation, so the scrub keeps them all.
  const uint64_t before = ram.allocated_frames();
  EXPECT_EQ(ram.ScrubExcept(preserve), 0u);
  EXPECT_EQ(ram.allocated_frames(), before);
}

// A parse that fails leaves the caller's list as it was.
TEST(PramPreservationListTest, FailedParseLeavesTheListUntouched) {
  PhysicalMemory ram(64 << 20);
  PramBuilder builder(ram);
  const Mfn base = ram.Alloc(8, 1, FrameOwner{FrameOwnerKind::kGuest, 7}).value();
  ASSERT_TRUE(builder.AddFile("vm", 8 * kPageSize, false, {PramPageEntry{0, base, 0}}).ok());
  auto handle = builder.Finalize();
  ASSERT_TRUE(handle.ok());
  ram.ScrubExcept({});  // The metadata is gone.

  const std::vector<FrameExtent> sentinel = {FrameExtent{3, 1, FrameOwner{}}};
  std::vector<FrameExtent> preserve = sentinel;
  auto image = ParsePram(ram, handle->root_mfn, &preserve);
  ASSERT_FALSE(image.ok());
  EXPECT_EQ(image.error().code(), ErrorCode::kDataLoss);
  EXPECT_EQ(preserve, sentinel);
}

// Differential fuzz of the CRC32 implementations against the bitwise
// reference: the dispatched hot path (carry-less multiply on hardware that
// has it, else sliced), the portable slice-by-8 path, random lengths (biased
// toward the word/fold boundaries where the head/body/tail logic lives),
// random content, random streaming splits. PRAM metadata integrity rides
// entirely on this CRC, hence the fuzz here.
class Crc32FuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(Crc32FuzzTest, AllImplementationsMatchBitwiseReference) {
  Rng rng(GetParam() ^ 0xC7C32ull);
  for (int iter = 0; iter < 200; ++iter) {
    const bool near_boundary = rng.NextBool(0.5);
    // 0..80 straddles the 8-byte sliced group and the 64-byte fold entry;
    // the long lengths exercise the bulk loops and their 16-byte tails.
    const size_t len = near_boundary
                           ? static_cast<size_t>(rng.NextInRange(0, 80))
                           : static_cast<size_t>(rng.NextInRange(0, 8192));
    std::vector<uint8_t> data(len);
    for (size_t i = 0; i < len; ++i) {
      data[i] = static_cast<uint8_t>(rng.NextU64());
    }

    const uint32_t bitwise = Crc32UpdateBitwise(0, data);
    ASSERT_EQ(Crc32(data), bitwise) << "len " << len;
    ASSERT_EQ(Crc32UpdateSliced(0, data), bitwise) << "len " << len;

    // Streaming composition at a random split must agree for every path.
    const size_t split = static_cast<size_t>(rng.NextBelow(len + 1));
    const auto head = std::span<const uint8_t>(data).first(split);
    const auto tail = std::span<const uint8_t>(data).subspan(split);
    ASSERT_EQ(Crc32Update(Crc32(head), tail), bitwise) << "len " << len << " split " << split;
    ASSERT_EQ(Crc32UpdateSliced(Crc32UpdateSliced(0, head), tail), bitwise)
        << "len " << len << " split " << split;
    ASSERT_EQ(Crc32UpdateBitwise(Crc32UpdateBitwise(0, head), tail), bitwise)
        << "len " << len << " split " << split;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Crc32FuzzTest, ::testing::Values(7ull, 11ull, 23ull, 47ull));

}  // namespace
}  // namespace hypertp
