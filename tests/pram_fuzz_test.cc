// Property/fuzz tests for PRAM: randomized guest layouts round-trip through
// build -> finalize -> parse (with its preservation list) -> scrub, seeded
// and parameterized.
//
// A second fuzz edits a valid structure's metadata pages in place (counts,
// chain pointers, entry bits, name lengths, single bits), reseals each page's
// CRC, and checks that ParsePram either parses the result or refuses it with
// kDataLoss. The cycles it found have named regression tests here.
//
// Both fuzzes run ten fixed seeds. HYPERTP_PRAM_FUZZ_SEEDS=<n> (n > 0) runs n
// seeds instead (the ten, then 100, 101, ...), for long runs such as the
// sanitized ones in tests/run_sanitized.sh.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <map>
#include <ostream>
#include <span>
#include <string>
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

// Little-endian field access on a metadata page, for the edits below.
uint64_t GetLe(std::span<const uint8_t> page, size_t at, size_t width) {
  uint64_t v = 0;
  for (size_t i = 0; i < width; ++i) {
    v |= static_cast<uint64_t>(page[at + i]) << (8 * i);
  }
  return v;
}

void PutLe(std::span<uint8_t> page, size_t at, size_t width, uint64_t v) {
  for (size_t i = 0; i < width; ++i) {
    page[at + i] = static_cast<uint8_t>(v >> (8 * i));
  }
}

// Seals an edited metadata page the way PramBuilder does: a CRC-32 over the
// whole 4 KiB page with the CRC field (bytes 4-7) zeroed, stored there.
void Reseal(std::span<uint8_t> page) {
  PutLe(page, 4, 4, 0);
  PutLe(page, 4, 4, Crc32(page));
}

std::span<uint8_t> MetadataPage(PhysicalMemory& ram, Mfn mfn) {
  auto page = ram.BackedExtent(mfn, 1);
  EXPECT_TRUE(page.ok()) << "mfn " << mfn;
  return page.ok() ? *page : std::span<uint8_t>{};
}

// A node page whose `next` names itself: the walk must refuse the cycle, not
// grow the file's entry list until allocation fails.
TEST(PramParseTest, SelfLinkedNodePageIsDataLoss) {
  PhysicalMemory ram(64 << 20);
  const Mfn guest = ram.Alloc(8, 1, FrameOwner{FrameOwnerKind::kGuest, 1}).value();
  PramBuilder builder(ram);
  ASSERT_TRUE(builder.AddFile("vm", 8 * kPageSize, false, {PramPageEntry{0, guest, 0}}).ok());
  auto handle = builder.Finalize();
  ASSERT_TRUE(handle.ok());
  ASSERT_EQ(handle->metadata_pages, 3u);  // Node, file info, root.

  const Mfn node = handle->extents.front().base;  // Node chains are laid out first.
  const std::span<uint8_t> page = MetadataPage(ram, node);
  ASSERT_EQ(GetLe(page, 8, 8), 0u);
  PutLe(page, 8, 8, node);
  Reseal(page);

  auto image = ParsePram(ram, handle->root_mfn);
  ASSERT_FALSE(image.ok());
  EXPECT_EQ(image.error().code(), ErrorCode::kDataLoss);
  EXPECT_NE(image.error().message().find("cycle"), std::string::npos)
      << image.error().ToString();
}

// 510 files need two root pages; the second one linked back to the head
// closes the root chain into a loop the walk must refuse.
TEST(PramParseTest, RootChainCycleIsDataLoss) {
  PhysicalMemory ram(64 << 20);
  PramBuilder builder(ram);
  for (int i = 0; i < 510; ++i) {
    ASSERT_TRUE(builder.AddFile("vm-" + std::to_string(i), 0, false, {}).ok());
  }
  auto handle = builder.Finalize();
  ASSERT_TRUE(handle.ok());
  ASSERT_EQ(handle->metadata_pages, 512u);  // 510 file-info pages and two roots.

  const Mfn head = handle->root_mfn;
  const Mfn second = GetLe(MetadataPage(ram, head), 8, 8);
  ASSERT_NE(second, 0u);
  const std::span<uint8_t> tail = MetadataPage(ram, second);
  ASSERT_EQ(GetLe(tail, 8, 8), 0u);  // The chain ends at the second root.
  PutLe(tail, 8, 8, head);
  Reseal(tail);

  auto image = ParsePram(ram, head);
  ASSERT_FALSE(image.ok());
  EXPECT_EQ(image.error().code(), ErrorCode::kDataLoss);
  EXPECT_NE(image.error().message().find("cycle"), std::string::npos)
      << image.error().ToString();
}

// Page magics and capacities from docs/PRAM_FORMAT.md.
constexpr uint32_t kRootMagic = 0x4D415250;
constexpr uint32_t kFileMagic = 0x49465250;
constexpr uint32_t kNodeMagic = 0x444E5250;
constexpr uint64_t kRootCapacity = 509;
constexpr uint64_t kNodeCapacity = 508;

// A count near the true one, at the page's capacity, at the field's edge, or
// anywhere up to twice the capacity.
uint64_t MutatedCount(Rng& rng, uint64_t truth, uint64_t capacity, uint64_t field_max) {
  switch (rng.NextBelow(7)) {
    case 0:
      return 0;
    case 1:
      return truth + 1;
    case 2:
      return truth - 1;  // Wraps to the field's maximum at zero.
    case 3:
      return capacity;
    case 4:
      return capacity + 1;
    case 5:
      return field_max;
    default:
      return rng.NextBelow(2 * capacity + 2);
  }
}

// A valid PRAM structure with every page shape the parser meets, and the
// frames an edited pointer may be aimed at.
struct MutationBed {
  struct Page {
    Mfn mfn = 0;
    uint32_t magic = 0;
    std::vector<uint8_t> clean;
  };

  explicit MutationBed(PhysicalMemory& ram) {
    PramBuilder builder(ram);
    const FrameOwner guest{FrameOwnerKind::kGuest, 1};
    // Order-0 entries in 40-frame chunks with GFN holes between them: skip
    // words, and more words than one node page holds.
    std::vector<PramPageEntry> scattered;
    Gfn gfn = 0;
    for (int chunk = 0; chunk < 15; ++chunk) {
      const Mfn base = ram.Alloc(40, 1, guest).value();
      for (uint64_t i = 0; i < 40; ++i) {
        scattered.push_back(PramPageEntry{gfn + i, base + i, 0});
      }
      guest_frames.push_back(base);
      gfn += 40 + 3;
    }
    EXPECT_TRUE(builder.AddFile("vm:1", gfn * kPageSize, false, scattered).ok());
    // Two order-9 entries and an order-0 tail.
    const Mfn huge = ram.Alloc(2 * kFramesPerHugePage + 2, kFramesPerHugePage, guest).value();
    guest_frames.push_back(huge);
    std::vector<PramPageEntry> huge_entries;
    BuildEntriesForRange(0, huge, 2 * kFramesPerHugePage + 2, true, huge_entries);
    EXPECT_TRUE(
        builder.AddFile("vm:2", huge_entries.size() * kPageSize, true, huge_entries).ok());
    // A one-frame parked blob: a backed frame that is not a metadata page.
    uisr_frame = ram.Alloc(1, 1, FrameOwner{FrameOwnerKind::kUisr, 1}).value();
    std::span<uint8_t> blob = ram.BackExtent(uisr_frame, 1).value();
    std::fill(blob.begin(), blob.begin() + 100, uint8_t{0x5C});
    EXPECT_TRUE(builder.AddFile("uisr:1", 100, false, {PramPageEntry{0, uisr_frame, 0}}).ok());
    // A file with no entries: an empty node chain.
    EXPECT_TRUE(builder.AddFile("vm:3", 0, false, {}).ok());

    auto handle = builder.Finalize();
    EXPECT_TRUE(handle.ok());
    root = handle->root_mfn;
    for (const FrameExtent& e : handle->extents) {
      const std::span<uint8_t> page = MetadataPage(ram, e.base);
      pages.push_back(Page{e.base, static_cast<uint32_t>(GetLe(page, 0, 4)),
                           std::vector<uint8_t>(page.begin(), page.end())});
    }
  }

  // Where an edited pointer goes: the page itself, the root (which the walk
  // always passes first), any metadata page, a guest frame, the parked blob,
  // past the end of RAM, or the end of the chain.
  Mfn PointerTarget(Rng& rng, const PhysicalMemory& ram, Mfn self) const {
    switch (rng.NextBelow(7)) {
      case 0:
        return self;
      case 1:
        return root;
      case 2:
        return pages[rng.NextBelow(pages.size())].mfn;
      case 3:
        return guest_frames[rng.NextBelow(guest_frames.size())] + rng.NextBelow(40);
      case 4:
        return uisr_frame;
      case 5:
        return rng.NextBool(0.5) ? ram.total_frames() + rng.NextBelow(4)
                                 : std::numeric_limits<uint64_t>::max() >> rng.NextBelow(16);
      default:
        return 0;
    }
  }

  Mfn root = 0;
  Mfn uisr_frame = 0;
  std::vector<Mfn> guest_frames;
  std::vector<Page> pages;
};

// One edit of `page` (whose clean bytes are `clean`), chosen by `rng`.
void EditPage(Rng& rng, const PhysicalMemory& ram, const MutationBed& bed,
              const MutationBed::Page& clean, std::span<uint8_t> page) {
  const uint32_t magic = clean.magic;
  // File-info fields sit after the variable-length name.
  const size_t name_len = magic == kFileMagic ? GetLe(clean.clean, 16, 4) : 0;
  const size_t first_node_at = 29 + name_len;
  const size_t entry_count_at = 37 + name_len;
  switch (rng.NextBelow(6)) {
    case 0:  // Root and node counts; a file's entry_count.
      if (magic == kFileMagic) {
        const uint64_t truth = GetLe(clean.clean, entry_count_at, 8);
        PutLe(page, entry_count_at, 8,
              MutatedCount(rng, truth, 2 * truth + 1, std::numeric_limits<uint64_t>::max()));
      } else {
        PutLe(page, 16, 4,
              MutatedCount(rng, GetLe(clean.clean, 16, 4),
                           magic == kRootMagic ? kRootCapacity : kNodeCapacity,
                           std::numeric_limits<uint32_t>::max()));
      }
      return;
    case 1:  // A chain pointer: root and node `next`, a file's first node.
      PutLe(page, magic == kFileMagic ? first_node_at : 8, 8,
            bed.PointerTarget(rng, ram, clean.mfn));
      return;
    case 2:  // A file-info pointer in a root page.
      if (magic == kRootMagic) {
        const uint64_t count = GetLe(clean.clean, 16, 4);
        PutLe(page, 20 + 8 * rng.NextBelow(count), 8, bed.PointerTarget(rng, ram, clean.mfn));
        return;
      }
      break;
    case 3:  // Entry type (bits 63..60) or order (bits 51..48) of a node word.
      if (magic == kNodeMagic) {
        const size_t at = 20 + 8 * rng.NextBelow(GetLe(clean.clean, 16, 4));
        const uint64_t word = GetLe(page, at, 8);
        const int shift = rng.NextBool(0.5) ? 60 : 48;
        PutLe(page, at, 8, (word & ~(uint64_t{0xF} << shift)) | (rng.NextBelow(16) << shift));
        return;
      }
      break;
    case 4:  // A file's name length.
      if (magic == kFileMagic) {
        const uint64_t pick = rng.NextBelow(4);
        PutLe(page, 16, 4,
              pick == 0   ? name_len + 1 + rng.NextBelow(8)
              : pick == 1 ? name_len - 1
              : pick == 2 ? std::numeric_limits<uint32_t>::max()
                          : rng.NextBelow(kPageSize + 64));
        return;
      }
      break;
    default:
      break;
  }
  // A single bit anywhere in the page, header, payload and zero tail alike.
  page[rng.NextBelow(kPageSize)] ^= static_cast<uint8_t>(1u << rng.NextBelow(8));
}

TEST(PramFuzzTest, ResealedMutationsParseOrFail) {
  PhysicalMemory ram(64 << 20);
  const MutationBed bed(ram);
  ASSERT_GE(bed.pages.size(), 9u);  // One root, four file-info pages, four node pages.
  ASSERT_TRUE(ParsePram(ram, bed.root).ok());

  int cases = 0;
  int parsed = 0;
  int cycles = 0;
  for (const uint64_t seed : LayoutSeeds()) {
    Rng rng(seed ^ 0x9A5E);
    for (int c = 0; c < 64; ++c) {
      std::vector<size_t> touched;
      const int edits = static_cast<int>(rng.NextInRange(1, 3));
      for (int e = 0; e < edits; ++e) {
        const size_t victim = rng.NextBelow(bed.pages.size());
        const std::span<uint8_t> page = MetadataPage(ram, bed.pages[victim].mfn);
        EditPage(rng, ram, bed, bed.pages[victim], page);
        Reseal(page);
        touched.push_back(victim);
      }
      std::vector<FrameExtent> preserve;
      auto image = ParsePram(ram, bed.root, &preserve);
      if (image.ok()) {
        ++parsed;
      } else {
        ASSERT_EQ(image.error().code(), ErrorCode::kDataLoss)
            << "seed " << seed << " case " << c << ": " << image.error().ToString();
        cycles += image.error().message().find("cycle") != std::string::npos ? 1 : 0;
      }
      ++cases;
      for (const size_t victim : touched) {
        const std::vector<uint8_t>& clean = bed.pages[victim].clean;
        std::copy(clean.begin(), clean.end(), MetadataPage(ram, bed.pages[victim].mfn).begin());
      }
    }
  }
  // Both outcomes occur, and the pointer edits reach the cycle check.
  EXPECT_GT(parsed, 0);
  EXPECT_LT(parsed, cases);
  EXPECT_GT(cycles, 0);
  RecordProperty("cases", cases);
  RecordProperty("parsed", parsed);
  RecordProperty("cycles", cycles);
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
