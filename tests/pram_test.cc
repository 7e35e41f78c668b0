// Unit and property tests for the PRAM persistent-over-kexec structure.

#include <gtest/gtest.h>

#include "src/pram/pram.h"

namespace hypertp {
namespace {

constexpr FrameOwner kGuest1{FrameOwnerKind::kGuest, 1};

// Allocates `frames` guest frames (possibly in several extents to force
// scatter) and returns the (gfn, mfn) map.
std::vector<std::pair<Gfn, Mfn>> AllocGuest(PhysicalMemory& ram, uint64_t frames,
                                            uint64_t chunk = 64) {
  std::vector<std::pair<Gfn, Mfn>> map;
  Gfn gfn = 0;
  while (frames > 0) {
    const uint64_t n = std::min(frames, chunk);
    Mfn base = ram.Alloc(n, 1, kGuest1).value();
    for (uint64_t i = 0; i < n; ++i) {
      map.emplace_back(gfn++, base + i);
    }
    frames -= n;
  }
  return map;
}

TEST(PramBuilderTest, RoundTripSingleFile) {
  PhysicalMemory ram(64 << 20);
  auto map = AllocGuest(ram, 256);
  auto entries = BuildPageEntries(map, /*huge_pages=*/false);

  PramBuilder builder(ram);
  auto id = builder.AddFile("vm-a", 256 * kPageSize, false, entries);
  ASSERT_TRUE(id.ok());
  auto handle = builder.Finalize();
  ASSERT_TRUE(handle.ok()) << handle.error().ToString();
  EXPECT_GT(handle->root_mfn, 0u);

  auto image = ParsePram(ram, handle->root_mfn);
  ASSERT_TRUE(image.ok()) << image.error().ToString();
  ASSERT_EQ(image->files.size(), 1u);
  EXPECT_EQ(image->files[0].name, "vm-a");
  EXPECT_EQ(image->files[0].file_id, *id);
  EXPECT_EQ(image->files[0].size_bytes, 256 * kPageSize);
  EXPECT_EQ(image->files[0].entries, entries);
}

TEST(PramBuilderTest, RoundTripManyFiles) {
  PhysicalMemory ram(256 << 20);
  PramBuilder builder(ram);
  std::vector<std::vector<PramPageEntry>> all_entries;
  for (int i = 0; i < 12; ++i) {
    auto map = AllocGuest(ram, 128, 32);
    auto entries = BuildPageEntries(map, false);
    all_entries.push_back(entries);
    ASSERT_TRUE(builder.AddFile("vm-" + std::to_string(i), 128 * kPageSize, false, entries).ok());
  }
  auto handle = builder.Finalize();
  ASSERT_TRUE(handle.ok());
  auto image = ParsePram(ram, handle->root_mfn);
  ASSERT_TRUE(image.ok());
  ASSERT_EQ(image->files.size(), 12u);
  for (int i = 0; i < 12; ++i) {
    EXPECT_EQ(image->files[static_cast<size_t>(i)].entries, all_entries[static_cast<size_t>(i)]);
  }
}

TEST(PramBuilderTest, GfnHolesEncodedAsSkips) {
  PhysicalMemory ram(64 << 20);
  Mfn a = ram.Alloc(4, 1, kGuest1).value();
  Mfn b = ram.Alloc(4, 1, kGuest1).value();
  // Guest address space with an MMIO hole: gfns 0-3 and 1000-1003.
  std::vector<PramPageEntry> entries;
  for (uint64_t i = 0; i < 4; ++i) {
    entries.push_back({i, a + i, 0});
  }
  for (uint64_t i = 0; i < 4; ++i) {
    entries.push_back({1000 + i, b + i, 0});
  }
  PramBuilder builder(ram);
  ASSERT_TRUE(builder.AddFile("holey", 8 * kPageSize, false, entries).ok());
  auto handle = builder.Finalize();
  ASSERT_TRUE(handle.ok());
  auto image = ParsePram(ram, handle->root_mfn);
  ASSERT_TRUE(image.ok());
  EXPECT_EQ(image->files[0].entries, entries);
}

TEST(PramBuilderTest, HugePageEntriesCollapse) {
  PhysicalMemory ram(64 << 20);
  Mfn base = ram.AllocHugePage(kGuest1).value();
  std::vector<std::pair<Gfn, Mfn>> map;
  for (uint64_t i = 0; i < kFramesPerHugePage; ++i) {
    map.emplace_back(i, base + i);
  }
  auto huge_entries = BuildPageEntries(map, true);
  ASSERT_EQ(huge_entries.size(), 1u);
  EXPECT_EQ(huge_entries[0].order, kHugePageOrder);

  auto small_entries = BuildPageEntries(map, false);
  EXPECT_EQ(small_entries.size(), kFramesPerHugePage);
}

TEST(PramBuilderTest, HugePagesShrinkMetadataByOrdersOfMagnitude) {
  // Paper §5.5: ~2 MB of metadata per GB with 4K pages, ~4 KB per GB with 2M.
  PhysicalMemory ram(4ull << 30);
  const uint64_t frames = (1ull << 30) / kPageSize;  // 1 GiB worth.

  std::vector<std::pair<Gfn, Mfn>> map;
  Mfn base = ram.Alloc(frames, kFramesPerHugePage, kGuest1).value();
  for (uint64_t i = 0; i < frames; ++i) {
    map.emplace_back(i, base + i);
  }

  PramBuilder huge_builder(ram);
  ASSERT_TRUE(huge_builder.AddFile("huge", 1ull << 30, true, BuildPageEntries(map, true)).ok());
  const uint64_t huge_pages = huge_builder.MetadataPagesNeeded();

  PramBuilder small_builder(ram);
  ASSERT_TRUE(small_builder.AddFile("small", 1ull << 30, false, BuildPageEntries(map, false)).ok());
  const uint64_t small_pages = small_builder.MetadataPagesNeeded();

  EXPECT_LE(huge_pages, 4u);            // ~3 pages = 12 KB.
  EXPECT_GE(small_pages, 500u);         // ~518 pages = ~2 MB.
  EXPECT_GT(small_pages / huge_pages, 100u);
}

TEST(PramBuilderTest, MetadataPagesNeededMatchesFinalize) {
  PhysicalMemory ram(128 << 20);
  PramBuilder builder(ram);
  for (int i = 0; i < 3; ++i) {
    auto map = AllocGuest(ram, 700, 100);
    ASSERT_TRUE(builder.AddFile("vm" + std::to_string(i), 700 * kPageSize, false,
                                BuildPageEntries(map, false))
                    .ok());
  }
  const uint64_t predicted = builder.MetadataPagesNeeded();
  auto handle = builder.Finalize();
  ASSERT_TRUE(handle.ok());
  EXPECT_EQ(handle->metadata_pages, predicted);
}

TEST(PramBuilderTest, RejectsUnsortedEntries) {
  PhysicalMemory ram(16 << 20);
  Mfn m = ram.Alloc(4, 1, kGuest1).value();
  PramBuilder builder(ram);
  std::vector<PramPageEntry> bad = {{4, m, 0}, {2, m + 1, 0}};
  EXPECT_FALSE(builder.AddFile("bad", 0, false, bad).ok());
}

TEST(PramBuilderTest, RejectsMisalignedHugeEntry) {
  PhysicalMemory ram(16 << 20);
  PramBuilder builder(ram);
  std::vector<PramPageEntry> bad = {{0, 3, kHugePageOrder}};  // mfn 3 not 2M-aligned.
  EXPECT_FALSE(builder.AddFile("bad", 0, false, bad).ok());
}

TEST(PramBuilderTest, RejectsOverlongName) {
  PhysicalMemory ram(16 << 20);
  PramBuilder builder(ram);
  EXPECT_FALSE(builder.AddFile(std::string(100, 'x'), 0, false, {}).ok());
}

TEST(PramBuilderTest, SingleUse) {
  PhysicalMemory ram(16 << 20);
  PramBuilder builder(ram);
  ASSERT_TRUE(builder.Finalize().ok());
  EXPECT_FALSE(builder.Finalize().ok());
  EXPECT_FALSE(builder.AddFile("late", 0, false, {}).ok());
}

TEST(PramParseTest, ScrubbedMetadataIsDataLoss) {
  PhysicalMemory ram(64 << 20);
  auto map = AllocGuest(ram, 64);
  PramBuilder builder(ram);
  ASSERT_TRUE(builder.AddFile("vm", 64 * kPageSize, false, BuildPageEntries(map, false)).ok());
  auto handle = builder.Finalize();
  ASSERT_TRUE(handle.ok());

  // A scrub that forgets the PRAM metadata destroys the structure.
  ram.ScrubExcept({});
  auto image = ParsePram(ram, handle->root_mfn);
  ASSERT_FALSE(image.ok());
  EXPECT_EQ(image.error().code(), ErrorCode::kDataLoss);
}

TEST(PramParseTest, CorruptedNodePageIsDataLoss) {
  PhysicalMemory ram(64 << 20);
  auto map = AllocGuest(ram, 64);
  PramBuilder builder(ram);
  ASSERT_TRUE(builder.AddFile("vm", 64 * kPageSize, false, BuildPageEntries(map, false)).ok());
  auto handle = builder.Finalize();
  ASSERT_TRUE(handle.ok());

  // Clobber one metadata page (not the root: pick the first extent, which is
  // a node page because builders lay out node chains first).
  Mfn victim = handle->extents.front().base;
  auto page = ram.BackedExtent(victim, 1);
  ASSERT_TRUE(page.ok());
  (*page)[kPageSize / 2] ^= 0xFF;

  auto image = ParsePram(ram, handle->root_mfn);
  ASSERT_FALSE(image.ok());
  EXPECT_EQ(image.error().code(), ErrorCode::kDataLoss);
}

// The page CRC is computed over the whole page with its own field zeroed,
// so the check streams over the bytes around it: a flip in the stored CRC
// itself (bytes 4-7), in the last payload byte or in the page's zero tail
// must still be caught.
TEST(PramParseTest, FlippedCrcFieldOrLastPayloadByteIsDataLoss) {
  PhysicalMemory ram(64 << 20);
  auto map = AllocGuest(ram, 64);
  PramBuilder builder(ram);
  ASSERT_TRUE(builder.AddFile("vm", 64 * kPageSize, false, BuildPageEntries(map, false)).ok());
  auto handle = builder.Finalize();
  ASSERT_TRUE(handle.ok());

  const Mfn node = handle->extents.front().base;  // Node chains are laid out first.
  auto page = ram.BackedExtent(node, 1);
  ASSERT_TRUE(page.ok());
  ASSERT_EQ(page->size(), kPageSize);
  // Node page: magic u32, crc u32, next u64, count u32, then count u64 words.
  const std::span<uint8_t> bytes = *page;
  const uint32_t words = bytes[16] | bytes[17] << 8 | bytes[18] << 16 |
                         static_cast<uint32_t>(bytes[19]) << 24;
  ASSERT_GT(words, 0u);
  const size_t last_payload = 20 + 8 * static_cast<size_t>(words) - 1;
  ASSERT_LT(last_payload + 1, kPageSize);  // The page has a zero tail.
  for (const size_t at : {size_t{4}, size_t{5}, size_t{6}, size_t{7}, last_payload,
                          last_payload + 1, kPageSize - 1}) {
    SCOPED_TRACE("byte " + std::to_string(at));
    bytes[at] ^= 0x01;
    auto image = ParsePram(ram, handle->root_mfn);
    bytes[at] ^= 0x01;
    ASSERT_FALSE(image.ok());
    EXPECT_EQ(image.error().code(), ErrorCode::kDataLoss);
    EXPECT_NE(image.error().message().find("CRC mismatch"), std::string::npos)
        << image.error().ToString();
  }
  EXPECT_TRUE(ParsePram(ram, handle->root_mfn).ok());
}

TEST(PramPreservationTest, CoversMetadataAndGuestFrames) {
  PhysicalMemory ram(64 << 20);
  auto map = AllocGuest(ram, 256, 64);
  PramBuilder builder(ram);
  ASSERT_TRUE(builder.AddFile("vm", 256 * kPageSize, false, BuildPageEntries(map, false)).ok());
  auto handle = builder.Finalize();
  ASSERT_TRUE(handle.ok());
  std::vector<FrameExtent> preserve;
  auto image = ParsePram(ram, handle->root_mfn, &preserve);
  ASSERT_TRUE(image.ok());
  ASSERT_FALSE(preserve.empty());

  // The scrub keeps guest + PRAM frames and reclaims nothing else here
  // (nothing else was allocated).
  ASSERT_TRUE(ram.WriteWord(map[0].second, 0xCAFE).ok());
  ram.ScrubExcept(preserve);
  EXPECT_EQ(ram.ReadWord(map[0].second).value(), 0xCAFEu);
  // PRAM still parses after the scrub.
  EXPECT_TRUE(ParsePram(ram, handle->root_mfn).ok());
}

TEST(PramPreservationTest, SurvivesScrubWithHostileNeighbors) {
  PhysicalMemory ram(64 << 20);
  // Interleave guest and hypervisor allocations to fragment the space.
  std::vector<std::pair<Gfn, Mfn>> map;
  Gfn gfn = 0;
  for (int i = 0; i < 16; ++i) {
    Mfn g = ram.Alloc(16, 1, kGuest1).value();
    ram.Alloc(8, 1, FrameOwner{FrameOwnerKind::kHypervisor, 0}).value();
    for (uint64_t j = 0; j < 16; ++j) {
      map.emplace_back(gfn++, g + j);
    }
  }
  PramBuilder builder(ram);
  ASSERT_TRUE(
      builder.AddFile("vm", map.size() * kPageSize, false, BuildPageEntries(map, false)).ok());
  auto handle = builder.Finalize();
  ASSERT_TRUE(handle.ok());
  std::vector<FrameExtent> preserve;
  auto image = ParsePram(ram, handle->root_mfn, &preserve);
  ASSERT_TRUE(image.ok());
  ASSERT_FALSE(preserve.empty());

  const uint64_t guest_frames = 16 * 16;
  const uint64_t before = ram.allocated_frames();
  const uint64_t scrubbed = ram.ScrubExcept(preserve);
  EXPECT_EQ(scrubbed, 16u * 8u);  // All hypervisor frames, nothing else.
  EXPECT_EQ(ram.allocated_frames(), before - scrubbed);
  // Every guest frame is still allocated.
  uint64_t guest_alloc = 0;
  for (const auto& ext : ram.ExtentsOfKind(FrameOwnerKind::kGuest)) {
    guest_alloc += ext.count;
  }
  EXPECT_EQ(guest_alloc, guest_frames);
}

// Reference implementation of entry construction: the original per-frame
// greedy loop. BuildEntriesForRange must emit exactly these entries.
std::vector<PramPageEntry> GreedyEntries(Gfn gfn, Mfn mfn, uint64_t frames, bool huge_pages) {
  std::vector<PramPageEntry> out;
  uint64_t i = 0;
  while (i < frames) {
    if (huge_pages && (gfn + i) % kFramesPerHugePage == 0 &&
        (mfn + i) % kFramesPerHugePage == 0 && frames - i >= kFramesPerHugePage) {
      out.push_back(PramPageEntry{gfn + i, mfn + i, 9});
      i += kFramesPerHugePage;
    } else {
      out.push_back(PramPageEntry{gfn + i, mfn + i, 0});
      ++i;
    }
  }
  return out;
}

TEST(BuildEntriesTest, RangeMatchesGreedyReference) {
  struct Case {
    Gfn gfn;
    Mfn mfn;
    uint64_t frames;
    bool huge_pages;
  };
  const Case cases[] = {
      {0, 0, 0, true},            // Empty range.
      {0, 1024, 1, true},         // Single frame.
      {0, 512, 512, true},        // Exactly one aligned huge page.
      {0, 512, 1536, true},       // Three aligned huge pages.
      {3, 515, 1200, true},       // Misaligned head, aligned middle, tail.
      {3, 515, 508, true},        // Head only, never reaches a boundary.
      {0, 512, 511, true},        // One short of a huge page: all singles.
      {7, 512, 2048, true},       // gfn%512 != mfn%512: unalignable forever.
      {512, 513, 4096, true},     // Off by one: also unalignable.
      {0, 512, 1536, false},      // huge_pages off: all order-0.
      {100, 700, 1500, true},     // Same misalignment offset: alignable.
      {511, 1023, 1025, true},    // Single head frame then huge pages.
  };
  for (const Case& c : cases) {
    std::vector<PramPageEntry> got;
    BuildEntriesForRange(c.gfn, c.mfn, c.frames, c.huge_pages, got);
    EXPECT_EQ(got, GreedyEntries(c.gfn, c.mfn, c.frames, c.huge_pages))
        << "gfn " << c.gfn << " mfn " << c.mfn << " frames " << c.frames << " huge "
        << c.huge_pages;
  }
}

TEST(BuildEntriesTest, BuildPageEntriesMatchesPerRunGreedy) {
  // A scattered map: several contiguous runs with gfn holes and one
  // mfn discontinuity inside a gfn-contiguous stretch.
  std::vector<std::pair<Gfn, Mfn>> map;
  auto add_run = [&map](Gfn gfn, Mfn mfn, uint64_t frames) {
    for (uint64_t i = 0; i < frames; ++i) {
      map.emplace_back(gfn + i, mfn + i);
    }
  };
  add_run(0, 1024, 700);       // Aligned start, partial tail.
  add_run(700, 4096, 324);     // gfn contiguous with previous but mfn jumps.
  add_run(2048, 10240, 1024);  // gfn hole before an aligned run.
  add_run(4000, 20001, 600);   // Unalignable run.

  for (bool huge_pages : {false, true}) {
    std::vector<PramPageEntry> expected;
    auto append = [&](Gfn gfn, Mfn mfn, uint64_t frames) {
      auto e = GreedyEntries(gfn, mfn, frames, huge_pages);
      expected.insert(expected.end(), e.begin(), e.end());
    };
    append(0, 1024, 700);
    append(700, 4096, 324);
    append(2048, 10240, 1024);
    append(4000, 20001, 600);
    EXPECT_EQ(BuildPageEntries(map, huge_pages), expected) << "huge " << huge_pages;
  }
}

TEST(PramImageTest, FindFile) {
  PramImage image;
  image.files.push_back(PramFile{7, "a", 0, false, {}});
  image.files.push_back(PramFile{9, "b", 0, false, {}});
  ASSERT_NE(image.FindFile(9), nullptr);
  EXPECT_EQ(image.FindFile(9)->name, "b");
  EXPECT_EQ(image.FindFile(8), nullptr);
}

}  // namespace
}  // namespace hypertp
