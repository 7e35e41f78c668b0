// Unit tests for src/hw: frame allocator, content words, scrubbing, machines.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "src/hw/machine.h"
#include "src/hw/physical_memory.h"
#include "src/sim/rng.h"

namespace hypertp {
namespace {

constexpr FrameOwner kGuest1{FrameOwnerKind::kGuest, 1};
constexpr FrameOwner kGuest2{FrameOwnerKind::kGuest, 2};
constexpr FrameOwner kHv{FrameOwnerKind::kHypervisor, 0};
constexpr FrameOwner kPram{FrameOwnerKind::kPramMeta, 0};

TEST(PhysicalMemoryTest, FreshRamIsAllFree) {
  PhysicalMemory ram(1 << 20);  // 1 MiB = 256 frames.
  EXPECT_EQ(ram.total_frames(), 256u);
  EXPECT_EQ(ram.free_frames(), 255u);  // Frame 0 is reserved.
  EXPECT_EQ(ram.allocated_frames(), 1u);
}

TEST(PhysicalMemoryTest, AllocThenFreeRestoresState) {
  PhysicalMemory ram(1 << 20);
  auto mfn = ram.Alloc(16, 1, kGuest1);
  ASSERT_TRUE(mfn.ok());
  EXPECT_EQ(ram.free_frames(), 239u);
  EXPECT_TRUE(ram.IsAllocated(*mfn));
  EXPECT_TRUE(ram.Free(*mfn, 16).ok());
  EXPECT_EQ(ram.free_frames(), 255u);
  EXPECT_FALSE(ram.IsAllocated(*mfn));
}

TEST(PhysicalMemoryTest, AlignmentRespected) {
  PhysicalMemory ram(16 << 20);
  // Misalign the heap with a single frame first.
  ASSERT_TRUE(ram.AllocFrame(kHv).ok());
  auto huge = ram.AllocHugePage(kGuest1);
  ASSERT_TRUE(huge.ok());
  EXPECT_EQ(*huge % kFramesPerHugePage, 0u);
}

TEST(PhysicalMemoryTest, ExhaustionIsReported) {
  PhysicalMemory ram(64 * kPageSize);
  auto big = ram.Alloc(64, 1, kGuest1);  // Frame 0 is reserved, only 63 free.
  ASSERT_FALSE(big.ok());
  EXPECT_EQ(big.error().code(), ErrorCode::kResourceExhausted);
  // Fragmentation: allocate all, free every other frame, then ask for 2.
  std::vector<Mfn> frames;
  for (int i = 0; i < 63; ++i) {
    frames.push_back(ram.AllocFrame(kHv).value());
  }
  for (size_t i = 0; i < frames.size(); i += 2) {
    ASSERT_TRUE(ram.Free(frames[i], 1).ok());
  }
  EXPECT_EQ(ram.free_frames(), 32u);
  EXPECT_FALSE(ram.Alloc(2, 1, kGuest1).ok());
}

TEST(PhysicalMemoryTest, FreeCoalescesNeighbors) {
  PhysicalMemory ram(64 * kPageSize);
  Mfn a = ram.Alloc(8, 1, kHv).value();
  Mfn b = ram.Alloc(8, 1, kHv).value();
  Mfn c = ram.Alloc(8, 1, kHv).value();
  ASSERT_TRUE(ram.Free(a, 8).ok());
  ASSERT_TRUE(ram.Free(c, 8).ok());
  ASSERT_TRUE(ram.Free(b, 8).ok());
  // After coalescing we can allocate all usable RAM contiguously again.
  EXPECT_TRUE(ram.Alloc(63, 1, kGuest1).ok());
}

TEST(PhysicalMemoryTest, DoubleFreeRejected) {
  PhysicalMemory ram(1 << 20);
  Mfn m = ram.Alloc(4, 1, kGuest1).value();
  ASSERT_TRUE(ram.Free(m, 4).ok());
  EXPECT_FALSE(ram.Free(m, 4).ok());
}

TEST(PhysicalMemoryTest, PartialFreeRejected) {
  PhysicalMemory ram(1 << 20);
  Mfn m = ram.Alloc(4, 1, kGuest1).value();
  EXPECT_FALSE(ram.Free(m, 2).ok());
  EXPECT_FALSE(ram.Free(m + 1, 3).ok());
}

TEST(PhysicalMemoryTest, ContentWordsRoundTrip) {
  PhysicalMemory ram(1 << 20);
  Mfn m = ram.Alloc(2, 1, kGuest1).value();
  EXPECT_EQ(ram.ReadWord(m).value(), 0u);  // Fresh frame reads zero.
  ASSERT_TRUE(ram.WriteWord(m, 0xDEADBEEF).ok());
  EXPECT_EQ(ram.ReadWord(m).value(), 0xDEADBEEFu);
  EXPECT_EQ(ram.ReadWord(m + 1).value(), 0u);
}

TEST(PhysicalMemoryTest, WriteToFreeFrameRejected) {
  PhysicalMemory ram(1 << 20);
  EXPECT_FALSE(ram.WriteWord(10, 1).ok());
}

TEST(PhysicalMemoryTest, FreeErasesContent) {
  PhysicalMemory ram(1 << 20);
  Mfn m = ram.Alloc(1, 1, kGuest1).value();
  ASSERT_TRUE(ram.WriteWord(m, 77).ok());
  ASSERT_TRUE(ram.Free(m, 1).ok());
  Mfn m2 = ram.Alloc(1, 1, kGuest2).value();
  ASSERT_EQ(m, m2);  // First fit reuses the hole.
  EXPECT_EQ(ram.ReadWord(m2).value(), 0u);
}

TEST(PhysicalMemoryTest, OwnerTracking) {
  PhysicalMemory ram(1 << 20);
  Mfn g = ram.Alloc(8, 1, kGuest1).value();
  ram.Alloc(8, 1, kHv).value();
  EXPECT_EQ(ram.OwnerOf(g + 3).value(), kGuest1);
  EXPECT_EQ(ram.ExtentsOfKind(FrameOwnerKind::kGuest).size(), 1u);
  EXPECT_EQ(ram.FreeAllOwnedBy(kGuest1), 8u);
  EXPECT_FALSE(ram.OwnerOf(g).ok());
}

TEST(PhysicalMemoryTest, ScrubPreservesOnlyListedExtents) {
  PhysicalMemory ram(1 << 20);
  Mfn guest = ram.Alloc(8, 1, kGuest1).value();
  Mfn hv = ram.Alloc(8, 1, kHv).value();
  Mfn pram = ram.Alloc(2, 1, kPram).value();
  ASSERT_TRUE(ram.WriteWord(guest, 0x1111).ok());
  ASSERT_TRUE(ram.WriteWord(hv, 0x2222).ok());

  uint64_t scrubbed = ram.ScrubExcept({FrameExtent{guest, 8, kGuest1}, FrameExtent{pram, 2, kPram}});
  EXPECT_EQ(scrubbed, 8u);  // Only the hypervisor extent.
  EXPECT_EQ(ram.ReadWord(guest).value(), 0x1111u);  // Guest memory kept in place.
  EXPECT_EQ(ram.ReadWord(hv).value(), 0u);          // HV state destroyed.
  EXPECT_FALSE(ram.IsAllocated(hv));
  EXPECT_TRUE(ram.IsAllocated(pram));
}

TEST(PhysicalMemoryTest, ScrubWithoutReservationDestroysGuest) {
  // The negative test from DESIGN.md: forgetting the PRAM reservation loses
  // guest memory, as it would on real hardware.
  PhysicalMemory ram(1 << 20);
  Mfn guest = ram.Alloc(8, 1, kGuest1).value();
  ASSERT_TRUE(ram.WriteWord(guest, 0xAAAA).ok());
  ram.ScrubExcept({});
  EXPECT_EQ(ram.ReadWord(guest).value(), 0u);
  EXPECT_FALSE(ram.IsAllocated(guest));
}

TEST(PhysicalMemoryTest, ReassignChangesOwner) {
  PhysicalMemory ram(1 << 20);
  Mfn m = ram.Alloc(4, 1, kGuest1).value();
  ASSERT_TRUE(ram.Reassign(m, 4, kGuest2).ok());
  EXPECT_EQ(ram.OwnerOf(m).value(), kGuest2);
  EXPECT_FALSE(ram.Reassign(m, 3, kGuest1).ok());
}

TEST(PhysicalMemoryTest, BackExtentProvidesZeroedContiguousStorage) {
  PhysicalMemory ram(1 << 20);
  Mfn base = ram.Alloc(4, 1, kGuest1).value();
  auto backing = ram.BackExtent(base, 4);
  ASSERT_TRUE(backing.ok()) << backing.error().ToString();
  ASSERT_EQ(backing->size(), 4 * kPageSize);
  for (uint8_t b : *backing) {
    ASSERT_EQ(b, 0);
  }

  // Bytes written through the span are visible to later views of the run at
  // the right frame offset, and writes through a view land back in the span.
  (*backing)[kPageSize + 5] = 0xAB;
  auto view = std::as_const(ram).BackedExtent(base, 4);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ((*view)[kPageSize + 5], 0xAB);
  auto writable = ram.BackedExtent(base, 4);
  ASSERT_TRUE(writable.ok());
  (*writable)[2 * kPageSize] = 0x11;
  (*writable)[2 * kPageSize + 1] = 0x22;
  EXPECT_EQ((*backing)[2 * kPageSize], 0x11);
  EXPECT_EQ((*backing)[2 * kPageSize + 1], 0x22);
}

TEST(PhysicalMemoryTest, BackExtentRejectsInvalidRanges) {
  PhysicalMemory ram(1 << 20);
  Mfn base = ram.Alloc(4, 1, kGuest1).value();
  EXPECT_FALSE(ram.BackExtent(base, 0).ok());
  EXPECT_FALSE(ram.BackExtent(base, 5).ok());       // Runs past the extent.
  EXPECT_FALSE(ram.BackExtent(base + 100, 1).ok()); // Unallocated.
  // A range straddling two separately allocated extents is rejected even if
  // the frames happen to be adjacent.
  Mfn second = ram.Alloc(4, 1, kGuest1).value();
  if (second == base + 4) {
    EXPECT_FALSE(ram.BackExtent(base, 8).ok());
  }
}

TEST(PhysicalMemoryTest, BackedExtentRequiresExactKey) {
  PhysicalMemory ram(1 << 20);
  Mfn base = ram.Alloc(4, 1, kGuest1).value();
  ASSERT_TRUE(ram.BackExtent(base, 4).ok());
  EXPECT_TRUE(ram.BackedExtent(base, 4).ok());
  EXPECT_FALSE(ram.BackedExtent(base, 2).ok());      // Size mismatch.
  EXPECT_FALSE(ram.BackedExtent(base + 1, 3).ok());  // Interior start.
  EXPECT_FALSE(ram.BackedExtent(base + 4, 1).ok());  // Never backed.
}

TEST(PhysicalMemoryTest, FreeDropsBacking) {
  PhysicalMemory ram(1 << 20);
  Mfn base = ram.Alloc(4, 1, kGuest1).value();
  auto backing = ram.BackExtent(base, 4);
  ASSERT_TRUE(backing.ok());
  (*backing)[0] = 0xEE;
  ASSERT_TRUE(ram.Free(base, 4).ok());
  EXPECT_FALSE(ram.BackedExtent(base, 4).ok());
  // Re-allocating and re-backing the same frames yields fresh zeroed storage.
  Mfn again = ram.Alloc(4, 1, kGuest1).value();
  ASSERT_EQ(again, base);  // First-fit returns the same hole.
  auto fresh = ram.BackExtent(again, 4);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ((*fresh)[0], 0);
}

TEST(PhysicalMemoryTest, BackExtentSkipZeroPrefixStillZeroesTheTail) {
  PhysicalMemory ram(1 << 20);
  Mfn base = ram.Alloc(2, 1, kGuest1).value();
  const size_t prefix = kPageSize + 100;
  auto backing = ram.BackExtent(base, 2, prefix);
  ASSERT_TRUE(backing.ok());
  // The prefix is the caller's to fill; everything past it must be zero.
  for (size_t i = prefix; i < backing->size(); ++i) {
    ASSERT_EQ((*backing)[i], 0) << "offset " << i;
  }
  std::fill(backing->begin(), backing->begin() + static_cast<ptrdiff_t>(prefix), 0x77);
  auto view = std::as_const(ram).BackedExtent(base, 2);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ((*view)[kPageSize + 99], 0x77);
  EXPECT_EQ((*view)[kPageSize + 100], 0x00);
  // A skip larger than the backing is clamped, not an error.
  Mfn other = ram.Alloc(1, 1, kGuest1).value();
  EXPECT_TRUE(ram.BackExtent(other, 1, 10 * kPageSize).ok());
}

TEST(PhysicalMemoryTest, ReBackingResetsContents) {
  PhysicalMemory ram(1 << 20);
  Mfn base = ram.Alloc(2, 1, kGuest1).value();
  auto first = ram.BackExtent(base, 2);
  ASSERT_TRUE(first.ok());
  std::fill(first->begin(), first->end(), 0x5A);
  auto second = ram.BackExtent(base, 2);
  ASSERT_TRUE(second.ok());
  for (uint8_t b : *second) {
    ASSERT_EQ(b, 0);
  }
}

// A seeded layout over a 96-frame RAM: 1..16-frame extents filling it, owned
// mostly by kGuest1 (so same-owner extents sit side by side) and sometimes by
// kGuest2 (a foreign owner mid-range), then about a quarter freed (gaps).
std::vector<FrameExtent> RandomLayout(PhysicalMemory& ram, Rng& rng) {
  std::vector<FrameExtent> extents;
  while (true) {
    const uint64_t count = static_cast<uint64_t>(rng.NextInRange(1, 16));
    const FrameOwner owner = rng.NextBool(0.25) ? kGuest2 : kGuest1;
    auto base = ram.Alloc(count, 1, owner);
    if (!base.ok()) {
      break;
    }
    extents.push_back(FrameExtent{*base, count, owner});
  }
  std::vector<FrameExtent> kept;
  for (const FrameExtent& e : extents) {
    if (rng.NextBool(0.25)) {
      EXPECT_TRUE(ram.Free(e.base, e.count).ok());
    } else {
      kept.push_back(e);
    }
  }
  return kept;
}

// The per-frame reference FirstFrameNotOwnedBy replaces.
std::optional<Mfn> FirstFrameNotOwnedByScan(const PhysicalMemory& ram, Mfn base, uint64_t count,
                                            FrameOwner owner) {
  for (Mfn m = base; m < base + count; ++m) {
    auto actual = ram.OwnerOf(m);
    if (!actual.ok() || !(*actual == owner)) {
      return m;
    }
  }
  return std::nullopt;
}

TEST(PhysicalMemoryTest, FirstFrameNotOwnedByMatchesPerFrameScan) {
  int owned_across_extents = 0;  // Runs held whole over >1 adjacent extent.
  int foreign_mid_range = 0;     // Runs failing on an allocated, foreign frame past their base.
  int free_mid_range = 0;        // Runs failing on a free frame past their base.
  for (uint64_t seed = 1; seed <= 250; ++seed) {
    PhysicalMemory ram(96 * kPageSize);
    Rng rng(seed);
    const std::vector<FrameExtent> extents = RandomLayout(ram, rng);
    std::vector<std::pair<Mfn, uint64_t>> queries;
    // Runs that start or end on an extent boundary and reach into neighbours.
    for (const FrameExtent& e : extents) {
      const uint64_t reach = static_cast<uint64_t>(rng.NextInRange(0, 24));
      queries.emplace_back(e.base, e.count);
      queries.emplace_back(e.base, e.count + reach);
      queries.emplace_back(e.end() - std::min(reach, e.end()), std::min(reach, e.end()));
      queries.emplace_back(e.base - std::min(reach, e.base), std::min(reach, e.base) + 1);
    }
    // Arbitrary runs, some empty and some past the end of RAM.
    for (int i = 0; i < 40; ++i) {
      queries.emplace_back(rng.NextBelow(ram.total_frames() + 8), rng.NextBelow(40));
    }
    for (const auto& [base, count] : queries) {
      for (const FrameOwner owner : {kGuest1, kGuest2}) {
        const std::optional<Mfn> want = FirstFrameNotOwnedByScan(ram, base, count, owner);
        ASSERT_EQ(ram.FirstFrameNotOwnedBy(base, count, owner), want)
            << "seed " << seed << " run [" << base << ", +" << count << ") owner "
            << owner.id;
        if (!want.has_value() && count > 0) {
          const bool spans = std::any_of(extents.begin(), extents.end(), [&](const FrameExtent& e) {
            return e.Contains(base) && e.end() < base + count;
          });
          owned_across_extents += spans ? 1 : 0;
        } else if (want.has_value() && *want > base) {
          (ram.IsAllocated(*want) ? foreign_mid_range : free_mid_range) += 1;
        }
      }
    }
  }
  // The generator reaches every shape the walk has to get right.
  EXPECT_GT(owned_across_extents, 1000);
  EXPECT_GT(foreign_mid_range, 1000);
  EXPECT_GT(free_mid_range, 1000);
}

// What one frame reads back through the public interface.
struct FrameView {
  bool allocated = false;
  uint64_t word = 0;
  std::vector<uint8_t> page;

  bool operator==(const FrameView&) const = default;
};

// Every frame's word, and its page-sized slice of whichever of the
// `backings` ever made still holds bytes (empty when none does).
std::vector<FrameView> ViewAll(const PhysicalMemory& ram,
                               const std::vector<FrameExtent>& backings) {
  std::vector<FrameView> out(ram.total_frames());
  for (Mfn m = 0; m < ram.total_frames(); ++m) {
    out[m] = FrameView{ram.IsAllocated(m), ram.ReadWord(m).value(), {}};
  }
  for (const FrameExtent& b : backings) {
    auto bytes = ram.BackedExtent(b.base, b.count);
    if (!bytes.ok()) {
      continue;
    }
    for (Mfn m = b.base; m < b.end(); ++m) {
      const auto page = bytes->subspan((m - b.base) * kPageSize, kPageSize);
      out[m].page.assign(page.begin(), page.end());
    }
  }
  return out;
}

bool HoldsData(const FrameView& v) { return v.word != 0 || !v.page.empty(); }

// Generated extents holding content words, multi-frame backings and one-frame
// backings (metadata-page style) go through each of the four range drops.
// Against a per-frame model: exactly the dropped frames read 0 / empty (a
// re-backed run reads a zeroed page), and every other frame, the neighbours
// at base-1 and end included, reads what it read before.
TEST(PhysicalMemoryTest, RangeDropsClearExactlyTheDroppedFrames) {
  int neighbours_holding_data = 0;
  for (uint64_t seed = 1; seed <= 240; ++seed) {
    PhysicalMemory ram(96 * kPageSize);
    Rng rng(seed * 7919);
    const std::vector<FrameExtent> extents = RandomLayout(ram, rng);
    ASSERT_FALSE(extents.empty());
    std::vector<FrameExtent> backings;
    for (const FrameExtent& e : extents) {
      FrameExtent multi{e.base, 0, e.owner};
      if (rng.NextBool(0.4)) {
        const uint64_t skip = rng.NextBelow(e.count);
        const uint64_t frames = 1 + rng.NextBelow(e.count - skip);
        auto span = ram.BackExtent(e.base + skip, frames);
        ASSERT_TRUE(span.ok());
        for (size_t i = 0; i < span->size(); i += 509) {
          (*span)[i] = static_cast<uint8_t>(1 + rng.NextBelow(255));
        }
        multi = FrameExtent{e.base + skip, frames, e.owner};
        backings.push_back(multi);
      }
      for (Mfn m = e.base; m < e.end(); ++m) {
        // Backing a frame drops its word, so the word goes in second.
        if (rng.NextBool(0.3) && !multi.Contains(m)) {
          auto page = ram.BackExtent(m, 1);
          ASSERT_TRUE(page.ok());
          (*page)[0] = static_cast<uint8_t>(m);
          (*page)[1] = 0x5A;
          backings.push_back(FrameExtent{m, 1, e.owner});
        }
        if (rng.NextBool(0.6)) {
          ASSERT_TRUE(ram.WriteWord(m, 1 + rng.NextBelow(1000)).ok());
        }
      }
    }
    const std::vector<FrameView> before = ViewAll(ram, backings);
    std::vector<FrameView> want = before;
    auto drop = [&want](const FrameExtent& e) {
      for (Mfn m = e.base; m < e.end(); ++m) {
        want[m] = FrameView{};
      }
    };
    std::vector<FrameExtent> dropped;
    const int op = static_cast<int>(seed % 4);
    if (op == 0) {
      const FrameExtent& e = extents[rng.NextBelow(extents.size())];
      ASSERT_TRUE(ram.Free(e.base, e.count).ok());
      dropped.push_back(e);
    } else if (op == 1) {
      const FrameOwner owner = rng.NextBool(0.5) ? kGuest1 : kGuest2;
      uint64_t frames = 0;
      for (const FrameExtent& e : extents) {
        if (e.owner == owner) {
          dropped.push_back(e);
          frames += e.count;
        }
      }
      EXPECT_EQ(ram.FreeAllOwnedBy(owner), frames);
    } else if (op == 2) {
      std::vector<FrameExtent> preserved;
      uint64_t frames = 0;
      for (const FrameExtent& e : extents) {
        if (rng.NextBool(0.5)) {
          preserved.push_back(e);
        } else {
          dropped.push_back(e);
          frames += e.count;
        }
      }
      EXPECT_EQ(ram.ScrubExcept(preserved), frames);
    } else {
      const FrameExtent& e = extents[rng.NextBelow(extents.size())];
      const uint64_t skip = rng.NextBelow(e.count);
      const FrameExtent run{e.base + skip, 1 + rng.NextBelow(e.count - skip), e.owner};
      ASSERT_TRUE(ram.BackExtent(run.base, run.count).ok());
      // An old backing the run overlaps goes whole; its frames outside the
      // run keep their words and lose their bytes.
      for (const FrameExtent& b : backings) {
        if (b.base < run.end() && run.base < b.end()) {
          for (Mfn m = b.base; m < b.end(); ++m) {
            want[m].page.clear();
          }
        }
      }
      for (Mfn m = run.base; m < run.end(); ++m) {
        want[m] = FrameView{true, 0, std::vector<uint8_t>(kPageSize, 0)};
      }
      dropped.push_back(run);
      backings.push_back(run);
    }
    for (const FrameExtent& e : dropped) {
      if (op != 3) {
        drop(e);
      }
      neighbours_holding_data += (e.base > 0 && HoldsData(before[e.base - 1])) ? 1 : 0;
      neighbours_holding_data += (e.end() < before.size() && HoldsData(before[e.end()])) ? 1 : 0;
    }
    const std::vector<FrameView> got = ViewAll(ram, backings);
    for (Mfn m = 0; m < got.size(); ++m) {
      ASSERT_EQ(got[m], want[m]) << "seed " << seed << " op " << op << " frame " << m;
    }
  }
  // The neighbour check is only as strong as the data next to each drop.
  EXPECT_GT(neighbours_holding_data, 400);
}

TEST(MachineTest, ProfilesMatchTable3) {
  MachineProfile m1 = MachineProfile::M1();
  EXPECT_EQ(m1.threads, 8);
  EXPECT_EQ(m1.ram_bytes, 16ull << 30);
  EXPECT_DOUBLE_EQ(m1.network_gbps, 1.0);

  MachineProfile m2 = MachineProfile::M2();
  EXPECT_EQ(m2.threads, 28);
  EXPECT_EQ(m2.ram_bytes, 64ull << 30);

  MachineProfile c1 = MachineProfile::C1();
  EXPECT_EQ(c1.ram_bytes, 96ull << 30);
  EXPECT_DOUBLE_EQ(c1.network_gbps, 10.0);
}

TEST(MachineTest, WorkerThreadsExcludeAdminReservation) {
  Machine m1(MachineProfile::M1(), 1);
  EXPECT_EQ(m1.worker_threads(), 6);  // 8 threads - 2 reserved.
  Machine m2(MachineProfile::M2(), 2);
  EXPECT_EQ(m2.worker_threads(), 26);
}

TEST(MachineTest, MemoryMatchesProfile) {
  Machine m(MachineProfile::M1(), 7);
  EXPECT_EQ(m.memory().total_bytes(), 16ull << 30);
  EXPECT_EQ(m.hostname(), "M1-7");
}

}  // namespace
}  // namespace hypertp
