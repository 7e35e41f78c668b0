#include "src/pram/pram.h"

#include <algorithm>
#include <set>
#include <span>

#include "src/base/bytes.h"
#include "src/base/crc32.h"
#include "src/base/logging.h"

namespace hypertp {
namespace {

constexpr uint32_t kRootMagic = 0x4D415250;  // "PRAM"
constexpr uint32_t kFileMagic = 0x49465250;  // "PRFI"
constexpr uint32_t kNodeMagic = 0x444E5250;  // "PRND"

// Page header: magic u32 + crc u32.
constexpr size_t kPageHeaderSize = 8;
// Root page: header + next u64 + count u32.
constexpr size_t kRootHeaderSize = kPageHeaderSize + 8 + 4;
constexpr size_t kRootCapacity = (kPageSize - kRootHeaderSize) / 8;
// Node page: header + next u64 + count u32.
constexpr size_t kNodeHeaderSize = kPageHeaderSize + 8 + 4;
constexpr size_t kNodeCapacity = (kPageSize - kNodeHeaderSize) / 8;

// 8-byte packed page entry:
//   bits 63..60  type: 0 = map, 1 = skip
//   map:  bits 51..48 order, bits 47..0 mfn
//   skip: bits 47..0 gfn delta (pages)
constexpr uint64_t kEntryTypeShift = 60;
constexpr uint64_t kEntryTypeMap = 0;
constexpr uint64_t kEntryTypeSkip = 1;
constexpr uint64_t kEntryOrderShift = 48;
constexpr uint64_t kEntryOrderMask = 0xF;
constexpr uint64_t kEntryValueMask = 0xFFFFFFFFFFFFull;  // Low 48 bits.

uint64_t PackMapEntry(Mfn mfn, uint8_t order) {
  return (kEntryTypeMap << kEntryTypeShift) |
         ((static_cast<uint64_t>(order) & kEntryOrderMask) << kEntryOrderShift) |
         (mfn & kEntryValueMask);
}

uint64_t PackSkipEntry(uint64_t delta_pages) {
  return (kEntryTypeSkip << kEntryTypeShift) | (delta_pages & kEntryValueMask);
}

// Seals a metadata page written in place: the CRC covers the whole 4 KiB
// page, zero tail included, with its own field still zero. `w` must have
// written exactly the `payload` bytes the backing left unzeroed.
void SealPage(SpanWriter& w, std::span<const uint8_t> page, size_t payload) {
  HYPERTP_CHECK(w.size() == payload);
  w.PatchU32(4, Crc32(page));
}

// The metadata page at `mfn`, checked for magic and CRC where it lies.
Result<std::span<const uint8_t>> LoadPage(const PhysicalMemory& ram, Mfn mfn,
                                          uint32_t expected_magic) {
  auto backed = ram.BackedExtent(mfn, 1);
  if (!backed.ok()) {
    return DataLossError("pram: metadata page at mfn " + std::to_string(mfn) +
                         " is empty or scrubbed");
  }
  const std::span<const uint8_t> page = *backed;
  ByteReader r(page);
  HYPERTP_ASSIGN_OR_RETURN(uint32_t magic, r.ReadU32());
  if (magic != expected_magic) {
    return DataLossError("pram: bad magic at mfn " + std::to_string(mfn));
  }
  HYPERTP_ASSIGN_OR_RETURN(uint32_t stored_crc, r.ReadU32());
  // The CRC was computed with its own field zeroed: stream the magic, four
  // zero bytes, then the rest of the page.
  constexpr uint8_t kZeroCrcField[4] = {};
  uint32_t crc = Crc32Update(Crc32(page.first(4)), kZeroCrcField);
  crc = Crc32Update(crc, page.subspan(kPageHeaderSize));
  if (crc != stored_crc) {
    return DataLossError("pram: CRC mismatch at mfn " + std::to_string(mfn));
  }
  return page;
}

// Sorts `named` by base and merges extents that touch or overlap; a merged
// extent keeps the owner of its lowest member.
std::vector<FrameExtent> CoalesceExtents(std::vector<FrameExtent> named) {
  std::sort(named.begin(), named.end(),
            [](const FrameExtent& a, const FrameExtent& b) { return a.base < b.base; });
  std::vector<FrameExtent> merged;
  for (const FrameExtent& e : named) {
    if (!merged.empty() && e.base <= merged.back().end()) {
      merged.back().count = std::max(merged.back().end(), e.end()) - merged.back().base;
    } else {
      merged.push_back(e);
    }
  }
  return merged;
}

uint64_t NodePagesFor(const PramFile& file) {
  // One packed word per entry, plus one skip word per GFN discontinuity.
  uint64_t words = 0;
  Gfn cursor = 0;
  for (const PramPageEntry& e : file.entries) {
    if (e.gfn != cursor) {
      ++words;
    }
    ++words;
    cursor = e.gfn + e.frame_count();
  }
  return (words + kNodeCapacity - 1) / kNodeCapacity;
}

}  // namespace

const PramFile* PramImage::FindFile(uint64_t file_id) const {
  for (const PramFile& f : files) {
    if (f.file_id == file_id) {
      return &f;
    }
  }
  return nullptr;
}

Result<uint64_t> PramBuilder::AddFile(std::string name, uint64_t size_bytes, bool huge_pages,
                                      std::vector<PramPageEntry> entries) {
  if (finalized_) {
    return FailedPreconditionError("pram builder already finalized");
  }
  if (name.size() > kPramMaxNameLength) {
    return InvalidArgumentError("pram file name too long: " + name);
  }
  Gfn prev_end = 0;
  bool first = true;
  for (const PramPageEntry& e : entries) {
    if (e.order > 12) {
      return InvalidArgumentError("pram entry order " + std::to_string(e.order) + " implausible");
    }
    if (e.gfn % e.frame_count() != 0 || e.mfn % e.frame_count() != 0) {
      return InvalidArgumentError("pram entry gfn/mfn not aligned to its order");
    }
    if (!first && e.gfn < prev_end) {
      return InvalidArgumentError("pram entries overlap or are not sorted by gfn");
    }
    prev_end = e.gfn + e.frame_count();
    first = false;
  }
  PramFile file;
  file.file_id = next_file_id_++;
  file.name = std::move(name);
  file.size_bytes = size_bytes;
  file.huge_pages = huge_pages;
  file.entries = std::move(entries);
  image_.files.push_back(std::move(file));
  return image_.files.back().file_id;
}

uint64_t PramBuilder::MetadataPagesNeeded() const {
  // One file-info page per file, node pages per file, and root pages holding
  // one pointer per file.
  uint64_t pages = 0;
  for (const PramFile& f : image_.files) {
    pages += 1 + NodePagesFor(f);
  }
  const uint64_t roots =
      image_.files.empty() ? 1 : (image_.files.size() + kRootCapacity - 1) / kRootCapacity;
  return pages + roots;
}

Result<PramHandle> PramBuilder::Finalize() {
  if (finalized_) {
    return FailedPreconditionError("pram builder already finalized");
  }
  finalized_ = true;

  PramHandle handle;
  const FrameOwner owner{FrameOwnerKind::kPramMeta, 0};
  // Allocates and backs one metadata frame whose first `payload` bytes the
  // caller writes in place; only the tail past them is zeroed.
  auto alloc_page = [&](Mfn& mfn, size_t payload) -> Result<std::span<uint8_t>> {
    HYPERTP_ASSIGN_OR_RETURN(mfn, ram_->AllocFrame(owner));
    handle.extents.push_back(FrameExtent{mfn, 1, owner});
    ++handle.metadata_pages;
    return ram_->BackExtent(mfn, 1, payload);
  };

  // Lay out per-file node chains and file-info pages first, then the roots.
  std::vector<Mfn> file_info_mfns;
  for (const PramFile& file : image_.files) {
    // Pack entries into words.
    std::vector<uint64_t> words;
    words.reserve(file.entries.size());
    Gfn cursor = 0;
    for (const PramPageEntry& e : file.entries) {
      if (e.gfn != cursor) {
        words.push_back(PackSkipEntry(e.gfn - cursor));
      }
      words.push_back(PackMapEntry(e.mfn, e.order));
      cursor = e.gfn + e.frame_count();
    }

    // Node chain, written back-to-front so each page knows its successor.
    Mfn next_node = 0;
    const size_t node_count = (words.size() + kNodeCapacity - 1) / kNodeCapacity;
    for (size_t chunk = node_count; chunk-- > 0;) {
      const size_t begin = chunk * kNodeCapacity;
      const size_t end = std::min(begin + kNodeCapacity, words.size());
      const size_t payload = kNodeHeaderSize + 8 * (end - begin);
      Mfn node_mfn = 0;
      HYPERTP_ASSIGN_OR_RETURN(std::span<uint8_t> page, alloc_page(node_mfn, payload));
      SpanWriter w(page);
      w.PutU32(kNodeMagic);
      w.PutU32(0);  // CRC placeholder.
      w.PutU64(next_node);
      w.PutU32(static_cast<uint32_t>(end - begin));
      for (size_t i = begin; i < end; ++i) {
        w.PutU64(words[i]);
      }
      SealPage(w, page, payload);
      next_node = node_mfn;
    }

    // Header, id, name, size, huge flag, first node, entry count.
    const size_t payload = kPageHeaderSize + 8 + 4 + file.name.size() + 8 + 1 + 8 + 8;
    Mfn info_mfn = 0;
    HYPERTP_ASSIGN_OR_RETURN(std::span<uint8_t> page, alloc_page(info_mfn, payload));
    SpanWriter w(page);
    w.PutU32(kFileMagic);
    w.PutU32(0);
    w.PutU64(file.file_id);
    w.PutString(file.name);
    w.PutU64(file.size_bytes);
    w.PutU8(file.huge_pages ? 1 : 0);
    w.PutU64(next_node);
    w.PutU64(file.entries.size());
    SealPage(w, page, payload);
    file_info_mfns.push_back(info_mfn);
  }

  // Root directory chain, also written back-to-front.
  Mfn next_root = 0;
  const size_t root_count =
      file_info_mfns.empty() ? 1 : (file_info_mfns.size() + kRootCapacity - 1) / kRootCapacity;
  for (size_t chunk = root_count; chunk-- > 0;) {
    const size_t begin = chunk * kRootCapacity;
    const size_t end = std::min(begin + kRootCapacity, file_info_mfns.size());
    const size_t payload = kRootHeaderSize + 8 * (end - begin);
    Mfn root_mfn = 0;
    HYPERTP_ASSIGN_OR_RETURN(std::span<uint8_t> page, alloc_page(root_mfn, payload));
    SpanWriter w(page);
    w.PutU32(kRootMagic);
    w.PutU32(0);
    w.PutU64(next_root);
    w.PutU32(static_cast<uint32_t>(end - begin));
    for (size_t i = begin; i < end; ++i) {
      w.PutU64(file_info_mfns[i]);
    }
    SealPage(w, page, payload);
    next_root = root_mfn;
  }
  handle.root_mfn = next_root;

  HYPERTP_LOG(kInfo, "pram") << "finalized " << image_.files.size() << " files, "
                             << handle.metadata_pages << " metadata pages, root mfn "
                             << handle.root_mfn;
  return handle;
}

Result<PramImage> ParsePram(const PhysicalMemory& ram, Mfn root_mfn,
                            std::vector<FrameExtent>* preserve) {
  PramImage image;
  // Every frame the structure names, as the walk meets it: each metadata
  // page it loads, and each file's entries merged into runs contiguous in
  // MFN as they are decoded.
  std::vector<FrameExtent> named;
  // Every metadata page is loaded once: a root or node chain that comes back
  // to a page it already passed is a cycle, not a longer structure.
  std::set<Mfn> loaded;
  auto load = [&](Mfn mfn, uint32_t magic) -> Result<std::span<const uint8_t>> {
    if (!loaded.insert(mfn).second) {
      return DataLossError("pram: metadata page at mfn " + std::to_string(mfn) +
                           " is linked twice (cycle)");
    }
    named.push_back(FrameExtent{mfn, 1, FrameOwner{FrameOwnerKind::kPramMeta, 0}});
    return LoadPage(ram, mfn, magic);
  };
  Mfn root = root_mfn;
  while (root != 0) {
    HYPERTP_ASSIGN_OR_RETURN(auto root_bytes, load(root, kRootMagic));
    ByteReader r(root_bytes);
    HYPERTP_RETURN_IF_ERROR(r.Skip(kPageHeaderSize));
    HYPERTP_ASSIGN_OR_RETURN(Mfn next_root, r.ReadU64());
    HYPERTP_ASSIGN_OR_RETURN(uint32_t count, r.ReadU32());
    if (count > kRootCapacity) {
      return DataLossError("pram: root page entry count out of range");
    }
    for (uint32_t i = 0; i < count; ++i) {
      HYPERTP_ASSIGN_OR_RETURN(Mfn info_mfn, r.ReadU64());
      HYPERTP_ASSIGN_OR_RETURN(auto info_bytes, load(info_mfn, kFileMagic));
      ByteReader fr(info_bytes);
      HYPERTP_RETURN_IF_ERROR(fr.Skip(kPageHeaderSize));
      PramFile file;
      HYPERTP_ASSIGN_OR_RETURN(file.file_id, fr.ReadU64());
      HYPERTP_ASSIGN_OR_RETURN(file.name, fr.ReadString());
      HYPERTP_ASSIGN_OR_RETURN(file.size_bytes, fr.ReadU64());
      HYPERTP_ASSIGN_OR_RETURN(uint8_t huge, fr.ReadU8());
      file.huge_pages = huge != 0;
      HYPERTP_ASSIGN_OR_RETURN(Mfn node_mfn, fr.ReadU64());
      HYPERTP_ASSIGN_OR_RETURN(uint64_t entry_count, fr.ReadU64());

      FrameExtent run{0, 0, FrameOwner{FrameOwnerKind::kGuest, file.file_id}};
      Gfn cursor = 0;
      while (node_mfn != 0) {
        HYPERTP_ASSIGN_OR_RETURN(auto node_bytes, load(node_mfn, kNodeMagic));
        ByteReader nr(node_bytes);
        HYPERTP_RETURN_IF_ERROR(nr.Skip(kPageHeaderSize));
        HYPERTP_ASSIGN_OR_RETURN(Mfn next_node, nr.ReadU64());
        HYPERTP_ASSIGN_OR_RETURN(uint32_t word_count, nr.ReadU32());
        if (word_count > kNodeCapacity) {
          return DataLossError("pram: node page word count out of range");
        }
        for (uint32_t j = 0; j < word_count; ++j) {
          HYPERTP_ASSIGN_OR_RETURN(uint64_t word, nr.ReadU64());
          const uint64_t type = word >> kEntryTypeShift;
          if (type == kEntryTypeSkip) {
            cursor += word & kEntryValueMask;
          } else if (type == kEntryTypeMap) {
            PramPageEntry e;
            e.mfn = word & kEntryValueMask;
            e.order = static_cast<uint8_t>((word >> kEntryOrderShift) & kEntryOrderMask);
            e.gfn = cursor;
            cursor += e.frame_count();
            file.entries.push_back(e);
            if (run.count > 0 && run.end() == e.mfn) {
              run.count += e.frame_count();
            } else {
              if (run.count > 0) {
                named.push_back(run);
              }
              run.base = e.mfn;
              run.count = e.frame_count();
            }
          } else {
            return DataLossError("pram: unknown entry type " + std::to_string(type));
          }
        }
        node_mfn = next_node;
      }
      if (run.count > 0) {
        named.push_back(run);
      }
      if (file.entries.size() != entry_count) {
        return DataLossError("pram: file '" + file.name + "' declares " +
                             std::to_string(entry_count) + " entries, found " +
                             std::to_string(file.entries.size()));
      }
      image.files.push_back(std::move(file));
    }
    root = next_root;
  }
  if (preserve != nullptr) {
    *preserve = CoalesceExtents(std::move(named));
  }
  return image;
}

void BuildEntriesForRange(Gfn gfn, Mfn mfn, uint64_t frames, bool huge_pages,
                          std::vector<PramPageEntry>& out) {
  // Huge entries need gfn and mfn 512-aligned at the same spot. Advancing
  // moves both by the same amount, so the alignment gap (gfn - mfn) mod 512
  // is invariant across the run: either some boundary aligns both, or none
  // ever will and the whole run is order-0.
  const bool alignable =
      huge_pages && (gfn % kFramesPerHugePage) == (mfn % kFramesPerHugePage);
  if (!alignable) {
    out.reserve(out.size() + frames);
    for (uint64_t i = 0; i < frames; ++i) {
      out.push_back(PramPageEntry{gfn + i, mfn + i, 0});
    }
    return;
  }

  // Head singles up to the first huge boundary.
  uint64_t head = (kFramesPerHugePage - gfn % kFramesPerHugePage) % kFramesPerHugePage;
  head = std::min(head, frames);
  const uint64_t huge_count = (frames - head) / kFramesPerHugePage;
  const uint64_t tail = frames - head - huge_count * kFramesPerHugePage;
  out.reserve(out.size() + head + huge_count + tail);
  for (uint64_t i = 0; i < head; ++i) {
    out.push_back(PramPageEntry{gfn + i, mfn + i, 0});
  }
  gfn += head;
  mfn += head;
  for (uint64_t i = 0; i < huge_count; ++i) {
    out.push_back(PramPageEntry{gfn, mfn, kHugePageOrder});
    gfn += kFramesPerHugePage;
    mfn += kFramesPerHugePage;
  }
  for (uint64_t i = 0; i < tail; ++i) {
    out.push_back(PramPageEntry{gfn + i, mfn + i, 0});
  }
}

std::vector<PramPageEntry> BuildPageEntries(const std::vector<std::pair<Gfn, Mfn>>& map,
                                            bool huge_pages) {
  std::vector<PramPageEntry> entries;
  // One pass: find each maximal run contiguous in both address spaces, then
  // let BuildEntriesForRange carve it. The old code re-scanned 512 pairs at
  // every candidate boundary, quadratic on fragmented maps.
  size_t i = 0;
  while (i < map.size()) {
    size_t end = i + 1;
    while (end < map.size() && map[end].first == map[i].first + (end - i) &&
           map[end].second == map[i].second + (end - i)) {
      ++end;
    }
    BuildEntriesForRange(map[i].first, map[i].second, end - i, huge_pages, entries);
    i = end;
  }
  return entries;
}

}  // namespace hypertp
