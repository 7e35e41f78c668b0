// PRAM: persistent-over-kexec memory file system (paper §4.2.2, Fig. 4).
//
// PRAM records each VM's guest memory as a "file": an ordered list of page
// entries mapping guest frame numbers to machine frame extents. The structure
// is laid out in page-aligned metadata pages inside simulated physical RAM:
//
//   PRAM pointer (an MFN passed on the kexec command line)
//     -> chain of root directory pages        (red in the paper's Fig. 4)
//          -> file info page per VM           (green)
//               -> chain of page-entry nodes  (blue)
//
// Page entries are 8 bytes each and support power-of-2 orders so 2 MiB huge
// pages cost one entry instead of 512 (paper §4.2.5). The guest frame number
// is implicit: entries appear in GFN order and each advances the cursor by
// 2^order pages; explicit skip entries encode GFN holes (MMIO windows).
//
// Every metadata page carries a magic and a CRC, so a page lost to the
// micro-reboot scrubber (or clobbered by the new hypervisor) is detected as
// kDataLoss at parse time rather than silently corrupting guests.

#ifndef HYPERTP_SRC_PRAM_PRAM_H_
#define HYPERTP_SRC_PRAM_PRAM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/result.h"
#include "src/hw/physical_memory.h"

namespace hypertp {

// One mapping: 2^order contiguous guest pages starting at `gfn`, backed by
// 2^order contiguous machine frames starting at `mfn`.
struct PramPageEntry {
  Gfn gfn = 0;
  Mfn mfn = 0;
  uint8_t order = 0;  // 0 = 4 KiB, 9 = 2 MiB.

  uint64_t frame_count() const { return 1ull << order; }
  bool operator==(const PramPageEntry&) const = default;
};

// A single VM's memory description.
struct PramFile {
  uint64_t file_id = 0;
  std::string name;          // VM name; capped at kPramMaxNameLength bytes.
  uint64_t size_bytes = 0;   // Guest memory size.
  bool huge_pages = false;   // Informational: file uses order-9 entries.
  std::vector<PramPageEntry> entries;

  bool operator==(const PramFile&) const = default;
};

// The logical content of a PRAM structure.
struct PramImage {
  std::vector<PramFile> files;

  const PramFile* FindFile(uint64_t file_id) const;
  bool operator==(const PramImage&) const = default;
};

// Where a PRAM structure physically lives.
struct PramHandle {
  Mfn root_mfn = 0;                   // The PRAM pointer.
  uint64_t metadata_pages = 0;
  std::vector<FrameExtent> extents;   // All metadata frames, for preservation.

  uint64_t metadata_bytes() const { return metadata_pages * kPageSize; }
};

inline constexpr size_t kPramMaxNameLength = 64;

// Builds a PRAM structure in `ram`. Usage:
//   PramBuilder builder(ram);
//   uint64_t id = builder.AddFile("vm-3", bytes, entries);
//   HYPERTP_ASSIGN_OR_RETURN(PramHandle h, builder.Finalize());
// AddFile validates that entries are GFN-sorted, non-overlapping and
// order-aligned. Finalize allocates metadata frames (owner kPramMeta) and
// writes the on-"disk" representation. The builder is single-use.
class PramBuilder {
 public:
  explicit PramBuilder(PhysicalMemory& ram) : ram_(&ram) {}

  // Returns the assigned file id (> 0), or an error on invalid entries.
  Result<uint64_t> AddFile(std::string name, uint64_t size_bytes, bool huge_pages,
                           std::vector<PramPageEntry> entries);

  Result<PramHandle> Finalize();

  // Exact number of metadata pages Finalize() will allocate for the files
  // added so far (used by the memory-overhead bench before committing).
  uint64_t MetadataPagesNeeded() const;

 private:
  PhysicalMemory* ram_;
  PramImage image_;
  uint64_t next_file_id_ = 1;
  bool finalized_ = false;
};

// Parses a PRAM structure from RAM starting at the PRAM pointer. Verifies
// per-page magic and CRC where each page lies, and loads each page at most
// once, so a root or node chain that cycles is kDataLoss. This is what the
// freshly booted target hypervisor runs at early boot, before touching the
// allocator. With a non-null `preserve`, the same walk also yields the frame
// extents the scrubber must keep: every metadata page plus every guest
// extent named by a page entry, sorted by base and coalesced (a merged
// extent keeps its lowest member's owner). `preserve` is left untouched when
// the parse fails.
Result<PramImage> ParsePram(const PhysicalMemory& ram, Mfn root_mfn,
                            std::vector<FrameExtent>* preserve = nullptr);

// Appends entries covering `frames` contiguous pages starting at (gfn, mfn):
// order-0 singles up to the first huge boundary, one order-9 entry per
// aligned 2 MiB run, order-0 singles for the tail. Emits exactly the entries
// the old per-frame greedy loop produced (pram_test pins equivalence), but
// decides alignment once per run instead of once per frame, so a terabyte
// mapping costs a few thousand entry pushes rather than 2^28 loop
// iterations. With `huge_pages` false (or gfn/mfn misaligned relative to
// each other, which no amount of advancing can fix), every entry is order-0.
void BuildEntriesForRange(Gfn gfn, Mfn mfn, uint64_t frames, bool huge_pages,
                          std::vector<PramPageEntry>& out);

// Converts a guest physical address space layout into PRAM page entries,
// merging adjacent 4K mappings into huge-page entries when `huge_pages` and
// alignment permit. `map` is (gfn, mfn) pairs sorted by gfn. Internally
// splits the map into maximal contiguous runs and defers to
// BuildEntriesForRange, so discovery of each run is a single pass.
std::vector<PramPageEntry> BuildPageEntries(const std::vector<std::pair<Gfn, Mfn>>& map,
                                            bool huge_pages);

}  // namespace hypertp

#endif  // HYPERTP_SRC_PRAM_PRAM_H_
