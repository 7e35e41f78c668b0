// Simulated physical RAM.
//
// RAM is modelled as an array of 4 KiB machine frames managed by an
// extent-based allocator (first-fit with alignment, coalescing free).
// Frame *contents* are modelled as one 64-bit "content word" per frame,
// standing in for the frame's 4096 bytes; the word is stored sparsely so
// multi-GiB machines stay cheap to simulate. A guest write updates the word;
// the micro-reboot scrubber zeroes words of frames it reclaims, so corruption
// of guest memory by a buggy PRAM reservation is observable, exactly as it
// would be on real hardware.
//
// Frames that need real bytes (PRAM metadata pages, the transplant ledger,
// parked UISR blobs) get a backing: one contiguous byte array over a frame
// run, written and read in place. It is the only byte store.
//
// Every table (free holes, allocated extents, content words, backings) is an
// ordered map keyed by frame number. Work scales with extents, not frames:
// freeing or scrubbing an extent drops its words and backings with one range
// erase per table, and an ownership check over a frame run walks the extents
// that cover it.

#ifndef HYPERTP_SRC_HW_PHYSICAL_MEMORY_H_
#define HYPERTP_SRC_HW_PHYSICAL_MEMORY_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/base/result.h"

namespace hypertp {

// Machine frame number: index of a 4 KiB frame in physical RAM.
using Mfn = uint64_t;
// Guest frame number: index of a 4 KiB page in a guest's physical address space.
using Gfn = uint64_t;

inline constexpr uint64_t kPageSize = 4096;
inline constexpr uint64_t kHugePageSize = 2 * 1024 * 1024;
inline constexpr uint64_t kFramesPerHugePage = kHugePageSize / kPageSize;  // 512
// Allocation order of a 2 MiB huge page (2^9 frames).
inline constexpr int kHugePageOrder = 9;

// Who owns a frame extent. `id` scopes the owner (e.g. VM id); 0 when unused.
enum class FrameOwnerKind : uint8_t {
  kHypervisor,   // HV State: hypervisor text/heap. Discarded on micro-reboot.
  kGuest,        // Guest State: a VM's physical address space. Kept in place.
  kVmState,      // VM_i State: NPT, vCPU contexts, device state.
  kVmm,          // User-space VMM (kvmtool/QEMU-like) working memory.
  kPramMeta,     // PRAM metadata pages. Must survive the micro-reboot.
  kUisr,         // Serialized UISR blobs parked in RAM across the reboot.
  kKernelImage,  // Staged kexec target kernel image.
};

std::string_view FrameOwnerKindName(FrameOwnerKind kind);

struct FrameOwner {
  FrameOwnerKind kind = FrameOwnerKind::kHypervisor;
  uint64_t id = 0;

  bool operator==(const FrameOwner&) const = default;
};

// A contiguous guest-physical -> machine-physical mapping: `frames` pages
// starting at `gfn` map to `frames` frames starting at `mfn`.
struct GuestMapping {
  Gfn gfn = 0;
  Mfn mfn = 0;
  uint64_t frames = 0;

  Gfn gfn_end() const { return gfn + frames; }
  bool operator==(const GuestMapping&) const = default;
};

// A contiguous run of allocated frames.
struct FrameExtent {
  Mfn base = 0;
  uint64_t count = 0;
  FrameOwner owner;

  uint64_t end() const { return base + count; }  // One past the last frame.
  bool Contains(Mfn mfn) const { return mfn >= base && mfn < end(); }
  bool operator==(const FrameExtent&) const = default;
};

class PhysicalMemory {
 public:
  // `bytes` must be a multiple of the page size.
  explicit PhysicalMemory(uint64_t bytes);

  uint64_t total_frames() const { return total_frames_; }
  uint64_t total_bytes() const { return total_frames_ * kPageSize; }
  uint64_t free_frames() const { return free_frames_; }
  uint64_t allocated_frames() const { return total_frames_ - free_frames_; }

  // Allocates `count` contiguous frames whose base is a multiple of
  // `align_frames` (>= 1). First fit. Fails with kResourceExhausted when no
  // suitable hole exists.
  Result<Mfn> Alloc(uint64_t count, uint64_t align_frames, FrameOwner owner);
  // Single-frame convenience.
  Result<Mfn> AllocFrame(FrameOwner owner) { return Alloc(1, 1, owner); }
  // 2 MiB-aligned huge-page allocation (512 frames).
  Result<Mfn> AllocHugePage(FrameOwner owner) {
    return Alloc(kFramesPerHugePage, kFramesPerHugePage, owner);
  }

  // Frees exactly the extent previously returned by Alloc (base must match).
  Result<void> Free(Mfn base, uint64_t count);
  // Frees every extent with this owner; returns the number of frames freed.
  uint64_t FreeAllOwnedBy(FrameOwner owner);

  // Content access. Reads of never-written frames return 0 (freshly scrubbed).
  Result<void> WriteWord(Mfn mfn, uint64_t content);
  Result<uint64_t> ReadWord(Mfn mfn) const;

  // Contiguous byte backing for a whole frame run: the storage PRAM metadata
  // pages and the ledger are written into (one frame each), and the zero-copy
  // UISR save path encodes into (PramFrameWriter); readers parse the same
  // bytes in place. [base, base+frames) must lie inside one allocated extent.
  // The storage is frames * kPageSize zero-initialized bytes; re-backing the
  // same (base, frames) resets it. Backings die with their frames on
  // Free/Scrub. Backing a run drops whatever its frames held before: content
  // words and any overlapping backing.
  //
  // `skip_zero_prefix` is the caller's promise that it will overwrite the
  // first that many bytes before anything reads them: those bytes come back
  // uninitialized and only the remainder is zeroed. This is what lets the
  // zero-copy encode pay for one memory pass instead of a zero-fill followed
  // by a full overwrite. The default (0) zeroes everything.
  Result<std::span<uint8_t>> BackExtent(Mfn base, uint64_t frames,
                                        uint64_t skip_zero_prefix = 0);
  // View of the backing previously created for exactly (base, frames);
  // kNotFound when that exact run was never backed. The mutable form lets a
  // parked UISR blob be patched where it lies.
  Result<std::span<const uint8_t>> BackedExtent(Mfn base, uint64_t frames) const;
  Result<std::span<uint8_t>> BackedExtent(Mfn base, uint64_t frames);

  // True when `mfn` lies inside an allocated extent.
  bool IsAllocated(Mfn mfn) const;
  // Owner of the extent containing `mfn`, or error when free/out of range.
  Result<FrameOwner> OwnerOf(Mfn mfn) const;
  // The lowest frame of [base, base+count) that is free or owned by someone
  // other than `owner`; nullopt when `owner` holds the whole run. Walks the
  // allocated extents covering the run, so the cost is one lookup plus one
  // step per extent, whatever the run's length.
  std::optional<Mfn> FirstFrameNotOwnedBy(Mfn base, uint64_t count, FrameOwner owner) const;

  // All allocated extents in address order.
  std::vector<FrameExtent> AllocatedExtents() const;
  // All allocated extents with the given owner kind (any id).
  std::vector<FrameExtent> ExtentsOfKind(FrameOwnerKind kind) const;

  // Micro-reboot scrubber: frees every allocated extent that is not fully
  // covered by `preserved`, and zeroes the content words of reclaimed frames.
  // Returns the number of frames scrubbed. Extents in `preserved` must be
  // allocated; their ownership and contents are left untouched.
  uint64_t ScrubExcept(const std::vector<FrameExtent>& preserved);

  // Calls visit(mfn, word) for each non-zero content word in
  // [base, base+count), in frame order. Used by guest address spaces to
  // enumerate a VM's written pages without touching unwritten frames.
  template <typename Visit>
  void ForEachWordIn(Mfn base, uint64_t count, Visit&& visit) const {
    const auto end = content_.lower_bound(base + count);
    for (auto it = content_.lower_bound(base); it != end; ++it) {
      visit(it->first, it->second);
    }
  }

  // Adjusts the recorded owner of an existing allocated extent (used when the
  // new hypervisor adopts preserved frames after the micro-reboot).
  Result<void> Reassign(Mfn base, uint64_t count, FrameOwner new_owner);

 private:
  // Merges [base, base+count) into the free map, coalescing neighbors.
  void InsertFree(Mfn base, uint64_t count);

  // Backing storage: default-initialized so BackExtent can zero only the
  // bytes its caller will not overwrite (std::vector would memset it all).
  // Deep-copies so PhysicalMemory (and Machine) stay copyable.
  struct BackingBytes {
    std::unique_ptr<uint8_t[]> data;
    size_t size = 0;

    BackingBytes() = default;
    BackingBytes(BackingBytes&&) = default;
    BackingBytes& operator=(BackingBytes&&) = default;
    BackingBytes(const BackingBytes& other)
        : data(other.size > 0 ? new uint8_t[other.size] : nullptr), size(other.size) {
      if (size > 0) {
        std::copy(other.data.get(), other.data.get() + size, data.get());
      }
    }
    BackingBytes& operator=(const BackingBytes& other) {
      if (this != &other) {
        BackingBytes copy(other);
        data = std::move(copy.data);
        size = copy.size;
      }
      return *this;
    }
  };

  // Drops the content words and backings of [base, base+count): one range
  // erase per table.
  void DropFrameData(Mfn base, uint64_t count);

  uint64_t total_frames_;
  uint64_t free_frames_;
  // base -> count of free holes, disjoint and coalesced.
  std::map<Mfn, uint64_t> free_;
  // base -> extent for allocated runs, disjoint.
  std::map<Mfn, FrameExtent> allocated_;
  // Sparse content words: only frames that were written appear here.
  std::map<Mfn, uint64_t> content_;
  // Contiguous frame-run backings (base -> frames * kPageSize bytes),
  // disjoint from each other.
  std::map<Mfn, BackingBytes> backed_;
};

}  // namespace hypertp

#endif  // HYPERTP_SRC_HW_PHYSICAL_MEMORY_H_
