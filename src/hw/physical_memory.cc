#include "src/hw/physical_memory.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace hypertp {

std::string_view FrameOwnerKindName(FrameOwnerKind kind) {
  switch (kind) {
    case FrameOwnerKind::kHypervisor:
      return "hypervisor";
    case FrameOwnerKind::kGuest:
      return "guest";
    case FrameOwnerKind::kVmState:
      return "vm-state";
    case FrameOwnerKind::kVmm:
      return "vmm";
    case FrameOwnerKind::kPramMeta:
      return "pram-meta";
    case FrameOwnerKind::kUisr:
      return "uisr";
    case FrameOwnerKind::kKernelImage:
      return "kernel-image";
  }
  return "?";
}

PhysicalMemory::PhysicalMemory(uint64_t bytes)
    : total_frames_(bytes / kPageSize), free_frames_(bytes / kPageSize - 1) {
  assert(bytes % kPageSize == 0 && "RAM size must be page aligned");
  assert(total_frames_ > 1);
  // Frame 0 is never handed out: real firmware owns low memory, and mfn 0
  // doubles as the null pointer in PRAM/kexec chains.
  free_.emplace(1, total_frames_ - 1);
}

Result<Mfn> PhysicalMemory::Alloc(uint64_t count, uint64_t align_frames, FrameOwner owner) {
  if (count == 0 || align_frames == 0) {
    return InvalidArgumentError("alloc: count and alignment must be positive");
  }
  for (auto it = free_.begin(); it != free_.end(); ++it) {
    const Mfn hole_base = it->first;
    const uint64_t hole_count = it->second;
    // First aligned base at or after hole_base.
    const Mfn aligned = ((hole_base + align_frames - 1) / align_frames) * align_frames;
    if (aligned + count > hole_base + hole_count) {
      continue;
    }
    // Carve [aligned, aligned+count) out of the hole.
    free_.erase(it);
    if (aligned > hole_base) {
      free_.emplace(hole_base, aligned - hole_base);
    }
    if (aligned + count < hole_base + hole_count) {
      free_.emplace(aligned + count, hole_base + hole_count - (aligned + count));
    }
    free_frames_ -= count;
    allocated_.emplace(aligned, FrameExtent{aligned, count, owner});
    return aligned;
  }
  return ResourceExhaustedError("alloc: no hole of " + std::to_string(count) +
                                " frames with alignment " + std::to_string(align_frames));
}

void PhysicalMemory::InsertFree(Mfn base, uint64_t count) {
  // Coalesce with successor.
  auto next = free_.lower_bound(base);
  if (next != free_.end() && base + count == next->first) {
    count += next->second;
    next = free_.erase(next);
  }
  // Coalesce with predecessor.
  if (next != free_.begin()) {
    auto prev = std::prev(next);
    if (prev->first + prev->second == base) {
      prev->second += count;
      return;
    }
  }
  free_.emplace(base, count);
}

Result<void> PhysicalMemory::Free(Mfn base, uint64_t count) {
  auto it = allocated_.find(base);
  if (it == allocated_.end() || it->second.count != count) {
    return InvalidArgumentError("free: no allocated extent [" + std::to_string(base) + ", +" +
                                std::to_string(count) + ")");
  }
  DropBackingsIn(base, count);
  for (Mfn m = base; m < base + count; ++m) {
    content_.erase(m);
    pages_.erase(m);
  }
  allocated_.erase(it);
  free_frames_ += count;
  InsertFree(base, count);
  return OkResult();
}

uint64_t PhysicalMemory::FreeAllOwnedBy(FrameOwner owner) {
  uint64_t freed = 0;
  for (auto it = allocated_.begin(); it != allocated_.end();) {
    if (it->second.owner == owner) {
      const FrameExtent ext = it->second;
      it = allocated_.erase(it);
      DropBackingsIn(ext.base, ext.count);
      for (Mfn m = ext.base; m < ext.end(); ++m) {
        content_.erase(m);
        pages_.erase(m);
      }
      free_frames_ += ext.count;
      InsertFree(ext.base, ext.count);
      freed += ext.count;
    } else {
      ++it;
    }
  }
  return freed;
}

Result<void> PhysicalMemory::WriteWord(Mfn mfn, uint64_t content) {
  if (!IsAllocated(mfn)) {
    return FailedPreconditionError("write to unallocated frame " + std::to_string(mfn));
  }
  if (content == 0) {
    content_.erase(mfn);
  } else {
    content_[mfn] = content;
  }
  return OkResult();
}

Result<uint64_t> PhysicalMemory::ReadWord(Mfn mfn) const {
  if (mfn >= total_frames_) {
    return OutOfRangeError("read of frame " + std::to_string(mfn) + " beyond RAM");
  }
  auto it = content_.find(mfn);
  return it == content_.end() ? 0 : it->second;
}

bool PhysicalMemory::IsAllocated(Mfn mfn) const {
  auto it = allocated_.upper_bound(mfn);
  if (it == allocated_.begin()) {
    return false;
  }
  return std::prev(it)->second.Contains(mfn);
}

Result<FrameOwner> PhysicalMemory::OwnerOf(Mfn mfn) const {
  auto it = allocated_.upper_bound(mfn);
  if (it != allocated_.begin()) {
    const FrameExtent& ext = std::prev(it)->second;
    if (ext.Contains(mfn)) {
      return ext.owner;
    }
  }
  return NotFoundError("frame " + std::to_string(mfn) + " is not allocated");
}

std::vector<FrameExtent> PhysicalMemory::AllocatedExtents() const {
  std::vector<FrameExtent> out;
  out.reserve(allocated_.size());
  for (const auto& [base, ext] : allocated_) {
    out.push_back(ext);
  }
  return out;
}

std::vector<FrameExtent> PhysicalMemory::ExtentsOfKind(FrameOwnerKind kind) const {
  std::vector<FrameExtent> out;
  for (const auto& [base, ext] : allocated_) {
    if (ext.owner.kind == kind) {
      out.push_back(ext);
    }
  }
  return out;
}

uint64_t PhysicalMemory::ScrubExcept(const std::vector<FrameExtent>& preserved) {
  // Sort preserved extents for binary-search coverage checks.
  std::vector<FrameExtent> keep = preserved;
  std::sort(keep.begin(), keep.end(),
            [](const FrameExtent& a, const FrameExtent& b) { return a.base < b.base; });

  auto covered = [&keep](const FrameExtent& ext) {
    // Find the preserved extent starting at or before ext.base.
    auto it = std::upper_bound(
        keep.begin(), keep.end(), ext.base,
        [](Mfn value, const FrameExtent& e) { return value < e.base; });
    if (it == keep.begin()) {
      return false;
    }
    const FrameExtent& candidate = *std::prev(it);
    return ext.base >= candidate.base && ext.end() <= candidate.end();
  };

  uint64_t scrubbed = 0;
  for (auto it = allocated_.begin(); it != allocated_.end();) {
    if (!covered(it->second)) {
      const FrameExtent ext = it->second;
      it = allocated_.erase(it);
      DropBackingsIn(ext.base, ext.count);
      for (Mfn m = ext.base; m < ext.end(); ++m) {
        content_.erase(m);  // The scrub really destroys the contents.
        pages_.erase(m);
      }
      free_frames_ += ext.count;
      InsertFree(ext.base, ext.count);
      scrubbed += ext.count;
    } else {
      ++it;
    }
  }
  return scrubbed;
}

Result<void> PhysicalMemory::WritePage(Mfn mfn, std::vector<uint8_t> bytes) {
  if (!IsAllocated(mfn)) {
    return FailedPreconditionError("page write to unallocated frame " + std::to_string(mfn));
  }
  if (bytes.size() > kPageSize) {
    return InvalidArgumentError("page payload of " + std::to_string(bytes.size()) +
                                " bytes exceeds frame size");
  }
  // A frame inside a contiguous backing stays there: the page write replaces
  // its slice (zero-padded, matching whole-page overwrite semantics), so
  // page-level corruption of a parked blob lands in the same storage the
  // zero-copy decode reads.
  Mfn backing_base = 0;
  if (BackingBytes* backing = BackingFor(mfn, &backing_base)) {
    uint8_t* slice = backing->data.get() + (mfn - backing_base) * kPageSize;
    std::fill(slice, slice + kPageSize, 0);
    std::copy(bytes.begin(), bytes.end(), slice);
    return OkResult();
  }
  pages_[mfn] = std::move(bytes);
  return OkResult();
}

Result<std::vector<uint8_t>> PhysicalMemory::ReadPage(Mfn mfn) const {
  if (mfn >= total_frames_) {
    return OutOfRangeError("page read of frame " + std::to_string(mfn) + " beyond RAM");
  }
  Mfn backing_base = 0;
  if (const BackingBytes* backing = BackingFor(mfn, &backing_base)) {
    const uint8_t* slice = backing->data.get() + (mfn - backing_base) * kPageSize;
    return std::vector<uint8_t>(slice, slice + kPageSize);
  }
  auto it = pages_.find(mfn);
  if (it == pages_.end()) {
    return std::vector<uint8_t>{};
  }
  return it->second;
}

Result<std::span<uint8_t>> PhysicalMemory::BackExtent(Mfn base, uint64_t frames,
                                                      uint64_t skip_zero_prefix) {
  if (frames == 0) {
    return InvalidArgumentError("back extent: frame count must be positive");
  }
  auto it = allocated_.upper_bound(base);
  if (it == allocated_.begin()) {
    return FailedPreconditionError("back extent: frame " + std::to_string(base) +
                                   " is not allocated");
  }
  const FrameExtent& ext = std::prev(it)->second;
  if (!ext.Contains(base) || base + frames > ext.end()) {
    return FailedPreconditionError("back extent: [" + std::to_string(base) + ", +" +
                                   std::to_string(frames) +
                                   ") does not lie inside one allocated extent");
  }
  // One backing per frame: replace any overlapping backings or stale per-page
  // payloads rather than shadowing them.
  DropBackingsIn(base, frames);
  for (Mfn m = base; m < base + frames; ++m) {
    pages_.erase(m);
  }
  const size_t bytes = frames * kPageSize;
  BackingBytes backing;
  backing.data = std::unique_ptr<uint8_t[]>(new uint8_t[bytes]);  // Uninitialized.
  backing.size = bytes;
  // Honor the caller's overwrite promise: zero only what it won't write.
  const size_t zero_from = skip_zero_prefix < bytes ? skip_zero_prefix : bytes;
  std::fill(backing.data.get() + zero_from, backing.data.get() + bytes, 0);
  auto [entry, inserted] = backed_.emplace(base, std::move(backing));
  (void)inserted;
  return std::span<uint8_t>(entry->second.data.get(), entry->second.size);
}

Result<std::span<const uint8_t>> PhysicalMemory::BackedExtent(Mfn base, uint64_t frames) const {
  auto it = backed_.find(base);
  if (it == backed_.end() || it->second.size != frames * kPageSize) {
    return NotFoundError("no contiguous backing for [" + std::to_string(base) + ", +" +
                         std::to_string(frames) + ")");
  }
  return std::span<const uint8_t>(it->second.data.get(), it->second.size);
}

Result<std::span<uint8_t>> PhysicalMemory::BackedExtent(Mfn base, uint64_t frames) {
  HYPERTP_ASSIGN_OR_RETURN(std::span<const uint8_t> view,
                           std::as_const(*this).BackedExtent(base, frames));
  return std::span<uint8_t>(const_cast<uint8_t*>(view.data()), view.size());
}

void PhysicalMemory::DropBackingsIn(Mfn base, uint64_t count) {
  if (backed_.empty()) {
    return;
  }
  const Mfn end = base + count;
  auto it = backed_.upper_bound(base);
  // A backing starting before `base` can still reach into the range.
  if (it != backed_.begin()) {
    auto prev = std::prev(it);
    if (prev->first + prev->second.size / kPageSize > base) {
      it = prev;
    }
  }
  while (it != backed_.end() && it->first < end) {
    it = backed_.erase(it);
  }
}

const PhysicalMemory::BackingBytes* PhysicalMemory::BackingFor(Mfn mfn, Mfn* backing_base) const {
  auto it = backed_.upper_bound(mfn);
  if (it == backed_.begin()) {
    return nullptr;
  }
  const auto& [base, bytes] = *std::prev(it);
  if (mfn >= base + bytes.size / kPageSize) {
    return nullptr;
  }
  *backing_base = base;
  return &bytes;
}

PhysicalMemory::BackingBytes* PhysicalMemory::BackingFor(Mfn mfn, Mfn* backing_base) {
  return const_cast<BackingBytes*>(
      static_cast<const PhysicalMemory*>(this)->BackingFor(mfn, backing_base));
}

Result<void> PhysicalMemory::Reassign(Mfn base, uint64_t count, FrameOwner new_owner) {
  auto it = allocated_.find(base);
  if (it == allocated_.end() || it->second.count != count) {
    return InvalidArgumentError("reassign: no allocated extent [" + std::to_string(base) + ", +" +
                                std::to_string(count) + ")");
  }
  it->second.owner = new_owner;
  return OkResult();
}

}  // namespace hypertp
