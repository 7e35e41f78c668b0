#include "src/hv/guest_memory.h"

#include <algorithm>

namespace hypertp {

Result<void> GuestAddressSpace::MapExtent(Gfn gfn, Mfn mfn, uint64_t frames) {
  if (frames == 0) {
    return InvalidArgumentError("guest map: empty extent");
  }
  if (!mappings_.empty() && gfn < mappings_.back().gfn_end()) {
    return InvalidArgumentError("guest map: extents must be added in gfn order");
  }
  // Merge with the previous extent when both spaces are contiguous.
  if (!mappings_.empty()) {
    GuestMapping& last = mappings_.back();
    if (last.gfn_end() == gfn && last.mfn + last.frames == mfn) {
      last.frames += frames;
      mapped_frames_ += frames;
      return OkResult();
    }
  }
  mappings_.push_back(GuestMapping{gfn, mfn, frames});
  mapped_frames_ += frames;
  return OkResult();
}

Result<Mfn> GuestAddressSpace::Translate(Gfn gfn) const {
  // Binary search for the extent containing gfn.
  auto it = std::upper_bound(mappings_.begin(), mappings_.end(), gfn,
                             [](Gfn value, const GuestMapping& m) { return value < m.gfn; });
  if (it == mappings_.begin()) {
    return NotFoundError("gfn " + std::to_string(gfn) + " not mapped");
  }
  const GuestMapping& m = *std::prev(it);
  if (gfn >= m.gfn_end()) {
    return NotFoundError("gfn " + std::to_string(gfn) + " not mapped");
  }
  return m.mfn + (gfn - m.gfn);
}

Result<uint64_t> GuestAddressSpace::Read(const PhysicalMemory& ram, Gfn gfn) const {
  HYPERTP_ASSIGN_OR_RETURN(Mfn mfn, Translate(gfn));
  return ram.ReadWord(mfn);
}

Result<void> GuestAddressSpace::Write(PhysicalMemory& ram, Gfn gfn, uint64_t content) {
  HYPERTP_ASSIGN_OR_RETURN(Mfn mfn, Translate(gfn));
  HYPERTP_RETURN_IF_ERROR(ram.WriteWord(mfn, content));
  if (dirty_log_enabled_) {
    dirty_.insert(gfn);
  }
  return OkResult();
}

std::vector<std::pair<Gfn, uint64_t>> GuestAddressSpace::DumpNonZero(
    const PhysicalMemory& ram) const {
  std::vector<std::pair<Gfn, uint64_t>> out;
  for (const GuestMapping& m : mappings_) {
    ram.ForEachWordIn(m.mfn, m.frames, [&out, &m](Mfn mfn, uint64_t word) {
      out.emplace_back(m.gfn + (mfn - m.mfn), word);
    });
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<Gfn> GuestAddressSpace::FetchAndClearDirty() {
  std::vector<Gfn> out(dirty_.begin(), dirty_.end());
  dirty_.clear();
  return out;
}

Result<void> GuestAddressSpace::MarkDirty(Gfn gfn) {
  HYPERTP_RETURN_IF_ERROR(Translate(gfn));
  if (dirty_log_enabled_) {
    dirty_.insert(gfn);
  }
  return OkResult();
}

}  // namespace hypertp
