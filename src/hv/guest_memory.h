// Guest physical address space: gfn -> mfn mapping plus dirty logging.
//
// All three hypervisors use this mechanism for their second-stage translation
// structure (Xen's P2M, KVM's memslots, bhyve's memseg map); what differs
// between them is the *allocation policy* that decides which machine frames
// back the guest, which each hypervisor's module sets (src/hv/host_core.h).

#ifndef HYPERTP_SRC_HV_GUEST_MEMORY_H_
#define HYPERTP_SRC_HV_GUEST_MEMORY_H_

#include <set>
#include <vector>

#include "src/base/result.h"
#include "src/hw/physical_memory.h"

namespace hypertp {

class GuestAddressSpace {
 public:
  // Appends a mapping. Mappings must be added in gfn order without overlap.
  Result<void> MapExtent(Gfn gfn, Mfn mfn, uint64_t frames);

  // Machine frame backing a guest page.
  Result<Mfn> Translate(Gfn gfn) const;

  const std::vector<GuestMapping>& mappings() const { return mappings_; }
  uint64_t mapped_frames() const { return mapped_frames_; }

  // Reads/writes the content word of a guest page via `ram`. Writes feed the
  // dirty log when logging is enabled.
  Result<uint64_t> Read(const PhysicalMemory& ram, Gfn gfn) const;
  Result<void> Write(PhysicalMemory& ram, Gfn gfn, uint64_t content);

  // All guest pages with non-zero content words, sorted by gfn.
  std::vector<std::pair<Gfn, uint64_t>> DumpNonZero(const PhysicalMemory& ram) const;

  // Dirty logging.
  void EnableDirtyLog() { dirty_log_enabled_ = true; }
  void DisableDirtyLog() {
    dirty_log_enabled_ = false;
    dirty_.clear();
  }
  bool dirty_log_enabled() const { return dirty_log_enabled_; }
  // Returns and clears the set of dirtied gfns (sorted).
  std::vector<Gfn> FetchAndClearDirty();
  // Marks a page dirty without writing (used by cost-free dirty-rate models).
  Result<void> MarkDirty(Gfn gfn);
  size_t dirty_count() const { return dirty_.size(); }

 private:
  std::vector<GuestMapping> mappings_;  // Sorted by gfn, non-overlapping.
  uint64_t mapped_frames_ = 0;
  bool dirty_log_enabled_ = false;
  std::set<Gfn> dirty_;
};

}  // namespace hypertp

#endif  // HYPERTP_SRC_HV_GUEST_MEMORY_H_
