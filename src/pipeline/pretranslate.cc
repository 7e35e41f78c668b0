#include "src/pipeline/pretranslate.h"

#include <algorithm>
#include <span>
#include <utility>

#include "src/pipeline/conversion.h"

namespace hypertp {
namespace pipeline {

const PreTranslatedVm* PreTranslationCache::Find(uint64_t vm_uid) const {
  for (const PreTranslatedVm& vm : vms) {
    if (vm.vm_uid == vm_uid) {
      return &vm;
    }
  }
  return nullptr;
}

Result<WorkSchedule> PreTranslateVms(Hypervisor& source, const HostCostProfile& costs,
                                     const std::vector<PreTranslateRequest>& requests,
                                     int workers, int real_threads,
                                     PreTranslationCache* cache) {
  cache->vms.clear();
  cache->vms.reserve(requests.size());
  // The snapshots live only until they are encoded; the cache keeps their
  // parked frames.
  std::vector<UisrVm> states;
  states.reserve(requests.size());
  std::vector<SimDuration> stage_costs;
  stage_costs.reserve(requests.size());

  for (const PreTranslateRequest& req : requests) {
    // SaveVmToUisr requires a paused VM; micro-pause just this one while the
    // rest of the fleet keeps running. Pause/save/resume do not move the
    // state generation, so the snapshot taken here stays valid until the
    // guest itself runs again.
    HYPERTP_ASSIGN_OR_RETURN(VmInfo info, source.GetVmInfo(req.id));
    const bool was_running = info.run_state == VmRunState::kRunning;
    if (was_running) {
      HYPERTP_RETURN_IF_ERROR(source.PauseVm(req.id));
    }
    Result<uint64_t> generation = source.StateGeneration(req.id);
    FixupLog fixups;
    Result<UisrVm> state = ExtractVmState(source, req.id, &fixups);
    // Resume before propagating any failure — the transplant's abort path
    // has not recorded this VM as paused yet.
    if (was_running) {
      HYPERTP_RETURN_IF_ERROR(source.ResumeVm(req.id));
    }
    HYPERTP_RETURN_IF_ERROR(generation);
    HYPERTP_RETURN_IF_ERROR(state);

    states.push_back(std::move(*state));
    states.back().memory.pram_file_id = req.pram_file_id;
    PreTranslatedVm entry;
    entry.vm_uid = req.vm_uid;
    entry.generation = *generation;
    entry.fixups = std::move(fixups);
    cache->vms.push_back(std::move(entry));
    stage_costs.push_back(TranslateStageCost(costs, req.vcpus, req.memory_bytes));
  }

  // Park the blobs now, while guests still run: allocated serially in
  // request order (the frame layout, and thus PRAM metadata, does not
  // depend on the thread count), then encoded straight into their frames on
  // real pool threads, recording their section-offset tables.
  std::vector<UisrSectionLayout> layouts;
  HYPERTP_ASSIGN_OR_RETURN(
      std::vector<StoredUisrBlob> parked,
      ParkVmStates(source.machine().memory(), states, real_threads, &layouts));
  for (size_t i = 0; i < parked.size(); ++i) {
    PreTranslatedVm& entry = cache->vms[i];
    entry.parked = parked[i].frames;
    entry.bytes = parked[i].bytes;
    entry.layout = std::move(layouts[i]);
  }

  return ScheduleWork(stage_costs, workers);
}

Result<ReconcileResult> ReconcilePreTranslated(PhysicalMemory& memory, PramBuilder& builder,
                                               const PreTranslatedVm& cached,
                                               const UisrVm& fresh) {
  const FrameExtent& parked = cached.parked;
  if (parked.count == 0) {
    return FailedPreconditionError("pretranslate: uid " + std::to_string(cached.vm_uid) +
                                   " has no parked blob to reconcile");
  }
  HYPERTP_ASSIGN_OR_RETURN(std::span<uint8_t> frames,
                           memory.BackedExtent(parked.base, parked.count));
  UisrSectionLayout layout;
  const std::vector<uint8_t> blob = EncodeUisrVm(fresh, &layout);

  // Charge by the sections whose payload bytes differ from the parked ones.
  // That needs the same (type, payload size) sequence; otherwise the TLV
  // lengths shift and every payload byte counts as rewritten.
  ReconcileResult out;
  const std::vector<UisrSectionSpan>& was = cached.layout.sections;
  for (const UisrSectionSpan& span : was) {
    out.total_payload_bytes += span.payload_size;
  }
  const bool same_structure = std::ranges::equal(
      was, layout.sections, [](const UisrSectionSpan& a, const UisrSectionSpan& b) {
        return a.type == b.type && a.payload_size == b.payload_size;
      });
  if (same_structure) {
    for (const UisrSectionSpan& span : layout.sections) {
      if (!std::ranges::equal(frames.subspan(span.payload_offset, span.payload_size),
                              std::span(blob).subspan(span.payload_offset, span.payload_size))) {
        ++out.patched_sections;
        out.patched_bytes += span.payload_size;
      }
    }
    // No differing section means the generation moved but nothing
    // vCPU-visible reached the UISR (e.g. PV event-channel activity).
    out.kind = out.patched_sections == 0 ? ReconcileKind::kHit : ReconcileKind::kPatched;
  } else {
    out.kind = ReconcileKind::kReencoded;
    out.patched_bytes = out.total_payload_bytes;
  }

  // Copy into the parked frames while the frame count holds (page padding
  // stays zero); otherwise store the blob anew, as PreTranslateVms parked it.
  if ((blob.size() + kPageSize - 1) / kPageSize == parked.count) {
    std::ranges::copy(blob, frames.begin());
    std::fill(frames.begin() + static_cast<ptrdiff_t>(blob.size()), frames.end(), 0);
    HYPERTP_ASSIGN_OR_RETURN(out.stored,
                             RegisterParkedBlob(builder, cached.vm_uid, parked, blob.size()));
    return out;
  }
  HYPERTP_RETURN_IF_ERROR(memory.Free(parked.base, parked.count));
  HYPERTP_ASSIGN_OR_RETURN(FrameExtent stored, ParkUisrBlob(memory, cached.vm_uid, blob));
  HYPERTP_ASSIGN_OR_RETURN(out.stored,
                           RegisterParkedBlob(builder, cached.vm_uid, stored, blob.size()));
  return out;
}

}  // namespace pipeline
}  // namespace hypertp
