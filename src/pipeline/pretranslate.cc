#include "src/pipeline/pretranslate.h"

#include <algorithm>
#include <functional>
#include <span>
#include <utility>

#include "src/base/bytes.h"
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
                                     PreTranslationCache* cache,
                                     PhysicalMemory* park_memory) {
  cache->vms.clear();
  cache->vms.reserve(requests.size());
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

    PreTranslatedVm entry;
    entry.vm_uid = req.vm_uid;
    entry.generation = *generation;
    entry.state = std::move(*state);
    entry.state.memory.pram_file_id = req.pram_file_id;
    entry.fixups = std::move(fixups);
    cache->vms.push_back(std::move(entry));
    stage_costs.push_back(TranslateStageCost(costs, req.vcpus, req.memory_bytes));
  }

  // Wire-encode the snapshots (and record their section-offset tables) on
  // real pool threads. Each task writes only its own cache slot; bytes are
  // independent of the thread count.
  std::vector<std::function<void()>> tasks;
  tasks.reserve(cache->vms.size());
  for (size_t i = 0; i < cache->vms.size(); ++i) {
    tasks.push_back([cache, i] {
      PreTranslatedVm& entry = cache->vms[i];
      entry.blob = EncodeUisrVm(entry.state, &entry.layout);
    });
  }
  RunOnWorkerPool(tasks, real_threads);

  // Park the blobs in kUisr frames now, while guests still run. Serial and
  // in request order, so the frame layout (and thus PRAM metadata) does not
  // depend on the thread count.
  if (park_memory != nullptr) {
    for (PreTranslatedVm& entry : cache->vms) {
      HYPERTP_ASSIGN_OR_RETURN(entry.parked,
                               ParkUisrBlob(*park_memory, entry.vm_uid, entry.blob));
    }
  }

  return ScheduleWork(stage_costs, workers);
}

namespace {

// The ordinal of each section of `layout` among the sections of its type
// (vCPU #2, device #0, ...); header, IOAPIC and PIT sections are #0.
std::vector<size_t> SectionOrdinals(const UisrSectionLayout& layout) {
  std::vector<size_t> ordinals;
  ordinals.reserve(layout.sections.size());
  size_t vcpus = 0;
  size_t devices = 0;
  for (const UisrSectionSpan& span : layout.sections) {
    ordinals.push_back(span.type == UisrSectionType::kVcpu     ? vcpus++
                       : span.type == UisrSectionType::kDevice ? devices++
                                                               : 0);
  }
  return ordinals;
}

}  // namespace

Result<ReconcileResult> ReconcilePreTranslated(PhysicalMemory& memory, PramBuilder& builder,
                                               const PreTranslatedVm& cached,
                                               const UisrVm& fresh, Arena* scratch) {
  const FrameExtent& parked = cached.parked;
  if (parked.count == 0) {
    return FailedPreconditionError("pretranslate: uid " + std::to_string(cached.vm_uid) +
                                   " has no parked blob to reconcile");
  }
  ReconcileResult out;
  for (const UisrSectionSpan& span : cached.layout.sections) {
    out.total_payload_bytes += span.payload_size;
  }

  // The cached layout only maps onto `fresh` if the section sequence and
  // every section's payload size are unchanged (emit order is header, vcpus,
  // ioapic, pit, devices). The size pass is pure counting: nothing is
  // encoded, and nothing in the parked frames is touched, before the verdict.
  const std::vector<size_t> ordinals = SectionOrdinals(cached.layout);
  bool patchable = fresh.vcpus.size() == cached.state.vcpus.size() &&
                   fresh.devices.size() == cached.state.devices.size();
  for (size_t i = 0; patchable && i < ordinals.size(); ++i) {
    const UisrSectionSpan& span = cached.layout.sections[i];
    patchable = UisrSectionPayloadSize(fresh, span.type, ordinals[i]) == span.payload_size;
  }
  if (!patchable) {
    // A section changed size (e.g. device opaque state grew) or the section
    // count moved: the TLV lengths shift, so re-encode the whole VM.
    out.kind = ReconcileKind::kReencoded;
    out.patched_bytes = out.total_payload_bytes;
    const size_t size = EncodedUisrSize(fresh);
    if ((size + kPageSize - 1) / kPageSize != parked.count) {
      HYPERTP_RETURN_IF_ERROR(memory.Free(parked.base, parked.count));
      HYPERTP_ASSIGN_OR_RETURN(out.stored, EncodeUisrVmIntoPram(memory, builder, fresh));
      return out;
    }
    HYPERTP_ASSIGN_OR_RETURN(std::span<uint8_t> frames,
                             memory.BackExtent(parked.base, parked.count, size));
    SpanWriter writer(frames.first(size));
    EncodeUisrVm(fresh, writer);
    HYPERTP_ASSIGN_OR_RETURN(out.stored,
                             RegisterParkedBlob(builder, cached.vm_uid, parked, size));
    return out;
  }

  // Compare each section's freshly encoded payload against the parked bytes
  // and rewrite only the ones that differ. Patching every differing section
  // with the fresh payload makes the result byte-identical to a from-scratch
  // EncodeUisrVm(fresh) — same sections, same order, same lengths — once the
  // CRC trailer is resealed. Scratch payloads come out of the arena, so a
  // whole batch of VMs reconciles without a heap allocation per section.
  Arena local_scratch;
  Arena& arena = scratch != nullptr ? *scratch : local_scratch;
  HYPERTP_ASSIGN_OR_RETURN(std::span<uint8_t> frames,
                           memory.BackedExtent(parked.base, parked.count));
  const std::span<uint8_t> blob = frames.first(cached.blob.size());
  for (size_t i = 0; i < ordinals.size(); ++i) {
    const UisrSectionSpan& span = cached.layout.sections[i];
    std::span<uint8_t> payload = arena.Alloc(span.payload_size);
    SpanWriter payload_writer(payload);
    EncodeUisrSectionPayloadTo(fresh, span.type, ordinals[i], payload_writer);
    if (std::ranges::equal(payload, blob.subspan(span.payload_offset, span.payload_size))) {
      continue;
    }
    HYPERTP_RETURN_IF_ERROR(PatchUisrSectionPayload(blob, span, payload));
    ++out.patched_sections;
    out.patched_bytes += span.payload_size;
  }
  // No differing section means the generation moved but nothing vCPU-visible
  // reached the UISR (e.g. PV event-channel activity): the parked blob is
  // already correct.
  out.kind = out.patched_sections == 0 ? ReconcileKind::kHit : ReconcileKind::kPatched;
  if (out.kind == ReconcileKind::kPatched) {
    HYPERTP_RETURN_IF_ERROR(ResealUisrBlob(blob));
  }
  HYPERTP_ASSIGN_OR_RETURN(out.stored,
                           RegisterParkedBlob(builder, cached.vm_uid, parked, blob.size()));
  return out;
}

}  // namespace pipeline
}  // namespace hypertp
