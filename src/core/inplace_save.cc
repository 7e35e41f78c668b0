// Save-side phase units of InPlaceTransplant::Run: preparation (PRAM
// construction) and translation (Extract -> UisrEncode -> PramStore).

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "src/core/inplace_internal.h"
#include "src/pipeline/conversion.h"
#include "src/uisr/codec.h"

namespace hypertp {
namespace inplace_internal {

std::vector<PramPageEntry> EntriesFromMappings(const std::vector<GuestMapping>& mappings,
                                               bool huge_pages) {
  // Each mapping is already one contiguous (gfn, mfn) run, so entry
  // construction is a per-run decision instead of a per-frame loop
  // (pram.cc:BuildEntriesForRange; output pinned equal to the old greedy).
  std::vector<PramPageEntry> entries;
  for (const GuestMapping& m : mappings) {
    BuildEntriesForRange(m.gfn, m.mfn, m.frames, huge_pages, entries);
  }
  return entries;
}

Result<Mfn> TranslateInMap(const std::vector<GuestMapping>& map, Gfn gfn) {
  // GuestMemoryMap() returns mappings sorted by gfn (Hypervisor contract), so
  // only the last mapping starting at or before gfn can contain it.
  auto it = std::upper_bound(map.begin(), map.end(), gfn,
                             [](Gfn g, const GuestMapping& m) { return g < m.gfn; });
  if (it != map.begin()) {
    const GuestMapping& m = *(it - 1);
    if (gfn < m.gfn_end()) {
      return m.mfn + (gfn - m.gfn);
    }
  }
  return NotFoundError("gfn " + std::to_string(gfn) + " unmapped");
}

Result<WorkSchedule> PrepareVms(Hypervisor& source, Machine& machine,
                                const InPlaceOptions& options, int workers,
                                PramBuilder& builder, std::vector<VmSnapshot>& vms) {
  const HostCostProfile& costs = machine.profile().costs;
  std::vector<SimDuration> pram_costs;
  for (VmId id : source.ListVms()) {
    VmSnapshot snap;
    snap.id = id;
    HYPERTP_ASSIGN_OR_RETURN(snap.info, source.GetVmInfo(id));
    HYPERTP_RETURN_IF_ERROR(source.PrepareVmForTransplant(id));
    HYPERTP_ASSIGN_OR_RETURN(snap.map, source.GuestMemoryMap(id));

    const bool huge = options.use_huge_pages && snap.info.huge_pages;
    HYPERTP_ASSIGN_OR_RETURN(
        snap.vm_file_id, builder.AddFile("vm:" + std::to_string(snap.info.uid),
                                         snap.info.memory_bytes, huge,
                                         EntriesFromMappings(snap.map, huge)));

    // Verification samples: spread gfns across the address space.
    if (options.verify_guest_memory) {
      const uint64_t pages = snap.info.memory_bytes / kPageSize;
      const int n = std::max(options.verify_sample_pages, 1);
      for (int i = 0; i < n; ++i) {
        const Gfn gfn = (pages * static_cast<uint64_t>(i)) / static_cast<uint64_t>(n);
        HYPERTP_ASSIGN_OR_RETURN(uint64_t word, source.ReadGuestPage(id, gfn));
        HYPERTP_ASSIGN_OR_RETURN(Mfn mfn, TranslateInMap(snap.map, gfn));
        snap.sample_gfns.push_back(gfn);
        snap.sample_words.push_back(word);
        snap.sample_mfns.push_back(mfn);
      }
    }

    pram_costs.push_back(pipeline::PramStageCost(costs, snap.info.memory_bytes));
    vms.push_back(std::move(snap));
  }
  return ScheduleWork(pram_costs, workers);
}

namespace {

// Per-VM report record + the kPramWriteFailure injection point, which fires
// after the record is pushed but before any bytes reach PRAM frames.
Result<void> RecordVm(const InPlaceOptions& options, const VmSnapshot& snap,
                      uint64_t uisr_bytes, TransplantReport& report) {
  report.uisr_total_bytes += uisr_bytes;
  report.vms.push_back(VmTransplantRecord{snap.info.uid, snap.info.name, snap.info.vcpus,
                                          snap.info.memory_bytes, uisr_bytes});
  if (options.inject_fault == InPlaceOptions::Fault::kPramWriteFailure) {
    return InternalError("injected PRAM write fault while parking UISR blob for uid " +
                         std::to_string(snap.info.uid));
  }
  return OkResult();
}

// Pause-time translation + store of one VM when a pre-translation cache is
// present: compare the state generation against the speculative snapshot and
// do the least work that still yields PRAM bytes identical to a from-scratch
// translate. Returns the modeled cost to charge inside the pause window.
Result<SimDuration> TranslateAgainstCache(Hypervisor& source, Machine& machine,
                                          const InPlaceOptions& options,
                                          const pipeline::PreTranslationCache& cache,
                                          PramBuilder& builder, VmSnapshot& snap,
                                          TransplantReport& report) {
  // InPlaceTransplant::Run pre-translates every VM it pauses and always
  // parks the blobs, so a missing or unparked entry is a bug, not a mode.
  const pipeline::PreTranslatedVm* entry = cache.Find(snap.info.uid);
  if (entry == nullptr || entry->parked.count == 0) {
    return InternalError("inplace: no parked pre-translation for uid " +
                         std::to_string(snap.info.uid));
  }
  const HostCostProfile& costs = machine.profile().costs;
  HYPERTP_ASSIGN_OR_RETURN(uint64_t generation, source.StateGeneration(snap.id));

  if (entry->generation == generation) {
    // Generation unchanged: the parked blob is the blob, and the pause window
    // only registers the PRAM file over it. Replay the fixups its extract
    // recorded — a pause-time extract would have logged the same ones.
    report.fixups.insert(report.fixups.end(), entry->fixups.begin(), entry->fixups.end());
    ++report.pretranslate_hits;
    HYPERTP_RETURN_IF_ERROR(RecordVm(options, snap, entry->blob.size(), report));
    HYPERTP_ASSIGN_OR_RETURN(pipeline::StoredUisrBlob stored,
                             pipeline::RegisterParkedBlob(builder, snap.info.uid, entry->parked,
                                                          entry->blob.size()));
    snap.uisr_frames.push_back(stored.frames);
    return costs.pretranslate_check;
  }

  // Invalidated: re-extract now that the guest is paused and reconcile the
  // parked blob with it in place.
  HYPERTP_ASSIGN_OR_RETURN(UisrVm fresh,
                           pipeline::ExtractVmState(source, snap.id, &report.fixups));
  fresh.memory.pram_file_id = snap.vm_file_id;
  ++report.pretranslate_invalidations;
  HYPERTP_RETURN_IF_ERROR(RecordVm(options, snap, EncodedUisrSize(fresh), report));
  HYPERTP_ASSIGN_OR_RETURN(
      pipeline::ReconcileResult rec,
      pipeline::ReconcilePreTranslated(machine.memory(), builder, *entry, fresh));
  snap.uisr_frames.push_back(rec.stored.frames);

  // Charge the full translate scaled by the payload fraction actually
  // rewritten: a false-positive invalidation (nothing reached the UISR)
  // degenerates to the check cost, a structural change to the full cost.
  const SimDuration full_cost =
      pipeline::TranslateStageCost(costs, snap.info.vcpus, snap.info.memory_bytes);
  const double dirty_fraction =
      rec.total_payload_bytes > 0
          ? static_cast<double>(rec.patched_bytes) / static_cast<double>(rec.total_payload_bytes)
          : 1.0;
  return costs.pretranslate_check +
         static_cast<SimDuration>(static_cast<double>(full_cost) * dirty_fraction);
}

}  // namespace

Result<WorkSchedule> TranslateVms(Hypervisor& source, Machine& machine,
                                  const InPlaceOptions& options, int workers, int real_threads,
                                  PramBuilder& builder, TransplantReport& report,
                                  std::vector<VmSnapshot>& vms,
                                  const pipeline::PreTranslationCache* cache) {
  if (options.inject_fault == InPlaceOptions::Fault::kTranslationFailure) {
    return InternalError("injected translation fault");
  }
  const HostCostProfile& costs = machine.profile().costs;
  std::vector<SimDuration> translate_costs;

  if (cache != nullptr) {
    for (VmSnapshot& snap : vms) {
      HYPERTP_ASSIGN_OR_RETURN(SimDuration cost,
                               TranslateAgainstCache(source, machine, options, *cache, builder,
                                                     snap, report));
      translate_costs.push_back(cost);
    }
    return ScheduleWork(translate_costs, workers);
  }

  // No speculative cache (the pre_translate ablation): everything happens
  // inside the pause window.
  // Extract (serial: talks to the source hypervisor).
  std::vector<UisrVm> states;
  states.reserve(vms.size());
  for (VmSnapshot& snap : vms) {
    HYPERTP_ASSIGN_OR_RETURN(UisrVm uisr,
                             pipeline::ExtractVmState(source, snap.id, &report.fixups));
    uisr.memory.pram_file_id = snap.vm_file_id;
    states.push_back(std::move(uisr));
    translate_costs.push_back(
        pipeline::TranslateStageCost(costs, snap.info.vcpus, snap.info.memory_bytes));
  }

  // Report records first (sizes are exact without encoding), so the injected
  // PRAM write fault still fires after the first record and before any store.
  for (size_t i = 0; i < vms.size(); ++i) {
    HYPERTP_RETURN_IF_ERROR(RecordVm(options, vms[i], EncodedUisrSize(states[i]), report));
  }

  // UisrEncode + PramStore fused: frames are allocated and registered
  // serially in VM order, then the encodes run straight into the mapped
  // extents on up to `real_threads` OS threads — no intermediate blob
  // vectors, no page-by-page copy.
  HYPERTP_ASSIGN_OR_RETURN(
      std::vector<pipeline::StoredUisrBlob> stored,
      pipeline::EncodeVmStatesIntoPram(machine.memory(), builder, states, real_threads));
  for (size_t i = 0; i < vms.size(); ++i) {
    vms[i].uisr_frames.push_back(stored[i].frames);
  }
  return ScheduleWork(translate_costs, workers);
}

}  // namespace inplace_internal
}  // namespace hypertp
