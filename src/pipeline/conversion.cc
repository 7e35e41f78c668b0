#include "src/pipeline/conversion.h"

#include <functional>
#include <string>

#include "src/pram/frame_writer.h"
#include "src/sim/worker_pool.h"
#include "src/uisr/codec.h"

namespace hypertp {
namespace pipeline {
namespace {

// Unit note: despite the `_per_gb` field names, HostCostProfile scales by the
// binary gibibyte (1 GiB = 1 << 30 bytes), not the decimal gigabyte. ToGiB /
// ScalePerGiB spell it out so the cost model can't be mis-tuned by reading
// "gb" as 10^9. See the matching comment on HostCostProfile.
double ToGiB(uint64_t bytes) { return static_cast<double>(bytes) / static_cast<double>(1ull << 30); }

SimDuration ScalePerGiB(SimDuration per_gib, uint64_t bytes) {
  return static_cast<SimDuration>(static_cast<double>(per_gib) * ToGiB(bytes));
}

}  // namespace

SimDuration PramStageCost(const HostCostProfile& costs, uint64_t memory_bytes) {
  return costs.pram_fixed + ScalePerGiB(costs.pram_per_gb, memory_bytes);
}

SimDuration TranslateStageCost(const HostCostProfile& costs, uint32_t vcpus,
                               uint64_t memory_bytes) {
  return costs.translate_per_vm + costs.translate_per_vcpu * static_cast<int>(vcpus) +
         ScalePerGiB(costs.translate_per_gb, memory_bytes);
}

SimDuration RestoreStageCost(const HostCostProfile& costs, HypervisorKind target,
                             uint32_t vcpus, uint64_t memory_bytes) {
  SimDuration cost = costs.restore_per_vm + costs.restore_per_vcpu * static_cast<int>(vcpus) +
                     ScalePerGiB(costs.restore_per_gb, memory_bytes);
  if (target == HypervisorKind::kXen) {
    cost *= 2;  // xl/libxl domain creation is heavier than kvmtool's.
  }
  return cost;
}

Result<UisrVm> ExtractVmState(Hypervisor& hv, VmId id, FixupLog* fixups) {
  return hv.SaveVmToUisr(id, fixups);
}

std::vector<std::vector<uint8_t>> EncodeVmStates(const std::vector<UisrVm>& vms, int threads) {
  std::vector<std::vector<uint8_t>> blobs(vms.size());
  std::vector<std::function<void()>> tasks;
  tasks.reserve(vms.size());
  for (size_t i = 0; i < vms.size(); ++i) {
    tasks.push_back([&vms, &blobs, i] { blobs[i] = EncodeUisrVm(vms[i]); });
  }
  RunOnWorkerPool(tasks, threads);
  return blobs;
}

namespace {

// The PRAM entries of a parked blob: per-frame order-0, gfn 0..frames-1.
// (kUisr extents are allocated with alignment 1, so their base is generally
// not 512-aligned and order-9 entries — which AddFile validates as aligned —
// cannot apply. Guest memory files are where 2 MiB entries happen.)
std::vector<PramPageEntry> UisrFileEntries(Mfn base, uint64_t frames) {
  std::vector<PramPageEntry> entries;
  entries.reserve(frames);
  for (uint64_t i = 0; i < frames; ++i) {
    entries.push_back(PramPageEntry{i, base + i, 0});
  }
  return entries;
}

}  // namespace

Result<FrameExtent> ParkUisrBlob(PhysicalMemory& memory, uint64_t vm_uid,
                                 std::span<const uint8_t> blob) {
  // The same frames and backing as the encode-into-frames store, filled by
  // one copy; the trailing bytes of the last frame stay zero.
  HYPERTP_ASSIGN_OR_RETURN(PramFrameWriter writer,
                           PramFrameWriter::Create(memory, vm_uid, blob.size()));
  writer.PutBytes(blob);
  return writer.frames();
}

Result<StoredUisrBlob> RegisterParkedBlob(PramBuilder& builder, uint64_t vm_uid,
                                          const FrameExtent& parked, uint64_t bytes) {
  HYPERTP_ASSIGN_OR_RETURN(uint64_t file_id,
                           builder.AddFile("uisr:" + std::to_string(vm_uid), bytes, false,
                                           UisrFileEntries(parked.base, parked.count)));
  return StoredUisrBlob{parked, file_id, bytes};
}

Result<std::vector<StoredUisrBlob>> ParkVmStates(PhysicalMemory& memory,
                                                 const std::vector<UisrVm>& vms, int threads,
                                                 std::vector<UisrSectionLayout>* layouts) {
  // Serial: one size pass and one allocation per VM, in input order, so the
  // frame layout does not depend on the thread count.
  std::vector<PramFrameWriter> writers;
  std::vector<StoredUisrBlob> parked;
  writers.reserve(vms.size());
  parked.reserve(vms.size());
  for (const UisrVm& vm : vms) {
    const size_t bytes = EncodedUisrSize(vm);
    HYPERTP_ASSIGN_OR_RETURN(PramFrameWriter writer,
                             PramFrameWriter::Create(memory, vm.vm_uid, bytes));
    parked.push_back(StoredUisrBlob{writer.frames(), 0, bytes});
    writers.push_back(writer);
  }
  if (layouts != nullptr) {
    layouts->assign(vms.size(), UisrSectionLayout{});
  }

  // Parallel: pure encodes into disjoint pre-mapped extents. No task touches
  // PhysicalMemory bookkeeping, only its own span (and layout slot).
  std::vector<std::function<void()>> tasks;
  tasks.reserve(vms.size());
  for (size_t i = 0; i < vms.size(); ++i) {
    UisrSectionLayout* layout = layouts != nullptr ? &(*layouts)[i] : nullptr;
    tasks.push_back([&vms, &writers, i, layout] { EncodeUisrVm(vms[i], writers[i], layout); });
  }
  RunOnWorkerPool(tasks, threads);
  return parked;
}

Result<std::vector<StoredUisrBlob>> EncodeVmStatesIntoPram(PhysicalMemory& memory,
                                                           PramBuilder& builder,
                                                           const std::vector<UisrVm>& vms,
                                                           int threads) {
  HYPERTP_ASSIGN_OR_RETURN(std::vector<StoredUisrBlob> stored,
                           ParkVmStates(memory, vms, threads, nullptr));
  // AddFile allocates no frames, so registering after the parkings leaves
  // every frame base and file id where an interleaved store put them.
  for (size_t i = 0; i < vms.size(); ++i) {
    HYPERTP_ASSIGN_OR_RETURN(stored[i], RegisterParkedBlob(builder, vms[i].vm_uid,
                                                           stored[i].frames, stored[i].bytes));
  }
  return stored;
}

Result<std::span<const uint8_t>> ViewUisrBlob(const PhysicalMemory& memory,
                                              const PramFile& file) {
  const auto refuse = [&file](const std::string& why) {
    return DataLossError("uisr file '" + file.name + "' " + why);
  };
  if (file.entries.empty()) {
    return refuse("has no entries");
  }
  const Mfn base = file.entries.front().mfn;
  uint64_t frames = 0;
  for (const PramPageEntry& e : file.entries) {
    if (e.gfn != frames || e.mfn != base + frames || e.order != 0) {
      return refuse("is not one contiguous frame run");
    }
    ++frames;
  }
  if (frames * kPageSize < file.size_bytes) {
    return refuse("entries cover fewer bytes than its size");
  }
  auto backing = memory.BackedExtent(base, frames);
  if (!backing.ok()) {
    return refuse("frames have no contiguous backing");
  }
  return backing->first(file.size_bytes);
}

std::vector<Result<UisrVm>> DecodeVmStates(const std::vector<std::span<const uint8_t>>& blobs,
                                           int threads) {
  // Pre-size the output with placeholder errors so each task only ever
  // assigns its own slot (Result<UisrVm> has no default constructor).
  std::vector<Result<UisrVm>> decoded(
      blobs.size(), Result<UisrVm>(InternalError("uisr decode stage did not run")));
  std::vector<std::function<void()>> tasks;
  tasks.reserve(blobs.size());
  for (size_t i = 0; i < blobs.size(); ++i) {
    tasks.push_back([&blobs, &decoded, i] { decoded[i] = DecodeUisrVm(blobs[i]); });
  }
  RunOnWorkerPool(tasks, threads);
  return decoded;
}

std::vector<Result<UisrVm>> DecodeVmStates(const std::vector<std::vector<uint8_t>>& blobs,
                                           int threads) {
  std::vector<std::span<const uint8_t>> views(blobs.begin(), blobs.end());
  return DecodeVmStates(views, threads);
}

Result<VmId> RestoreVmState(Hypervisor& hv, const UisrVm& uisr,
                            const GuestMemoryBinding& binding, FixupLog* fixups) {
  return hv.RestoreVmFromUisr(uisr, binding, fixups);
}

Result<UisrVm> RoundTripVmState(const UisrVm& uisr, uint64_t* encoded_bytes) {
  const std::vector<uint8_t> wire = EncodeUisrVm(uisr);
  if (encoded_bytes != nullptr) {
    *encoded_bytes = wire.size();
  }
  return DecodeUisrVm(wire);
}

}  // namespace pipeline
}  // namespace hypertp
