#include "src/pipeline/conversion.h"

#include <algorithm>
#include <functional>
#include <string>
#include <utility>

#include "src/base/bytes.h"
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

// Serial half of the store: allocate + back the extent and register the PRAM
// file. The writer is ready for an encode that must produce exactly
// `encoded_size` bytes.
Result<std::pair<PramFrameWriter, StoredUisrBlob>> OpenUisrFrames(PhysicalMemory& memory,
                                                                 PramBuilder& builder,
                                                                 uint64_t vm_uid,
                                                                 size_t encoded_size) {
  HYPERTP_ASSIGN_OR_RETURN(PramFrameWriter writer,
                           PramFrameWriter::Create(memory, vm_uid, encoded_size));
  const FrameExtent& ext = writer.frames();
  auto file_id = builder.AddFile("uisr:" + std::to_string(vm_uid), encoded_size, false,
                                 UisrFileEntries(ext.base, ext.count));
  if (!file_id.ok()) {
    (void)memory.Free(ext.base, ext.count);
    return file_id.error();
  }
  return std::make_pair(writer, StoredUisrBlob{ext, *file_id, encoded_size});
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

Result<std::vector<StoredUisrBlob>> EncodeVmStatesIntoPram(PhysicalMemory& memory,
                                                           PramBuilder& builder,
                                                           const std::vector<UisrVm>& vms,
                                                           int threads) {
  // Serial: allocation + registration in input order, so the frame layout and
  // PRAM metadata do not depend on the thread count.
  std::vector<PramFrameWriter> writers;
  std::vector<StoredUisrBlob> stored;
  writers.reserve(vms.size());
  stored.reserve(vms.size());
  for (const UisrVm& vm : vms) {
    HYPERTP_ASSIGN_OR_RETURN(auto opened,
                             OpenUisrFrames(memory, builder, vm.vm_uid, EncodedUisrSize(vm)));
    writers.push_back(opened.first);
    stored.push_back(opened.second);
  }

  // Parallel: pure encodes into disjoint pre-mapped extents. No task touches
  // PhysicalMemory bookkeeping, only its own span.
  std::vector<std::function<void()>> tasks;
  tasks.reserve(vms.size());
  for (size_t i = 0; i < vms.size(); ++i) {
    tasks.push_back(
        [&vms, &writers, i] { EncodeUisrVm(vms[i], static_cast<SpanWriter&>(writers[i])); });
  }
  RunOnWorkerPool(tasks, threads);
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
  ByteWriter w;
  EncodeUisrVm(uisr, w);
  if (encoded_bytes != nullptr) {
    *encoded_bytes = w.size();
  }
  return DecodeUisrVm(w.bytes());
}

}  // namespace pipeline
}  // namespace hypertp
