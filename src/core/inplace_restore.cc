// Restore-side phase unit of InPlaceTransplant::Run:
// PramLoad -> UisrDecode -> Restore over every `uisr:` PRAM file.

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/core/inplace_internal.h"
#include "src/pipeline/conversion.h"

namespace hypertp {
namespace inplace_internal {

Result<RestoreOutcome> RestoreAllFromPram(Hypervisor& hv, Machine& machine,
                                          const PramImage& pram, const InPlaceOptions& options,
                                          HypervisorKind kind, int workers, int real_threads,
                                          FixupLog* fixups, InPlaceOptions::Fault inject) {
  const HostCostProfile& costs = machine.profile().costs;

  // PramLoad (serial): borrow every parked UISR blob straight from its
  // PRAM-resident frames. Every store path leaves a `uisr:` file as one
  // contiguous frame run; a file that is not is refused, naming it.
  std::vector<const PramFile*> files;
  std::vector<std::span<const uint8_t>> blobs;
  for (const PramFile& file : pram.files) {
    if (!file.name.starts_with("uisr:")) {
      continue;
    }
    auto view = pipeline::ViewUisrBlob(machine.memory(), file);
    if (!view.ok()) {
      return DataLossError("inplace: " + view.error().message());
    }
    blobs.push_back(*view);
    files.push_back(&file);
  }
  if (!files.empty() && (inject == InPlaceOptions::Fault::kDecodeFailure ||
                         inject == InPlaceOptions::Fault::kLedgerTornWrite)) {
    return DataLossError("inplace: injected UISR decode fault under target");
  }

  // UisrDecode (pure: real OS threads allowed). The whole batch is decoded —
  // and thereby CRC-validated — before the first VM is relinked; the first
  // corrupt blob in file order is reported.
  std::vector<Result<UisrVm>> decoded = pipeline::DecodeVmStates(blobs, real_threads);
  for (size_t i = 0; i < decoded.size(); ++i) {
    if (!decoded[i].ok()) {
      return DataLossError("inplace: UISR blob for '" + files[i]->name +
                           "' corrupt after reboot: " + decoded[i].error().ToString());
    }
  }

  // Restore (serial): relink every VM over its surviving memory.
  RestoreOutcome out;
  std::vector<SimDuration> restore_costs;
  for (size_t i = 0; i < decoded.size(); ++i) {
    const UisrVm& uisr = *decoded[i];
    const PramFile* vm_file = pram.FindFile(uisr.memory.pram_file_id);
    if (vm_file == nullptr) {
      return DataLossError("inplace: PRAM memory file " +
                           std::to_string(uisr.memory.pram_file_id) + " missing");
    }
    if (i == 0 && inject == InPlaceOptions::Fault::kRestoreFailure) {
      return InternalError("inplace: injected VM restore fault under target");
    }
    GuestMemoryBinding binding;
    binding.mode = GuestMemoryBinding::Mode::kAdoptInPlace;
    binding.entries = vm_file->entries;
    binding.remap_high_ioapic_pins = options.remap_high_ioapic_pins;
    auto vm_id = pipeline::RestoreVmState(hv, uisr, binding, fixups);
    if (!vm_id.ok()) {
      return DataLossError("inplace: restore of uid " + std::to_string(uisr.vm_uid) +
                           " failed: " + vm_id.error().ToString());
    }
    out.vms.push_back(*vm_id);
    out.uids.push_back(uisr.vm_uid);
    restore_costs.push_back(
        pipeline::RestoreStageCost(costs, kind, static_cast<uint32_t>(uisr.vcpus.size()),
                                   uisr.memory.memory_bytes));
  }
  out.schedule = ScheduleWork(restore_costs, workers);
  return out;
}

}  // namespace inplace_internal
}  // namespace hypertp
