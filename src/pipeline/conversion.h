// Shared per-VM conversion pipeline (paper §3.1 steps 2/4, §3.4 parallelism).
//
//   save side:     Extract ──► UisrEncode ──► PramStore (fused: encode into frames)
//   restore side:  PramLoad ──► UisrDecode ──► Restore   (PramLoad is a view)
//
// Every mechanism that converts VM state — InPlaceTransplant, the migration
// engine's stop-and-copy (and MigrationTP above it), checkpointing — calls
// these stage functions, so the conversion logic exists exactly once and a
// given VM produces byte-identical UISR blobs whichever mechanism touches it
// (pipeline_test pins this).
//
// Threading contract: EncodeVmStates and DecodeVmStates are pure (no
// Hypervisor, no PhysicalMemory, no globals) and may run on real OS threads
// via RunOnWorkerPool — each slot of the pre-sized output vector is written
// by exactly one task. Extract/Store/Load/Restore touch shared simulator
// state and always run on the calling thread. Real-thread count never
// affects any output byte; only the modeled WorkSchedule decides charged
// durations.

#ifndef HYPERTP_SRC_PIPELINE_CONVERSION_H_
#define HYPERTP_SRC_PIPELINE_CONVERSION_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/base/result.h"
#include "src/hv/hypervisor.h"
#include "src/hw/machine.h"
#include "src/pram/pram.h"
#include "src/sim/time.h"
#include "src/uisr/codec.h"
#include "src/uisr/records.h"

namespace hypertp {
namespace pipeline {

// --- Cost models (HostCostProfile units; one place instead of three). ------

// PRAM construction for one VM: P2M/memslot walk + page-entry emission.
SimDuration PramStageCost(const HostCostProfile& costs, uint64_t memory_bytes);
// Extract + encode of one VM's platform/device state (the translation phase).
SimDuration TranslateStageCost(const HostCostProfile& costs, uint32_t vcpus,
                               uint64_t memory_bytes);
// Decode + relink of one VM under `target`. Xen's xl/libxl domain creation is
// heavier than kvmtool's, hence the kind-dependent factor (paper Table 4).
SimDuration RestoreStageCost(const HostCostProfile& costs, HypervisorKind target,
                             uint32_t vcpus, uint64_t memory_bytes);

// --- Save side. ------------------------------------------------------------

// Extract: VM_i State -> UisrVm through the source hypervisor's adapter.
// The VM must be paused. Serial stage (talks to the hypervisor).
Result<UisrVm> ExtractVmState(Hypervisor& hv, VmId id, FixupLog* fixups);

// UisrEncode: wire-encode a batch of extracted VMs. Pure; runs the per-VM
// encodes on up to `threads` real OS threads. Output order == input order,
// bytes independent of `threads`.
std::vector<std::vector<uint8_t>> EncodeVmStates(const std::vector<UisrVm>& vms, int threads);

// Where one VM's encoded UISR blob sits in PRAM: a contiguous run of kUisr
// frames registered as the PRAM file "uisr:<vm_uid>", which survives the
// micro-reboot.
struct StoredUisrBlob {
  FrameExtent frames;
  uint64_t file_id = 0;
  uint64_t bytes = 0;  // Encoded blob size (file size_bytes).
};

// Park: the one path that encodes UISR into PRAM-destined frames. Sizes
// every VM once and allocates its kUisr extent (owned kUisr, vm_uid),
// serially in `vms` order, so the frame layout does not depend on
// `threads`; then encodes each VM straight into its own pre-mapped extent
// through a PramFrameWriter on up to `threads` real OS threads — no
// intermediate vector, no copy. Registers nothing in PRAM
// (each result's file_id stays 0): pre-translation parks before the pause,
// the pause-time store registers at once. A non-null `layouts` receives
// each blob's section-offset table, in `vms` order.
Result<std::vector<StoredUisrBlob>> ParkVmStates(PhysicalMemory& memory,
                                                 const std::vector<UisrVm>& vms, int threads,
                                                 std::vector<UisrSectionLayout>* layouts);

// PramStore: ParkVmStates, then RegisterParkedBlob ("uisr:<vm.vm_uid>") per
// VM in `vms` order.
Result<std::vector<StoredUisrBlob>> EncodeVmStatesIntoPram(PhysicalMemory& memory,
                                                           PramBuilder& builder,
                                                           const std::vector<UisrVm>& vms,
                                                           int threads);

// Registers an already parked blob as the PRAM file "uisr:<vm_uid>",
// moving zero blob bytes.
Result<StoredUisrBlob> RegisterParkedBlob(PramBuilder& builder, uint64_t vm_uid,
                                          const FrameExtent& parked, uint64_t bytes);

// Parks an already encoded blob: the same frames and owner as ParkVmStates,
// filled by one copy. Only a reconcile whose blob outgrew or shrank out of
// its parked frames stores this way.
Result<FrameExtent> ParkUisrBlob(PhysicalMemory& memory, uint64_t vm_uid,
                                 std::span<const uint8_t> blob);

// --- Restore side. ---------------------------------------------------------

// PramLoad: a borrowed view of a parked blob. Every store path leaves a
// `uisr:` file as one contiguous run of order-0 frames (gfn 0..n-1) with one
// contiguous backing; anything else is refused with kDataLoss naming the
// file. The view is invalidated by freeing or re-backing the extent.
Result<std::span<const uint8_t>> ViewUisrBlob(const PhysicalMemory& memory,
                                              const PramFile& file);

// UisrDecode: decode a batch of blobs. Pure; runs on up to `threads` real OS
// threads. Output order == input order; per-blob errors come back in place
// so the caller reports the first failure in input order, exactly as a
// serial loop would. The span form is the zero-copy restore path (views
// straight into PRAM frames); the vector form copies nothing either, it just
// borrows from the vectors.
std::vector<Result<UisrVm>> DecodeVmStates(const std::vector<std::span<const uint8_t>>& blobs,
                                           int threads);
std::vector<Result<UisrVm>> DecodeVmStates(const std::vector<std::vector<uint8_t>>& blobs,
                                           int threads);

// Restore: UisrVm -> a new (paused) VM under `hv`. Serial stage.
Result<VmId> RestoreVmState(Hypervisor& hv, const UisrVm& uisr,
                            const GuestMemoryBinding& binding, FixupLog* fixups);

// --- Wire round-trip (migration stop-and-copy). ----------------------------

// UisrEncode + UisrDecode through one scratch buffer: what the source and
// destination proxies do to a VM_i State on the wire. Decodes straight from
// the encoder's buffer — no parked intermediate blob. On success
// `*encoded_bytes` (if non-null) holds the wire size.
Result<UisrVm> RoundTripVmState(const UisrVm& uisr, uint64_t* encoded_bytes);

}  // namespace pipeline
}  // namespace hypertp

#endif  // HYPERTP_SRC_PIPELINE_CONVERSION_H_
