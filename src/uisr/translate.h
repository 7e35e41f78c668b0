// The UISR translation kit: the jobs every hypervisor's to_uisr/from_uisr
// converters share (paper §3.1), written once. An adapter (src/xen/xen_uisr,
// src/kvm/kvm_uisr, src/bhyve/bhyve_uisr) keeps only its record shapes and
// the rules that are truly its own; the kit supplies
//  - the fixup log every lossy rule writes to, and the vCPU list loop;
//  - one table of architectural MSR indices, and one gather/scatter for the
//    kinds that keep the well-known MSRs in fixed record slots;
//  - one IOAPIC fold for targets narrower than the source (§4.2.1);
//  - one i8254 channel copy for the kinds that model a PIT;
//  - one CR8 -> LAPIC TPR sync.
// A fourth hypervisor kind costs its records plus a field map.

#ifndef HYPERTP_SRC_UISR_TRANSLATE_H_
#define HYPERTP_SRC_UISR_TRANSLATE_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/base/result.h"
#include "src/uisr/records.h"

namespace hypertp {

class JsonWriter;

// A compatibility adjustment applied during UISR translation (§4.2.1), e.g.
// disconnecting IOAPIC pins 24-47 when restoring into KVM. Fixups are
// surfaced in the TransplantReport so operators can audit them.
struct StateFixup {
  uint64_t vm_uid = 0;
  std::string component;  // "ioapic", "lapic", ...
  std::string description;
};
using FixupLog = std::vector<StateFixup>;

// Writes `"fixups":[{"vm_uid","component","description"},...]` into the open
// JSON object: the one rendering every report that carries a FixupLog uses.
void FixupLogToJson(JsonWriter& j, const FixupLog& fixups);

// --- vCPU lists ------------------------------------------------------------

// Translates each record of `from` with `translate` into `to` (cleared
// first), stopping at the first error.
template <typename From, typename To, typename Translate>
Result<void> TranslateVcpus(const std::vector<From>& from, std::vector<To>& to,
                            Translate translate) {
  to.clear();
  to.reserve(from.size());
  for (const From& record : from) {
    HYPERTP_ASSIGN_OR_RETURN(To translated, translate(record));
    to.push_back(std::move(translated));
  }
  return OkResult();
}

// --- Architectural MSR indices ----------------------------------------------

// The well-known MSRs that fixed-slot records (Xen's HVM CPU record, bhyve's
// vCPU) keep in named fields. Listed in index order, which is the order of
// UISR's canonical MSR list.
inline constexpr uint32_t kMsrTsc = 0x00000010;
inline constexpr uint32_t kMsrSysenterCs = 0x00000174;
inline constexpr uint32_t kMsrSysenterEsp = 0x00000175;
inline constexpr uint32_t kMsrSysenterEip = 0x00000176;
inline constexpr uint32_t kMsrMiscEnable = 0x000001A0;
inline constexpr uint32_t kMsrEfer = 0xC0000080;
inline constexpr uint32_t kMsrStar = 0xC0000081;
inline constexpr uint32_t kMsrLstar = 0xC0000082;
inline constexpr uint32_t kMsrCstar = 0xC0000083;
inline constexpr uint32_t kMsrSfmask = 0xC0000084;
inline constexpr uint32_t kMsrFsBase = 0xC0000100;
inline constexpr uint32_t kMsrGsBase = 0xC0000101;
inline constexpr uint32_t kMsrKernelGsBase = 0xC0000102;
inline constexpr std::array<uint32_t, 13> kFixedSlotMsrs = {
    kMsrTsc,   kMsrSysenterCs, kMsrSysenterEsp, kMsrSysenterEip, kMsrMiscEnable,
    kMsrEfer,  kMsrStar,       kMsrLstar,       kMsrCstar,       kMsrSfmask,
    kMsrFsBase, kMsrGsBase,    kMsrKernelGsBase,
};

// MSRs UISR stores structurally (LAPIC and MTRR records) and KVM carries in
// its generic MSR list.
inline constexpr uint32_t kMsrApicBase = 0x0000001B;
inline constexpr uint32_t kMsrMtrrCap = 0x000000FE;
inline constexpr uint32_t kMsrMtrrPhysBase0 = 0x00000200;  // ..0x20F base/mask pairs.
inline constexpr uint32_t kMsrPat = 0x00000277;
inline constexpr uint32_t kMsrMtrrDefType = 0x000002FF;
inline constexpr uint32_t kMsrTscDeadline = 0x000006E0;
// The fixed-range MTRRs in UisrMtrr::fixed order: FIX64K_00000,
// FIX16K_80000, FIX16K_A0000, FIX4K_C0000..FIX4K_F8000.
inline constexpr std::array<uint32_t, kMtrrFixedCount> kMtrrFixedMsrs = {
    0x250, 0x258, 0x259, 0x268, 0x269, 0x26A, 0x26B, 0x26C, 0x26D, 0x26E, 0x26F};

// A fixed-slot kind's field map: the native field holding each
// kFixedSlotMsrs entry, in the same order. T is uint64_t for the scatter and
// const uint64_t for the gather.
template <typename T>
using MsrSlots = std::array<T*, kFixedSlotMsrs.size()>;

// The canonical sorted MSR list of a fixed-slot vCPU.
std::vector<UisrMsr> GatherFixedSlotMsrs(const MsrSlots<const uint64_t>& slots);

// Fills the fixed slots from `vcpu.msrs`. The EFER slot takes sregs.efer
// (the state the target's VMCS loads); an EFER MSR that disagrees is logged
// and ignored. MSRs with no slot are dropped, each with a `cpu` fixup naming
// the target: "MSR 0x<index> has no <slot_owner> slot; dropped".
void ScatterFixedSlotMsrs(const UisrVcpu& vcpu, const MsrSlots<uint64_t>& slots,
                          std::string_view slot_owner, uint64_t vm_uid, FixupLog* log);

// --- IOAPIC ------------------------------------------------------------------

// Copies `vm`'s first min(num_pins, redirtbl.size()) redirection entries into
// `redirtbl` (the rest stay zero) and folds every active pin beyond the
// target's width: with `remap_high_pins` (the paper's future-work extension)
// onto the first free pin in 16..width-1, the guest being notified of the new
// GSI; otherwise, or when no pin is free, it is disconnected (§4.2.1). Each
// active high pin yields exactly one `ioapic` fixup naming `kind`.
void FoldIoapicPins(const UisrVm& vm, std::span<uint64_t> redirtbl, std::string_view kind,
                    bool remap_high_pins, FixupLog* log);

// Native IOAPIC records share one shape: id, base_address and a fixed-width
// redirtbl array.
template <typename NativeIoapic>
void IoapicFromUisr(const UisrVm& vm, std::string_view kind, bool remap_high_pins,
                    FixupLog* log, NativeIoapic& native) {
  native.id = static_cast<decltype(native.id)>(vm.ioapic.id);
  native.base_address = vm.ioapic.base_address;
  FoldIoapicPins(vm, native.redirtbl, kind, remap_high_pins, log);
}

template <typename NativeIoapic>
void IoapicToUisr(const NativeIoapic& native, UisrIoapic& out) {
  out.id = native.id;
  out.base_address = native.base_address;
  out.num_pins = static_cast<uint32_t>(native.redirtbl.size());
  out.redirection.fill(0);
  std::copy(native.redirtbl.begin(), native.redirtbl.end(), out.redirection.begin());
}

// --- PIT ---------------------------------------------------------------------

// The i8254 channel copy, either direction, between UISR and the kinds that
// model one (Xen, KVM): their channel records carry UISR's fields under the
// same names, with a signed load time.
template <typename To, typename From>
void CopyPitChannels(const std::array<From, 3>& from, std::array<To, 3>& to) {
  for (size_t i = 0; i < 3; ++i) {
    const From& f = from[i];
    To& t = to[i];
    t.count = f.count;
    t.latched_count = f.latched_count;
    t.count_latched = f.count_latched;
    t.status_latched = f.status_latched;
    t.status = f.status;
    t.read_state = f.read_state;
    t.write_state = f.write_state;
    t.write_latch = f.write_latch;
    t.rw_mode = f.rw_mode;
    t.mode = f.mode;
    t.bcd = f.bcd;
    t.gate = f.gate;
    t.count_load_time = static_cast<decltype(t.count_load_time)>(f.count_load_time);
  }
}

// --- LAPIC -------------------------------------------------------------------

// Offset of the task-priority register in the LAPIC register page.
inline constexpr size_t kLapicTprOffset = 0x80;

// CR8 is authoritative (it is what the target's VMCS loads): sets the TPR in
// `regs` to CR8[3:0] << 4. Returns whether the page disagreed before.
bool SyncTprFromCr8(uint64_t cr8, std::array<uint8_t, kLapicRegsSize>& regs);

}  // namespace hypertp

#endif  // HYPERTP_SRC_UISR_TRANSLATE_H_
