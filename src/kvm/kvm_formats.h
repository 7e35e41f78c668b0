// KVMish's native VM state representation.
//
// These structs mirror the shape of the Linux KVM UAPI (kvm_regs, kvm_sregs,
// kvm_msrs, kvm_fpu, kvm_lapic_state, kvm_irqchip, kvm_pit_state2): segment
// attributes as separate byte fields, MSRs as a generic {index, data} list
// (including the APIC base, PAT and all MTRR registers — Table 2's
// "Xen LAPIC/MTRR map to KVM MSRS"), the FPU unpacked, XCRs separate from the
// XSAVE area, and a 24-pin IOAPIC.

#ifndef HYPERTP_SRC_KVM_KVM_FORMATS_H_
#define HYPERTP_SRC_KVM_KVM_FORMATS_H_

#include <array>
#include <cstdint>
#include <vector>

#include "src/uisr/records.h"

namespace hypertp {

// kvm_segment: attributes as discrete fields (no packed word).
struct KvmSegment {
  uint64_t base = 0;
  uint32_t limit = 0;
  uint16_t selector = 0;
  uint8_t type = 0;
  uint8_t present = 0, dpl = 0, db = 0, s = 0, l = 0, g = 0, avl = 0;
  uint8_t unusable = 0;

  bool operator==(const KvmSegment&) const = default;
};

struct KvmDtable {
  uint64_t base = 0;
  uint16_t limit = 0;

  bool operator==(const KvmDtable&) const = default;
};

// kvm_regs: GPRs in KVM's member order.
struct KvmRegs {
  uint64_t rax = 0, rbx = 0, rcx = 0, rdx = 0;
  uint64_t rsi = 0, rdi = 0, rsp = 0, rbp = 0;
  uint64_t r8 = 0, r9 = 0, r10 = 0, r11 = 0, r12 = 0, r13 = 0, r14 = 0, r15 = 0;
  uint64_t rip = 0, rflags = 0;

  bool operator==(const KvmRegs&) const = default;
};

// kvm_sregs: KVM *does* carry CR8 and the APIC base here (unlike Xen).
struct KvmSregs {
  KvmSegment cs, ds, es, fs, gs, ss, tr, ldt;
  KvmDtable gdt, idt;
  uint64_t cr0 = 0, cr2 = 0, cr3 = 0, cr4 = 0, cr8 = 0;
  uint64_t efer = 0;
  uint64_t apic_base = 0;

  bool operator==(const KvmSregs&) const = default;
};

struct KvmMsrEntry {
  uint32_t index = 0;
  uint64_t data = 0;

  bool operator==(const KvmMsrEntry&) const = default;
};

// kvm_fpu: unpacked FXSAVE contents.
struct KvmFpu {
  std::array<std::array<uint8_t, 16>, 8> fpr{};
  uint16_t fcw = 0, fsw = 0;
  uint8_t ftwx = 0;
  uint16_t last_opcode = 0;
  uint64_t last_ip = 0, last_dp = 0;
  std::array<std::array<uint8_t, 16>, 16> xmm{};
  uint32_t mxcsr = 0;

  bool operator==(const KvmFpu&) const = default;
};

// kvm_lapic_state: just the register page; the base MSR is in the MSR list.
struct KvmLapicState {
  std::array<uint8_t, kLapicRegsSize> regs{};

  bool operator==(const KvmLapicState&) const = default;
};

struct KvmXcrs {
  uint64_t xcr0 = 0;

  bool operator==(const KvmXcrs&) const = default;
};

struct KvmXsaveData {
  std::vector<uint8_t> data;

  bool operator==(const KvmXsaveData&) const = default;
};

inline constexpr uint32_t kKvmIoapicPins = 24;
// kvm_irqchip KVM_IRQCHIP_IOAPIC payload.
struct KvmIoapicState {
  uint32_t id = 0;
  uint64_t base_address = 0xFEC00000;
  std::array<uint64_t, kKvmIoapicPins> redirtbl{};

  bool operator==(const KvmIoapicState&) const = default;
};

struct KvmPitChannelState {
  uint32_t count = 0;
  uint16_t latched_count = 0;
  uint8_t count_latched = 0, status_latched = 0, status = 0;
  uint8_t read_state = 0, write_state = 0, write_latch = 0;
  uint8_t rw_mode = 0, mode = 0, bcd = 0, gate = 0;
  int64_t count_load_time = 0;

  bool operator==(const KvmPitChannelState&) const = default;
};

// kvm_pit_state2 ("PIT2" in Table 2): channels plus a flags word.
struct KvmPitState2 {
  std::array<KvmPitChannelState, 3> channels{};
  uint32_t flags = 0;

  bool operator==(const KvmPitState2&) const = default;
};

// One vCPU's state as kvmtool would assemble it from the KVM ioctls
// (KVM_GET_REGS/SREGS/MSRS/FPU/LAPIC/XCRS/XSAVE).
struct KvmVcpuState {
  uint32_t id = 0;
  uint8_t online = 1;
  KvmRegs regs;
  KvmSregs sregs;
  std::vector<KvmMsrEntry> msrs;  // Sorted by index; includes MTRR/PAT/APIC.
  KvmFpu fpu;
  KvmLapicState lapic;
  KvmXcrs xcrs;
  KvmXsaveData xsave;

  bool operator==(const KvmVcpuState&) const = default;
};

}  // namespace hypertp

#endif  // HYPERTP_SRC_KVM_KVM_FORMATS_H_
