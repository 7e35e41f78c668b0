#include "src/xen/xen_uisr.h"

#include <array>

namespace hypertp {
namespace {

// Xen's field map for the fixed-slot MSRs, in kFixedSlotMsrs order. FS/GS
// base are the segment bases: architecturally the same state.
template <typename Cpu>
auto XenMsrSlots(Cpu& c) {
  return std::array{&c.tsc,       &c.sysenter_cs,      &c.sysenter_esp, &c.sysenter_eip,
                    &c.msr_misc_enable, &c.msr_efer,  &c.msr_star,    &c.msr_lstar,
                    &c.msr_cstar, &c.msr_syscall_mask, &c.fs.base,    &c.gs.base,
                    &c.shadow_gs};
}

// Xen's named GPR fields in UISR's gpr order (rax, rbx, rcx, rdx, rsi, rdi,
// rsp, rbp, r8..r15); Xen's own member order puts rbp before rsi/rdi.
template <typename Cpu>
auto XenGprSlots(Cpu& c) {
  return std::array{&c.rax, &c.rbx, &c.rcx, &c.rdx, &c.rsi, &c.rdi, &c.rsp, &c.rbp,
                    &c.r8,  &c.r9,  &c.r10, &c.r11, &c.r12, &c.r13, &c.r14, &c.r15};
}

}  // namespace

Result<UisrVcpu> XenVcpuToUisr(const XenVcpuContext& ctx) {
  UisrVcpu v;
  v.id = ctx.vcpu_id;
  v.online = ctx.cpu.online != 0;

  const XenHvmCpu& c = ctx.cpu;
  const auto gprs = XenGprSlots(c);
  for (size_t i = 0; i < gprs.size(); ++i) {
    v.regs.gpr[i] = *gprs[i];
  }
  v.regs.rip = c.rip;
  v.regs.rflags = c.rflags;

  v.sregs.cs = FromXenSegment(c.cs);
  v.sregs.ds = FromXenSegment(c.ds);
  v.sregs.es = FromXenSegment(c.es);
  v.sregs.fs = FromXenSegment(c.fs);
  v.sregs.gs = FromXenSegment(c.gs);
  v.sregs.ss = FromXenSegment(c.ss);
  v.sregs.tr = FromXenSegment(c.tr);
  v.sregs.ldt = FromXenSegment(c.ldtr);
  v.sregs.gdt = {c.gdtr_base, static_cast<uint16_t>(c.gdtr_limit)};
  v.sregs.idt = {c.idtr_base, static_cast<uint16_t>(c.idtr_limit)};
  v.sregs.cr0 = c.cr0;
  v.sregs.cr2 = c.cr2;
  v.sregs.cr3 = c.cr3;
  v.sregs.cr4 = c.cr4;
  // Xen has no CR8 field: derive it from the LAPIC TPR (task priority
  // register, bits 7:4 of the register give the CR8 value).
  v.sregs.cr8 = ctx.lapic.regs[kLapicTprOffset] >> 4;
  v.sregs.efer = c.msr_efer;
  v.sregs.apic_base = ctx.lapic.apic_base_msr;

  v.msrs = GatherFixedSlotMsrs(XenMsrSlots(c));

  v.fpu = UnpackFxsave(c.fxsave);

  v.lapic.apic_base_msr = ctx.lapic.apic_base_msr;
  v.lapic.tsc_deadline = ctx.lapic.tsc_deadline;
  v.lapic.regs = ctx.lapic.regs;

  v.mtrr.cap = ctx.mtrr.msr_mtrr_cap;
  v.mtrr.def_type = ctx.mtrr.msr_mtrr_def_type;
  v.mtrr.fixed = ctx.mtrr.fixed;
  for (size_t i = 0; i < kMtrrVariableCount; ++i) {
    v.mtrr.var_base[i] = ctx.mtrr.var[i * 2];
    v.mtrr.var_mask[i] = ctx.mtrr.var[i * 2 + 1];
  }
  v.mtrr.pat = ctx.mtrr.msr_pat_cr;

  v.xsave.xcr0 = ctx.xsave.xcr0;
  v.xsave.area = ctx.xsave.area;
  return v;
}

Result<XenVcpuContext> XenVcpuFromUisr(const UisrVcpu& vcpu, uint64_t vm_uid, FixupLog* log) {
  XenVcpuContext ctx;
  ctx.vcpu_id = vcpu.id;
  XenHvmCpu& c = ctx.cpu;
  c.online = vcpu.online ? 1 : 0;

  const auto gprs = XenGprSlots(c);
  for (size_t i = 0; i < gprs.size(); ++i) {
    *gprs[i] = vcpu.regs.gpr[i];
  }
  c.rip = vcpu.regs.rip;
  c.rflags = vcpu.regs.rflags;

  c.cs = ToXenSegment(vcpu.sregs.cs);
  c.ds = ToXenSegment(vcpu.sregs.ds);
  c.es = ToXenSegment(vcpu.sregs.es);
  c.fs = ToXenSegment(vcpu.sregs.fs);
  c.gs = ToXenSegment(vcpu.sregs.gs);
  c.ss = ToXenSegment(vcpu.sregs.ss);
  c.tr = ToXenSegment(vcpu.sregs.tr);
  c.ldtr = ToXenSegment(vcpu.sregs.ldt);
  c.gdtr_base = vcpu.sregs.gdt.base;
  c.gdtr_limit = vcpu.sregs.gdt.limit;
  c.idtr_base = vcpu.sregs.idt.base;
  c.idtr_limit = vcpu.sregs.idt.limit;
  c.cr0 = vcpu.sregs.cr0;
  c.cr2 = vcpu.sregs.cr2;
  c.cr3 = vcpu.sregs.cr3;
  c.cr4 = vcpu.sregs.cr4;
  // After the segments: FS/GS base MSRs overwrite the segment bases.
  ScatterFixedSlotMsrs(vcpu, XenMsrSlots(c), "Xen HVM", vm_uid, log);

  c.fxsave = PackFxsave(vcpu.fpu);

  ctx.lapic.apic_base_msr = vcpu.lapic.apic_base_msr;
  ctx.lapic.tsc_deadline = vcpu.lapic.tsc_deadline;
  ctx.lapic.regs = vcpu.lapic.regs;
  // Xen keeps no CR8 of its own, so a TPR that disagreed is worth a fixup.
  if (SyncTprFromCr8(vcpu.sregs.cr8, ctx.lapic.regs) && log != nullptr) {
    log->push_back({vm_uid, "lapic", "TPR register page disagreed with CR8; synchronized"});
  }

  ctx.mtrr.msr_mtrr_cap = vcpu.mtrr.cap;
  ctx.mtrr.msr_mtrr_def_type = vcpu.mtrr.def_type;
  ctx.mtrr.fixed = vcpu.mtrr.fixed;
  for (size_t i = 0; i < kMtrrVariableCount; ++i) {
    ctx.mtrr.var[i * 2] = vcpu.mtrr.var_base[i];
    ctx.mtrr.var[i * 2 + 1] = vcpu.mtrr.var_mask[i];
  }
  ctx.mtrr.msr_pat_cr = vcpu.mtrr.pat;

  ctx.xsave.xcr0 = vcpu.xsave.xcr0;
  ctx.xsave.xcr0_accum = vcpu.xsave.xcr0;  // Re-derive Xen-only bookkeeping.
  ctx.xsave.area = vcpu.xsave.area;
  return ctx;
}

Result<void> XenPlatformToUisr(const XenHvmContext& ctx, UisrVm& out) {
  HYPERTP_RETURN_IF_ERROR(TranslateVcpus(ctx.vcpus, out.vcpus, XenVcpuToUisr));

  IoapicToUisr(ctx.ioapic, out.ioapic);
  CopyPitChannels(ctx.pit.channels, out.pit.channels);
  out.pit.speaker_data_on = ctx.pit.speaker_data_on;
  return OkResult();
}

Result<XenHvmContext> XenPlatformFromUisr(const UisrVm& vm, FixupLog* log,
                                          bool remap_high_pins) {
  XenHvmContext ctx;
  HYPERTP_RETURN_IF_ERROR(TranslateVcpus(vm.vcpus, ctx.vcpus, [&](const UisrVcpu& v) {
    return XenVcpuFromUisr(v, vm.vm_uid, log);
  }));

  IoapicFromUisr(vm, "Xen", remap_high_pins, log, ctx.ioapic);
  CopyPitChannels(vm.pit.channels, ctx.pit.channels);
  ctx.pit.speaker_data_on = vm.pit.speaker_data_on;
  return ctx;
}

}  // namespace hypertp
