#include "src/bhyve/bhyve_uisr.h"

#include <array>

namespace hypertp {
namespace {

// bhyve's field map for the fixed-slot MSRs, in kFixedSlotMsrs order. PAT
// has a slot too, but UISR carries it in the MTRR record.
template <typename Vcpu>
auto BhyveMsrSlots(Vcpu& b) {
  return std::array{&b.tsc,       &b.sysenter_cs, &b.sysenter_esp, &b.sysenter_eip,
                    &b.misc_enable, &b.msr_efer,   &b.msr_star,     &b.msr_lstar,
                    &b.msr_cstar,   &b.msr_sfmask, &b.fs.base,      &b.gs.base,
                    &b.msr_kgsbase};
}

// UISR gpr order: rax rbx rcx rdx rsi rdi rsp rbp r8..r15 (KVM member order).
// Bhyve slot for each UISR index:
constexpr BhyveGprSlot kUisrToBhyve[16] = {
    kBhyveRax, kBhyveRbx, kBhyveRcx, kBhyveRdx, kBhyveRsi, kBhyveRdi, kBhyveRsp, kBhyveRbp,
    kBhyveR8,  kBhyveR9,  kBhyveR10, kBhyveR11, kBhyveR12, kBhyveR13, kBhyveR14, kBhyveR15,
};

}  // namespace

Result<UisrVcpu> BhyveVcpuToUisr(const BhyveVcpu& b) {
  UisrVcpu v;
  v.id = b.vcpu_id;
  v.online = b.online != 0;

  for (size_t i = 0; i < 16; ++i) {
    v.regs.gpr[i] = b.gpr[kUisrToBhyve[i]];
  }
  v.regs.rip = b.rip;
  v.regs.rflags = b.rflags;

  v.sregs.cs = FromBhyveSegDesc(b.cs);
  v.sregs.ds = FromBhyveSegDesc(b.ds);
  v.sregs.es = FromBhyveSegDesc(b.es);
  v.sregs.fs = FromBhyveSegDesc(b.fs);
  v.sregs.gs = FromBhyveSegDesc(b.gs);
  v.sregs.ss = FromBhyveSegDesc(b.ss);
  v.sregs.tr = FromBhyveSegDesc(b.tr);
  v.sregs.ldt = FromBhyveSegDesc(b.ldtr);
  v.sregs.gdt = {b.gdtr.base, static_cast<uint16_t>(b.gdtr.limit)};
  v.sregs.idt = {b.idtr.base, static_cast<uint16_t>(b.idtr.limit)};
  v.sregs.cr0 = b.cr0;
  v.sregs.cr2 = b.cr2;
  v.sregs.cr3 = b.cr3;
  v.sregs.cr4 = b.cr4;
  v.sregs.cr8 = b.cr8;
  v.sregs.efer = b.msr_efer;
  v.sregs.apic_base = b.apic_base;

  v.msrs = GatherFixedSlotMsrs(BhyveMsrSlots(b));

  v.fpu = UnpackFxsave(b.fpu);

  v.lapic.apic_base_msr = b.apic_base;
  v.lapic.tsc_deadline = b.tsc_deadline;
  v.lapic.regs = b.lapic_page;

  v.mtrr.cap = b.mtrr_cap;
  v.mtrr.def_type = b.mtrr_def_type;
  v.mtrr.fixed = b.mtrr_fixed;
  v.mtrr.var_base = b.mtrr_var_base;
  v.mtrr.var_mask = b.mtrr_var_mask;
  v.mtrr.pat = b.msr_pat;  // The third PAT home.

  v.xsave.xcr0 = b.xcr0;
  v.xsave.area = b.xsave_area;
  return v;
}

Result<BhyveVcpu> BhyveVcpuFromUisr(const UisrVcpu& vcpu, uint64_t vm_uid, FixupLog* log) {
  BhyveVcpu b;
  b.vcpu_id = vcpu.id;
  b.online = vcpu.online ? 1 : 0;

  for (size_t i = 0; i < 16; ++i) {
    b.gpr[kUisrToBhyve[i]] = vcpu.regs.gpr[i];
  }
  b.rip = vcpu.regs.rip;
  b.rflags = vcpu.regs.rflags;

  b.cs = ToBhyveSegDesc(vcpu.sregs.cs);
  b.ds = ToBhyveSegDesc(vcpu.sregs.ds);
  b.es = ToBhyveSegDesc(vcpu.sregs.es);
  b.fs = ToBhyveSegDesc(vcpu.sregs.fs);
  b.gs = ToBhyveSegDesc(vcpu.sregs.gs);
  b.ss = ToBhyveSegDesc(vcpu.sregs.ss);
  b.tr = ToBhyveSegDesc(vcpu.sregs.tr);
  b.ldtr = ToBhyveSegDesc(vcpu.sregs.ldt);
  b.gdtr.base = vcpu.sregs.gdt.base;
  b.gdtr.limit = vcpu.sregs.gdt.limit;
  b.idtr.base = vcpu.sregs.idt.base;
  b.idtr.limit = vcpu.sregs.idt.limit;
  b.cr0 = vcpu.sregs.cr0;
  b.cr2 = vcpu.sregs.cr2;
  b.cr3 = vcpu.sregs.cr3;
  b.cr4 = vcpu.sregs.cr4;
  b.cr8 = vcpu.sregs.cr8;
  b.apic_base = vcpu.lapic.apic_base_msr;

  ScatterFixedSlotMsrs(vcpu, BhyveMsrSlots(b), "bhyve", vm_uid, log);

  b.fpu = PackFxsave(vcpu.fpu);

  b.tsc_deadline = vcpu.lapic.tsc_deadline;
  b.lapic_page = vcpu.lapic.regs;
  // Like KVM: CR8 authoritative, TPR page synchronized.
  SyncTprFromCr8(vcpu.sregs.cr8, b.lapic_page);

  b.mtrr_cap = vcpu.mtrr.cap;
  b.mtrr_def_type = vcpu.mtrr.def_type;
  b.mtrr_fixed = vcpu.mtrr.fixed;
  b.mtrr_var_base = vcpu.mtrr.var_base;
  b.mtrr_var_mask = vcpu.mtrr.var_mask;
  b.msr_pat = vcpu.mtrr.pat;

  b.xcr0 = vcpu.xsave.xcr0;
  b.xsave_area = vcpu.xsave.area;
  return b;
}

Result<BhyvePlatform> BhyvePlatformFromUisr(const UisrVm& vm, FixupLog* log,
                                            bool remap_high_pins) {
  BhyvePlatform platform;
  HYPERTP_RETURN_IF_ERROR(TranslateVcpus(vm.vcpus, platform.vcpus, [&](const UisrVcpu& v) {
    return BhyveVcpuFromUisr(v, vm.vm_uid, log);
  }));

  IoapicFromUisr(vm, "bhyve", remap_high_pins, log, platform.ioapic);

  // bhyve has no PIT: drop the state, note the fixup if the PIT was live
  // (programmed mode or pending load — the reset default of count=0x10000,
  // mode 0 does not count).
  bool pit_live = vm.pit.speaker_data_on != 0;
  for (const UisrPitChannel& channel : vm.pit.channels) {
    pit_live |= channel.mode != 0 || channel.count_load_time != 0;
  }
  if (pit_live && log != nullptr) {
    log->push_back({vm.vm_uid, "pit",
                    "PIT state dropped: bhyve has no i8254 model; guest timekeeping "
                    "falls back to the HPET"});
  }
  // Seed the HPET from the PIT's last load time so time appears continuous.
  platform.hpet_counter = vm.pit.channels[0].count_load_time;
  return platform;
}

Result<void> BhyvePlatformToUisr(const BhyvePlatform& platform, UisrVm& out, FixupLog* log) {
  HYPERTP_RETURN_IF_ERROR(TranslateVcpus(platform.vcpus, out.vcpus, BhyveVcpuToUisr));

  IoapicToUisr(platform.ioapic, out.ioapic);

  // Synthesize a reset-default PIT: the target hypervisor's guest will
  // re-program it; meanwhile timekeeping continues on the HPET-derived TSC.
  out.pit = UisrPit{};
  out.pit.channels[0].count_load_time = platform.hpet_counter;
  if (log != nullptr) {
    log->push_back({out.vm_uid, "pit", "PIT synthesized with reset defaults (bhyve source)"});
  }
  return OkResult();
}

}  // namespace hypertp
