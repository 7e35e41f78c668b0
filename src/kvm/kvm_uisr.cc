#include "src/kvm/kvm_uisr.h"

#include <algorithm>

namespace hypertp {
namespace {

// kvm_segment, kvm_sregs and kvm_fpu carry UISR's fields under the same
// names, so one field copy serves both directions.
template <typename To, typename From>
void CopySegment(const From& f, To& t) {
  t.base = f.base;
  t.limit = f.limit;
  t.selector = f.selector;
  t.type = f.type;
  t.present = f.present;
  t.dpl = f.dpl;
  t.db = f.db;
  t.s = f.s;
  t.l = f.l;
  t.g = f.g;
  t.avl = f.avl;
  t.unusable = f.unusable;
}

template <typename To, typename From>
void CopySregs(const From& f, To& t) {
  CopySegment(f.cs, t.cs);
  CopySegment(f.ds, t.ds);
  CopySegment(f.es, t.es);
  CopySegment(f.fs, t.fs);
  CopySegment(f.gs, t.gs);
  CopySegment(f.ss, t.ss);
  CopySegment(f.tr, t.tr);
  CopySegment(f.ldt, t.ldt);
  t.gdt.base = f.gdt.base;
  t.gdt.limit = f.gdt.limit;
  t.idt.base = f.idt.base;
  t.idt.limit = f.idt.limit;
  t.cr0 = f.cr0;
  t.cr2 = f.cr2;
  t.cr3 = f.cr3;
  t.cr4 = f.cr4;
  t.cr8 = f.cr8;
  t.efer = f.efer;
  t.apic_base = f.apic_base;
}

template <typename To, typename From>
void CopyFpu(const From& f, To& t) {
  t.fpr = f.fpr;
  t.fcw = f.fcw;
  t.fsw = f.fsw;
  t.ftwx = f.ftwx;
  t.last_opcode = f.last_opcode;
  t.last_ip = f.last_ip;
  t.last_dp = f.last_dp;
  t.xmm = f.xmm;
  t.mxcsr = f.mxcsr;
}

bool IsMtrrVariableMsr(uint32_t index) {
  return index >= kMsrMtrrPhysBase0 && index < kMsrMtrrPhysBase0 + 2 * kMtrrVariableCount;
}

}  // namespace

Result<UisrVcpu> KvmVcpuToUisr(const KvmVcpuState& state) {
  UisrVcpu v;
  v.id = state.id;
  v.online = state.online != 0;

  const KvmRegs& r = state.regs;
  v.regs.gpr = {r.rax, r.rbx, r.rcx, r.rdx, r.rsi, r.rdi, r.rsp, r.rbp,
                r.r8,  r.r9,  r.r10, r.r11, r.r12, r.r13, r.r14, r.r15};
  v.regs.rip = r.rip;
  v.regs.rflags = r.rflags;

  const KvmSregs& s = state.sregs;
  CopySregs(s, v.sregs);
  v.lapic.apic_base_msr = s.apic_base;

  // Lift structural MSRs out of the generic list.
  for (const KvmMsrEntry& m : state.msrs) {
    if (m.index == kMsrApicBase) {
      if (m.data != s.apic_base) {
        return DataLossError("kvm: APIC base MSR disagrees with sregs.apic_base");
      }
      v.lapic.apic_base_msr = m.data;
    } else if (m.index == kMsrTscDeadline) {
      v.lapic.tsc_deadline = m.data;
    } else if (m.index == kMsrPat) {
      v.mtrr.pat = m.data;
    } else if (m.index == kMsrMtrrCap) {
      v.mtrr.cap = m.data;
    } else if (m.index == kMsrMtrrDefType) {
      v.mtrr.def_type = m.data;
    } else if (const auto* fixed = std::ranges::find(kMtrrFixedMsrs, m.index);
               fixed != kMtrrFixedMsrs.end()) {
      v.mtrr.fixed[fixed - kMtrrFixedMsrs.begin()] = m.data;
    } else if (IsMtrrVariableMsr(m.index)) {
      const uint32_t off = m.index - kMsrMtrrPhysBase0;
      if (off % 2 == 0) {
        v.mtrr.var_base[off / 2] = m.data;
      } else {
        v.mtrr.var_mask[off / 2] = m.data;
      }
    } else {
      v.msrs.push_back(UisrMsr{m.index, m.data});
    }
  }
  std::sort(v.msrs.begin(), v.msrs.end(),
            [](const UisrMsr& a, const UisrMsr& b) { return a.index < b.index; });

  CopyFpu(state.fpu, v.fpu);
  v.lapic.regs = state.lapic.regs;

  v.xsave.xcr0 = state.xcrs.xcr0;
  v.xsave.area = state.xsave.data;
  return v;
}

Result<KvmVcpuState> KvmVcpuFromUisr(const UisrVcpu& vcpu) {
  KvmVcpuState k;
  k.id = vcpu.id;
  k.online = vcpu.online ? 1 : 0;

  const auto& g = vcpu.regs.gpr;
  k.regs = {g[0], g[1], g[2],  g[3],  g[4],  g[5],  g[6],  g[7],
            g[8], g[9], g[10], g[11], g[12], g[13], g[14], g[15],
            vcpu.regs.rip, vcpu.regs.rflags};

  CopySregs(vcpu.sregs, k.sregs);
  k.sregs.apic_base = vcpu.lapic.apic_base_msr;

  // Assemble the MSR list: generic MSRs plus the structural ones.
  std::vector<KvmMsrEntry> msrs;
  msrs.reserve(vcpu.msrs.size() + 8 + kMtrrFixedCount + 2 * kMtrrVariableCount);
  for (const UisrMsr& m : vcpu.msrs) {
    msrs.push_back(KvmMsrEntry{m.index, m.value});
  }
  msrs.push_back({kMsrApicBase, vcpu.lapic.apic_base_msr});
  msrs.push_back({kMsrTscDeadline, vcpu.lapic.tsc_deadline});
  msrs.push_back({kMsrPat, vcpu.mtrr.pat});
  msrs.push_back({kMsrMtrrCap, vcpu.mtrr.cap});
  msrs.push_back({kMsrMtrrDefType, vcpu.mtrr.def_type});
  for (size_t i = 0; i < kMtrrFixedCount; ++i) {
    msrs.push_back({kMtrrFixedMsrs[i], vcpu.mtrr.fixed[i]});
  }
  for (size_t i = 0; i < kMtrrVariableCount; ++i) {
    msrs.push_back({kMsrMtrrPhysBase0 + static_cast<uint32_t>(2 * i), vcpu.mtrr.var_base[i]});
    msrs.push_back({kMsrMtrrPhysBase0 + static_cast<uint32_t>(2 * i + 1), vcpu.mtrr.var_mask[i]});
  }
  std::sort(msrs.begin(), msrs.end(),
            [](const KvmMsrEntry& a, const KvmMsrEntry& b) { return a.index < b.index; });
  k.msrs = std::move(msrs);

  CopyFpu(vcpu.fpu, k.fpu);

  k.lapic.regs = vcpu.lapic.regs;
  // KVM keeps the TPR in both the LAPIC page and CR8; synchronize from CR8.
  SyncTprFromCr8(vcpu.sregs.cr8, k.lapic.regs);

  k.xcrs.xcr0 = vcpu.xsave.xcr0;
  k.xsave.data = vcpu.xsave.area;
  return k;
}

Result<void> KvmPlatformToUisr(const std::vector<KvmVcpuState>& vcpus,
                               const KvmIoapicState& ioapic, const KvmPitState2& pit,
                               UisrVm& out) {
  HYPERTP_RETURN_IF_ERROR(TranslateVcpus(vcpus, out.vcpus, KvmVcpuToUisr));

  IoapicToUisr(ioapic, out.ioapic);
  CopyPitChannels(pit.channels, out.pit.channels);
  // PIT2's flags word has no UISR equivalent; it is host bookkeeping
  // (KVM_PIT_FLAGS_HPET_LEGACY) and is re-derived on restore.
  out.pit.speaker_data_on = 0;
  return OkResult();
}

Result<KvmPlatform> KvmPlatformFromUisr(const UisrVm& vm, FixupLog* log,
                                        bool remap_high_pins) {
  KvmPlatform platform;
  HYPERTP_RETURN_IF_ERROR(TranslateVcpus(vm.vcpus, platform.vcpus, KvmVcpuFromUisr));

  IoapicFromUisr(vm, "KVM", remap_high_pins, log, platform.ioapic);
  CopyPitChannels(vm.pit.channels, platform.pit.channels);
  platform.pit.flags = 0;
  return platform;
}

}  // namespace hypertp
