// Tests for the shared UISR translation kit (src/uisr/translate.h) and the
// three adapters built on it:
//  - the fixed-slot MSR scatter treats Xen and bhyve alike (slotless and
//    disagreeing-EFER MSRs are logged on both);
//  - a seeded property sweep: generated UisrVms (0-64 IOAPIC pins, random
//    MSR subsets, PIT modes, 1-8 vCPUs, 0-4 devices) go through
//    PlatformFromUisr -> PlatformToUisr on every kind. No kind errors, every
//    active pin beyond a target's width and every slotless MSR costs exactly
//    one fixup, and the architectural vCPU state round-trips exactly.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "src/bhyve/bhyve_uisr.h"
#include "src/kvm/kvm_uisr.h"
#include "src/sim/rng.h"
#include "src/uisr/codec.h"
#include "src/uisr/translate.h"
#include "src/xen/xen_uisr.h"

namespace hypertp {
namespace {

// --- Fixed-slot MSRs on Xen and bhyve alike ----------------------------------

// vCPU translation through one fixed-slot kind's adapter.
struct FixedSlotKind {
  const char* name;
  std::function<FixupLog(const UisrVcpu&)> from_uisr;  // Returns the fixups.
};

// Prints the kind by name. Without it GoogleTest dumps the struct's bytes,
// pointers included, so the listed test names changed from build to build.
void PrintTo(const FixedSlotKind& kind, std::ostream* os) { *os << kind.name; }

const FixedSlotKind kFixedSlotKinds[] = {
    {"xen",
     [](const UisrVcpu& v) {
       FixupLog log;
       EXPECT_TRUE(XenVcpuFromUisr(v, 9, &log).ok());
       return log;
     }},
    {"bhyve",
     [](const UisrVcpu& v) {
       FixupLog log;
       EXPECT_TRUE(BhyveVcpuFromUisr(v, 9, &log).ok());
       return log;
     }},
};

class FixedSlotMsrTest : public ::testing::TestWithParam<FixedSlotKind> {};

TEST_P(FixedSlotMsrTest, DisagreeingEferIsLogged) {
  UisrVcpu v = MakeSyntheticVcpu(9, 0);
  for (UisrMsr& m : v.msrs) {
    if (m.index == kMsrEfer) {
      m.value = v.sregs.efer ^ 0x800;  // NXE flipped behind sregs' back.
    }
  }
  const FixupLog log = GetParam().from_uisr(v);
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].component, "cpu");
  EXPECT_EQ(log[0].description, "EFER MSR disagrees with sregs.efer; using sregs");
}

TEST_P(FixedSlotMsrTest, AgreeingEferAndSlottedMsrsAreSilent) {
  EXPECT_TRUE(GetParam().from_uisr(MakeSyntheticVcpu(9, 1)).empty());
}

INSTANTIATE_TEST_SUITE_P(XenAndBhyve, FixedSlotMsrTest, ::testing::ValuesIn(kFixedSlotKinds),
                         [](const ::testing::TestParamInfo<FixedSlotKind>& info) {
                           return std::string(info.param.name);
                         });

TEST(TranslateKitTest, FoldWithoutFreePinsDisconnects) {
  UisrVm vm;
  vm.ioapic.num_pins = 12;
  vm.ioapic.redirection[3] = 0x33;
  vm.ioapic.redirection[9] = 0x99;
  std::array<uint64_t, 8> narrow{};  // No pin >= 16 to remap onto.
  FixupLog log;
  FoldIoapicPins(vm, narrow, "tiny", /*remap_high_pins=*/true, &log);
  EXPECT_EQ(narrow[3], 0x33u);
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].description, "IOAPIC pin 9 active on source; disconnected (tiny has 8 pins)");
}

TEST(TranslateKitTest, TprSyncReportsDisagreement) {
  std::array<uint8_t, kLapicRegsSize> regs{};
  regs[kLapicTprOffset] = 0x50;
  EXPECT_FALSE(SyncTprFromCr8(0x5, regs));
  EXPECT_TRUE(SyncTprFromCr8(0xA, regs));
  EXPECT_EQ(regs[kLapicTprOffset], 0xA0);
}

// --- Property sweep over generated images ------------------------------------

// MSRs no kind keeps in a fixed slot (and KVM does not lift into a record).
constexpr uint32_t kSlotlessPool[] = {0x0000003A, 0x0000008B, 0x00000122,
                                      0xC0000103, 0x4B564D00, 0xDEADBEEF};

bool HasSlot(uint32_t index) {
  return std::find(kFixedSlotMsrs.begin(), kFixedSlotMsrs.end(), index) != kFixedSlotMsrs.end();
}

UisrSegment RandomSegment(Rng& rng) {
  UisrSegment s;
  s.base = rng.NextU64();
  s.limit = static_cast<uint32_t>(rng.NextU64());
  s.selector = static_cast<uint16_t>(rng.NextU64());
  s.type = static_cast<uint8_t>(rng.NextBelow(16));
  s.s = rng.NextBool(0.5);
  s.dpl = static_cast<uint8_t>(rng.NextBelow(4));
  s.present = rng.NextBool(0.5);
  s.avl = rng.NextBool(0.5);
  s.l = rng.NextBool(0.5);
  s.db = rng.NextBool(0.5);
  s.g = rng.NextBool(0.5);
  s.unusable = rng.NextBool(0.5);
  return s;
}

template <size_t N>
void FillBytes(Rng& rng, std::array<uint8_t, N>& bytes) {
  for (uint8_t& b : bytes) {
    b = static_cast<uint8_t>(rng.NextU64());
  }
}

UisrVcpu RandomVcpu(Rng& rng, uint64_t uid, uint32_t id) {
  UisrVcpu v = MakeSyntheticVcpu(uid, id);
  for (uint64_t& gpr : v.regs.gpr) {
    gpr = rng.NextU64();
  }
  v.regs.rip = rng.NextU64();
  v.regs.rflags = rng.NextU64() | 0x2;
  for (UisrSegment* seg : {&v.sregs.cs, &v.sregs.ds, &v.sregs.es, &v.sregs.fs, &v.sregs.gs,
                           &v.sregs.ss, &v.sregs.tr, &v.sregs.ldt}) {
    *seg = RandomSegment(rng);
  }
  v.sregs.gdt = {rng.NextU64(), static_cast<uint16_t>(rng.NextU64())};
  v.sregs.idt = {rng.NextU64(), static_cast<uint16_t>(rng.NextU64())};
  v.sregs.cr0 = rng.NextU64();
  v.sregs.cr2 = rng.NextU64();
  v.sregs.cr3 = rng.NextU64();
  v.sregs.cr4 = rng.NextU64();
  v.sregs.cr8 = rng.NextBelow(16);
  v.sregs.efer = rng.NextU64();
  v.lapic.apic_base_msr = rng.NextU64();
  v.sregs.apic_base = v.lapic.apic_base_msr;
  v.lapic.tsc_deadline = rng.NextU64();
  FillBytes(rng, v.lapic.regs);  // The TPR byte disagrees with CR8 most of the time.

  for (auto& reg : v.fpu.fpr) {
    FillBytes(rng, reg);
  }
  for (auto& reg : v.fpu.xmm) {
    FillBytes(rng, reg);
  }
  v.fpu.fcw = static_cast<uint16_t>(rng.NextU64());
  v.fpu.fsw = static_cast<uint16_t>(rng.NextU64());
  v.fpu.ftwx = static_cast<uint8_t>(rng.NextU64());
  v.fpu.last_opcode = static_cast<uint16_t>(rng.NextBelow(0x800));
  v.fpu.last_ip = rng.NextU64();
  v.fpu.last_dp = rng.NextU64();
  v.fpu.mxcsr = static_cast<uint32_t>(rng.NextU64());

  v.mtrr.cap = rng.NextU64();
  v.mtrr.def_type = rng.NextU64();
  for (uint64_t& r : v.mtrr.fixed) {
    r = rng.NextU64();
  }
  for (size_t i = 0; i < kMtrrVariableCount; ++i) {
    v.mtrr.var_base[i] = rng.NextU64();
    v.mtrr.var_mask[i] = rng.NextU64();
  }
  v.mtrr.pat = rng.NextU64();
  v.xsave.xcr0 = rng.NextU64();
  for (uint8_t& b : v.xsave.area) {
    b = static_cast<uint8_t>(rng.NextU64());
  }

  // A random subset of the slotted MSRs (values consistent with the
  // architectural state they alias) plus a random subset of slotless ones.
  v.msrs.clear();
  for (uint32_t index : kFixedSlotMsrs) {
    if (!rng.NextBool(0.7)) {
      continue;
    }
    uint64_t value = rng.NextU64();
    if (index == kMsrEfer) {
      value = v.sregs.efer;
    } else if (index == kMsrFsBase) {
      value = v.sregs.fs.base;
    } else if (index == kMsrGsBase) {
      value = v.sregs.gs.base;
    }
    v.msrs.push_back({index, value});
  }
  for (uint32_t index : kSlotlessPool) {
    if (rng.NextBool(0.3)) {
      v.msrs.push_back({index, rng.NextU64()});
    }
  }
  std::sort(v.msrs.begin(), v.msrs.end(),
            [](const UisrMsr& a, const UisrMsr& b) { return a.index < b.index; });
  return v;
}

UisrVm RandomVm(Rng& rng, uint64_t uid) {
  UisrVm vm;
  vm.vm_uid = uid;
  vm.name = "prop-" + std::to_string(uid);
  vm.memory.memory_bytes = (1 + rng.NextBelow(16)) << 28;
  const auto vcpus = static_cast<uint32_t>(rng.NextInRange(1, 8));
  for (uint32_t i = 0; i < vcpus; ++i) {
    vm.vcpus.push_back(RandomVcpu(rng, uid, i));
  }
  vm.ioapic.id = static_cast<uint32_t>(rng.NextBelow(16));
  vm.ioapic.num_pins = static_cast<uint32_t>(rng.NextInRange(0, kUisrMaxIoapicPins));
  for (uint32_t pin = 0; pin < vm.ioapic.num_pins; ++pin) {
    if (rng.NextBool(0.4)) {
      vm.ioapic.redirection[pin] = 1 + rng.NextBelow(1ull << 40);
    }
  }
  for (UisrPitChannel& ch : vm.pit.channels) {
    ch.count = static_cast<uint32_t>(rng.NextInRange(1, 0x10000));
    ch.latched_count = static_cast<uint16_t>(rng.NextU64());
    ch.mode = static_cast<uint8_t>(rng.NextBelow(6));
    ch.rw_mode = static_cast<uint8_t>(rng.NextBelow(4));
    ch.bcd = rng.NextBool(0.2);
    ch.gate = rng.NextBool(0.8);
    ch.count_load_time = rng.NextBelow(1ull << 50);
  }
  vm.pit.speaker_data_on = rng.NextBool(0.5);
  const int devices = static_cast<int>(rng.NextInRange(0, 4));
  for (int i = 0; i < devices; ++i) {
    UisrDeviceState dev;
    dev.model = i % 2 == 0 ? "virtio-net" : "virtio-blk";
    dev.instance = static_cast<uint32_t>(i);
    dev.opaque.resize(rng.NextBelow(256));
    for (uint8_t& b : dev.opaque) {
      b = static_cast<uint8_t>(rng.NextU64());
    }
    vm.devices.push_back(std::move(dev));
  }
  return vm;
}

// One kind's platform round trip: UISR -> native -> UISR.
struct PlatformKind {
  const char* name;
  uint32_t ioapic_pins;
  bool fixed_msr_slots;
  std::function<Result<UisrVm>(const UisrVm&, bool remap, FixupLog*)> round_trip;
};

const PlatformKind kPlatformKinds[] = {
    {"xen", kXenIoapicPins, true,
     [](const UisrVm& vm, bool remap, FixupLog* log) -> Result<UisrVm> {
       HYPERTP_ASSIGN_OR_RETURN(XenHvmContext ctx, XenPlatformFromUisr(vm, log, remap));
       UisrVm out;
       HYPERTP_RETURN_IF_ERROR(XenPlatformToUisr(ctx, out));
       return out;
     }},
    {"kvm", kKvmIoapicPins, false,
     [](const UisrVm& vm, bool remap, FixupLog* log) -> Result<UisrVm> {
       HYPERTP_ASSIGN_OR_RETURN(KvmPlatform p, KvmPlatformFromUisr(vm, log, remap));
       UisrVm out;
       HYPERTP_RETURN_IF_ERROR(KvmPlatformToUisr(p.vcpus, p.ioapic, p.pit, out));
       return out;
     }},
    {"bhyve", kBhyveIoapicPins, true,
     [](const UisrVm& vm, bool remap, FixupLog* log) -> Result<UisrVm> {
       HYPERTP_ASSIGN_OR_RETURN(BhyvePlatform p, BhyvePlatformFromUisr(vm, log, remap));
       UisrVm out;
       out.vm_uid = vm.vm_uid;
       HYPERTP_RETURN_IF_ERROR(BhyvePlatformToUisr(p, out, nullptr));
       return out;
     }},
};

size_t CountComponent(const FixupLog& log, const std::string& component) {
  return static_cast<size_t>(std::count_if(
      log.begin(), log.end(), [&](const StateFixup& f) { return f.component == component; }));
}

class PlatformPropertyTest : public ::testing::TestWithParam<PlatformKind> {};

TEST_P(PlatformPropertyTest, GeneratedImagesTranslateWithExactFixups) {
  const PlatformKind& kind = GetParam();
  Rng rng(0x75157A7E);
  for (uint64_t uid = 1; uid <= 200; ++uid) {
    const UisrVm generated = RandomVm(rng, uid);
    const bool remap = rng.NextBool(0.5);
    // The image must survive the wire: translation only ever sees decoded
    // UISR.
    auto decoded = DecodeUisrVm(EncodeUisrVm(generated));
    ASSERT_TRUE(decoded.ok()) << decoded.error().ToString();
    const UisrVm& vm = *decoded;
    SCOPED_TRACE("uid=" + std::to_string(uid) + " pins=" + std::to_string(vm.ioapic.num_pins) +
                 " remap=" + std::to_string(remap));

    FixupLog log;
    auto back = kind.round_trip(vm, remap, &log);
    ASSERT_TRUE(back.ok()) << back.error().ToString();

    size_t high_pins = 0;
    for (uint32_t pin = kind.ioapic_pins; pin < vm.ioapic.num_pins; ++pin) {
      high_pins += vm.ioapic.redirection[pin] != 0;
    }
    EXPECT_EQ(CountComponent(log, "ioapic"), high_pins);

    size_t slotless = 0;
    for (const UisrVcpu& v : vm.vcpus) {
      slotless += static_cast<size_t>(std::count_if(
          v.msrs.begin(), v.msrs.end(), [](const UisrMsr& m) { return !HasSlot(m.index); }));
    }
    EXPECT_EQ(CountComponent(log, "cpu"), kind.fixed_msr_slots ? slotless : 0);

    ASSERT_EQ(back->vcpus.size(), vm.vcpus.size());
    for (size_t i = 0; i < vm.vcpus.size(); ++i) {
      const UisrVcpu& in = vm.vcpus[i];
      const UisrVcpu& out = back->vcpus[i];
      UisrLapic lapic = in.lapic;
      lapic.regs[kLapicTprOffset] = static_cast<uint8_t>(in.sregs.cr8 << 4);
      EXPECT_EQ(out.regs, in.regs) << "vcpu " << i;
      EXPECT_EQ(out.sregs, in.sregs) << "vcpu " << i;
      EXPECT_EQ(out.fpu, in.fpu) << "vcpu " << i;
      EXPECT_EQ(out.lapic, lapic) << "vcpu " << i;
      EXPECT_EQ(out.mtrr, in.mtrr) << "vcpu " << i;
      EXPECT_EQ(out.xsave, in.xsave) << "vcpu " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, PlatformPropertyTest, ::testing::ValuesIn(kPlatformKinds),
                         [](const ::testing::TestParamInfo<PlatformKind>& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
}  // namespace hypertp
