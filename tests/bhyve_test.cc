// Tests for BhyveVisor: formats, UISR translation (including the lossy PIT
// handling), host behaviour, and three-hypervisor chain transplants.

#include <gtest/gtest.h>

#include <memory>

#include "src/bhyve/bhyve_host.h"
#include "src/bhyve/bhyve_uisr.h"
#include "src/core/factory.h"
#include "src/core/inplace.h"
#include "src/guest/guest_image.h"
#include "src/kvm/kvm_uisr.h"
#include "src/vulndb/vulndb.h"
#include "src/xen/xen_uisr.h"

namespace hypertp {
namespace {

TEST(BhyveFormatsTest, VmxAccessRightsRoundTrip) {
  for (uint8_t type = 0; type < 16; ++type) {
    for (int bits = 0; bits < 32; ++bits) {
      UisrSegment s;
      s.type = type;
      s.s = bits & 1;
      s.dpl = (bits >> 1) & 3;
      s.present = (bits >> 3) & 1;
      s.l = (bits >> 4) & 1;
      s.base = 0xABC;
      s.limit = 0xFFFFF;
      s.selector = 0x33;
      EXPECT_EQ(FromBhyveSegDesc(ToBhyveSegDesc(s)), s);
    }
  }
}

TEST(BhyveFormatsTest, AccessWordLayoutIsVmxNotXen) {
  // The L bit lives at bit 13 in VMX access rights, bit 9 in Xen's packed
  // word — the formats are genuinely different.
  UisrSegment s;
  s.l = 1;
  EXPECT_EQ(PackVmxAccessRights(s), 1u << 13);
  s.l = 0;
  s.unusable = 1;
  EXPECT_EQ(PackVmxAccessRights(s), 1u << 16);
}

TEST(BhyveUisrTest, VcpuRoundTripIsBitExact) {
  for (uint32_t vcpu_id : {0u, 1u, 5u}) {
    const UisrVcpu golden = MakeSyntheticVcpu(333, vcpu_id);
    FixupLog log;
    auto bhyve = BhyveVcpuFromUisr(golden, 333, &log);
    ASSERT_TRUE(bhyve.ok());
    EXPECT_TRUE(log.empty());
    auto back = BhyveVcpuToUisr(*bhyve);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, golden);
  }
}

TEST(BhyveUisrTest, GprPermutationIsCorrect) {
  UisrVcpu v = MakeSyntheticVcpu(9, 0);
  FixupLog log;
  auto b = BhyveVcpuFromUisr(v, 9, &log);
  ASSERT_TRUE(b.ok());
  // UISR gpr[0] is rax; bhyve stores rax at slot kBhyveRax (6).
  EXPECT_EQ(b->gpr[kBhyveRax], v.regs.gpr[0]);
  EXPECT_EQ(b->gpr[kBhyveRdi], v.regs.gpr[5]);  // rdi is UISR index 5.
  EXPECT_EQ(b->gpr[kBhyveRsp], v.regs.gpr[6]);  // rsp is UISR index 6.
}

TEST(BhyveUisrTest, PatLivesInCpuSlot) {
  UisrVcpu v = MakeSyntheticVcpu(9, 0);
  v.mtrr.pat = 0x1122334455667788ull;
  FixupLog log;
  auto b = BhyveVcpuFromUisr(v, 9, &log);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b->msr_pat, 0x1122334455667788ull);
}

TEST(BhyveUisrTest, PitDroppedWithFixupOnTheWayIn) {
  UisrVm vm;
  vm.vm_uid = 60;
  vm.vcpus.push_back(MakeSyntheticVcpu(60, 0));
  vm.pit.channels[0].count = 0x4A9;  // Live PIT.
  vm.pit.channels[0].mode = 2;
  FixupLog log;
  auto platform = BhyvePlatformFromUisr(vm, &log);
  ASSERT_TRUE(platform.ok());
  bool saw_pit_fixup = false;
  for (const StateFixup& fixup : log) {
    saw_pit_fixup |= fixup.component == "pit";
  }
  EXPECT_TRUE(saw_pit_fixup);
}

TEST(BhyveUisrTest, PitSynthesizedOnTheWayOut) {
  BhyvePlatform platform;
  platform.vcpus.push_back(BhyveVcpuFromUisr(MakeSyntheticVcpu(61, 0), 61, nullptr).value());
  UisrVm out;
  out.vm_uid = 61;
  FixupLog log;
  ASSERT_TRUE(BhyvePlatformToUisr(platform, out, &log).ok());
  EXPECT_EQ(out.pit.channels[0].count, 0x10000u);  // Reset default.
  ASSERT_FALSE(log.empty());
  EXPECT_EQ(log.back().component, "pit");
}

TEST(BhyveUisrTest, IoapicIs32Pins) {
  UisrVm vm;
  vm.vm_uid = 62;
  vm.vcpus.push_back(MakeSyntheticVcpu(62, 0));
  vm.ioapic.num_pins = 48;
  vm.ioapic.redirection[30] = 0x123;  // Fits in bhyve's 32 pins.
  vm.ioapic.redirection[40] = 0x456;  // Does not.
  FixupLog log;
  auto platform = BhyvePlatformFromUisr(vm, &log);
  ASSERT_TRUE(platform.ok());
  EXPECT_EQ(platform->ioapic.redirtbl[30], 0x123u);
  ASSERT_EQ(log.size(), 1u);
  EXPECT_NE(log[0].description.find("pin 40"), std::string::npos);
}

class BhyveHostTest : public ::testing::Test {
 protected:
  BhyveHostTest() : machine_(MachineProfile::M1(), 1), bhyve_(machine_) {}
  Machine machine_;
  BhyveVisor bhyve_;
};

TEST_F(BhyveHostTest, CreatePauseSaveRestoreCycle) {
  auto id = bhyve_.CreateVm(VmConfig::Small("bh"));
  ASSERT_TRUE(id.ok()) << id.error().ToString();
  ASSERT_TRUE(bhyve_.WriteGuestPage(*id, 99, 0x77).ok());
  ASSERT_TRUE(bhyve_.PrepareVmForTransplant(*id).ok());
  ASSERT_TRUE(bhyve_.PauseVm(*id).ok());
  FixupLog log;
  auto uisr = bhyve_.SaveVmToUisr(*id, &log);
  ASSERT_TRUE(uisr.ok()) << uisr.error().ToString();
  EXPECT_EQ(uisr->ioapic.num_pins, kBhyveIoapicPins);
  EXPECT_EQ(uisr->source_hypervisor, "bhyvish-13.1");
  ASSERT_TRUE(bhyve_.DestroyVm(*id).ok());

  GuestMemoryBinding binding;
  auto restored = bhyve_.RestoreVmFromUisr(*uisr, binding, &log);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(bhyve_.GetVmInfo(*restored)->run_state, VmRunState::kPaused);
}

TEST_F(BhyveHostTest, SchedulerTracksThreads) {
  VmConfig config = VmConfig::Small("s");
  config.vcpus = 5;
  auto id = bhyve_.CreateVm(config);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(bhyve_.scheduler().vcpu_count(), 5u);
  bhyve_.RebuildScheduler();
  EXPECT_EQ(bhyve_.scheduler().vcpu_count(), 5u);
  ASSERT_TRUE(bhyve_.DestroyVm(*id).ok());
  EXPECT_EQ(bhyve_.scheduler().vcpu_count(), 0u);
}

TEST_F(BhyveHostTest, SuperpageAllocationIsContiguous) {
  VmConfig config = VmConfig::Small("big");
  config.memory_bytes = 2ull << 30;
  auto id = bhyve_.CreateVm(config);
  ASSERT_TRUE(id.ok());
  auto map = bhyve_.GuestMemoryMap(*id);
  ASSERT_TRUE(map.ok());
  EXPECT_LE(map->size(), 4u);  // 512 MiB wired chunks.
}

TEST(BhyveChainTest, XenToBhyveToKvmChainTransplant) {
  // The full repertoire in one chain: Xen -> bhyve -> KVM, in-place, with
  // the guest image verified at every hop.
  Machine machine(MachineProfile::M1(), 1);
  std::unique_ptr<Hypervisor> hv = MakeHypervisor(HypervisorKind::kXen, machine);
  auto id = hv->CreateVm(VmConfig::Small("chain"));
  ASSERT_TRUE(id.ok());
  auto image = InstallGuestImage(*hv, *id, 4242);
  ASSERT_TRUE(image.ok());
  const uint64_t uid = hv->GetVmInfo(*id)->uid;

  InPlaceOptions options;
  options.remap_high_ioapic_pins = true;
  for (HypervisorKind hop : {HypervisorKind::kBhyve, HypervisorKind::kKvm}) {
    auto result = InPlaceTransplant::Run(std::move(hv), hop, options);
    ASSERT_TRUE(result.ok()) << result.error().ToString();
    hv = std::move(result->hypervisor);
    ASSERT_EQ(result->restored_vms.size(), 1u);
    auto verified = VerifyGuestImage(*hv, result->restored_vms[0], *image);
    EXPECT_TRUE(verified.ok()) << "hop to " << HypervisorKindName(hop) << ": "
                               << verified.error().ToString();
    EXPECT_EQ(hv->GetVmInfo(result->restored_vms[0])->uid, uid);
  }
}

TEST(BhyveChainTest, VcpuSurvivesFullThreeWayRoundTrip) {
  // Xen -> UISR -> bhyve -> UISR -> KVM -> UISR: the vCPU state is bit-exact
  // through all three format families.
  const UisrVcpu golden = MakeSyntheticVcpu(777, 0);
  FixupLog log;
  auto xen = XenVcpuFromUisr(golden, 777, &log);
  ASSERT_TRUE(xen.ok());
  auto u1 = XenVcpuToUisr(*xen);
  ASSERT_TRUE(u1.ok());
  auto bhyve = BhyveVcpuFromUisr(*u1, 777, &log);
  ASSERT_TRUE(bhyve.ok());
  auto u2 = BhyveVcpuToUisr(*bhyve);
  ASSERT_TRUE(u2.ok());
  auto kvm = KvmVcpuFromUisr(*u2);
  ASSERT_TRUE(kvm.ok());
  auto u3 = KvmVcpuToUisr(*kvm);
  ASSERT_TRUE(u3.ok());
  EXPECT_EQ(*u3, golden);
  EXPECT_TRUE(log.empty());
}

TEST(BhyvePolicyTest, ThreeWayPoolPrefersBhyveWhenBothOthersAffected) {
  // A Xen flaw and a KVM flaw disclosed simultaneously: only bhyve is safe.
  const CveRecord* xen_flaw = nullptr;
  const CveRecord* kvm_flaw = nullptr;
  for (const CveRecord& r : VulnDatabase()) {
    if (r.severity() != VulnSeverity::kCritical || r.common()) {
      continue;
    }
    if (r.affects_xen && xen_flaw == nullptr) {
      xen_flaw = &r;
    }
    if (r.affects_kvm && kvm_flaw == nullptr) {
      kvm_flaw = &r;
    }
  }
  ASSERT_NE(xen_flaw, nullptr);
  ASSERT_NE(kvm_flaw, nullptr);
  auto decision = DecideTransplant(
      HypervisorKind::kXen, {{xen_flaw}, {kvm_flaw}},
      {HypervisorKind::kXen, HypervisorKind::kKvm, HypervisorKind::kBhyve});
  ASSERT_TRUE(decision.transplant_recommended);
  EXPECT_EQ(*decision.target, HypervisorKind::kBhyve);
}

}  // namespace
}  // namespace hypertp
