// Unit tests for src/xen: formats, UISR translation, credit scheduling and
// the XenVisor hypervisor.

#include <gtest/gtest.h>

#include "src/hv/vcpu_runqueues.h"
#include "src/xen/xen_formats.h"
#include "src/xen/xen_uisr.h"
#include "src/xen/xenvisor.h"

namespace hypertp {
namespace {

TEST(XenFormatsTest, SegmentAttributePackingRoundTrips) {
  // Property sweep over the attribute space.
  for (uint8_t type = 0; type < 16; ++type) {
    for (uint8_t bits = 0; bits < 64; ++bits) {
      UisrSegment s;
      s.type = type;
      s.s = bits & 1;
      s.dpl = (bits >> 1) & 3;
      s.present = (bits >> 3) & 1;
      s.avl = (bits >> 4) & 1;
      s.l = (bits >> 5) & 1;
      s.base = 0x1234;
      s.limit = 0xFFFF;
      s.selector = 0x28;
      UisrSegment round = FromXenSegment(ToXenSegment(s));
      EXPECT_EQ(round, s);
    }
  }
}

TEST(XenFormatsTest, FxsaveRoundTrips) {
  UisrFpu fpu = MakeSyntheticVcpu(11, 0).fpu;
  fpu.last_opcode = 0x7FF;  // 11-bit FOP.
  UisrFpu round = UnpackFxsave(PackFxsave(fpu));
  EXPECT_EQ(round, fpu);
}

TEST(XenFormatsTest, FxsaveLayoutIsArchitectural) {
  UisrFpu fpu;
  fpu.fcw = 0x037F;
  fpu.mxcsr = 0x1F80;
  FxsaveArea a = PackFxsave(fpu);
  EXPECT_EQ(a[0], 0x7F);  // FCW low byte at offset 0.
  EXPECT_EQ(a[1], 0x03);
  EXPECT_EQ(a[24], 0x80);  // MXCSR at offset 24.
  EXPECT_EQ(a[25], 0x1F);
}

TEST(XenUisrTest, VcpuRoundTripIsBitExact) {
  for (uint32_t vcpu_id : {0u, 1u, 3u}) {
    UisrVcpu golden = MakeSyntheticVcpu(77, vcpu_id);
    FixupLog log;
    auto xen = XenVcpuFromUisr(golden, 77, &log);
    ASSERT_TRUE(xen.ok());
    EXPECT_TRUE(log.empty()) << log.front().description;
    auto back = XenVcpuToUisr(*xen);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, golden);
  }
}

TEST(XenUisrTest, UnknownMsrDroppedWithFixup) {
  UisrVcpu v = MakeSyntheticVcpu(5, 0);
  v.msrs.push_back({0xDEADBEEF, 1});
  FixupLog log;
  auto xen = XenVcpuFromUisr(v, 5, &log);
  ASSERT_TRUE(xen.ok());
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].component, "cpu");
  EXPECT_NE(log[0].description.find("0xDEADBEEF"), std::string::npos);
}

TEST(XenUisrTest, TprSynchronizedFromCr8) {
  UisrVcpu v = MakeSyntheticVcpu(5, 0);
  v.sregs.cr8 = 0x9;
  v.lapic.regs[0x80] = 0;  // Inconsistent TPR.
  FixupLog log;
  auto xen = XenVcpuFromUisr(v, 5, &log);
  ASSERT_TRUE(xen.ok());
  EXPECT_EQ(xen->lapic.regs[0x80], 0x90);
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].component, "lapic");
  // And the CR8 derivation on the way out matches.
  auto back = XenVcpuToUisr(*xen);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->sregs.cr8, 0x9u);
}

// A UISR image wider than Xen's 48 pins folds like on every other target:
// one disconnect fixup per active high pin, inactive ones silently.
TEST(XenUisrTest, PlatformFoldsHighIoapicPins) {
  UisrVm vm;
  vm.vm_uid = 1;
  vm.vcpus.push_back(MakeSyntheticVcpu(1, 0));
  vm.ioapic.num_pins = 64;
  vm.ioapic.redirection[47] = 0x147;  // Fits in Xen's 48 pins.
  vm.ioapic.redirection[50] = 0x150;
  vm.ioapic.redirection[63] = 0x163;
  FixupLog log;
  auto ctx = XenPlatformFromUisr(vm, &log);
  ASSERT_TRUE(ctx.ok()) << ctx.error().ToString();
  EXPECT_EQ(ctx->ioapic.redirtbl[47], 0x147u);
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0].component, "ioapic");
  EXPECT_EQ(log[0].description, "IOAPIC pin 50 active on source; disconnected (Xen has 48 pins)");
  EXPECT_EQ(log[1].description, "IOAPIC pin 63 active on source; disconnected (Xen has 48 pins)");
}

TEST(XenUisrTest, PlatformRemapsHighIoapicPins) {
  UisrVm vm;
  vm.vm_uid = 1;
  vm.vcpus.push_back(MakeSyntheticVcpu(1, 0));
  vm.ioapic.num_pins = 64;
  vm.ioapic.redirection[16] = 0x116;  // Occupied: the remap skips it.
  vm.ioapic.redirection[50] = 0x150;
  FixupLog log;
  auto ctx = XenPlatformFromUisr(vm, &log, /*remap_high_pins=*/true);
  ASSERT_TRUE(ctx.ok()) << ctx.error().ToString();
  EXPECT_EQ(ctx->ioapic.redirtbl[16], 0x116u);
  EXPECT_EQ(ctx->ioapic.redirtbl[17], 0x150u);
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].description, "IOAPIC pin 50 remapped to pin 17; guest notified of GSI change");
}

// Xen's credit scheduler is modelled by the shared vCPU runqueue table.
TEST(CreditSchedulerTest, BalancedPlacement) {
  VcpuRunqueues sched(4);
  for (uint64_t uid = 1; uid <= 8; ++uid) {
    sched.AddVm(uid, 1);
  }
  EXPECT_EQ(sched.vcpu_count(), 8u);
  for (const auto& queue : sched.queues()) {
    EXPECT_EQ(queue.size(), 2u);
  }
}

TEST(CreditSchedulerTest, RemoveDomain) {
  VcpuRunqueues sched(2);
  sched.AddVm(1, 2);
  sched.AddVm(2, 1);
  sched.RemoveVm(1);
  EXPECT_EQ(sched.vcpu_count(), 1u);
}

class XenVisorTest : public ::testing::Test {
 protected:
  XenVisorTest() : machine_(MachineProfile::M1(), 1), xen_(machine_) {}

  Machine machine_;
  XenVisor xen_;
};

TEST_F(XenVisorTest, BootClaimsHvState) {
  // Xen heap (192 MiB) + dom0 (1536 MiB), allocated in chunks.
  EXPECT_EQ(xen_.HypervisorFrames(), ((192ull + 1536ull) << 20) / kPageSize);
  EXPECT_FALSE(machine_.memory().ExtentsOfKind(FrameOwnerKind::kHypervisor).empty());
}

TEST_F(XenVisorTest, GuestMemoryIsScattered) {
  VmConfig config = VmConfig::Small("big");
  config.memory_bytes = 2ull << 30;
  auto id = xen_.CreateVm(config);
  ASSERT_TRUE(id.ok());
  auto map = xen_.GuestMemoryMap(*id);
  ASSERT_TRUE(map.ok());
  // The chunked+interleaved policy must produce multiple extents.
  EXPECT_GT(map->size(), 1u);
  uint64_t frames = 0;
  for (const auto& m : *map) {
    frames += m.frames;
  }
  EXPECT_EQ(frames, (2ull << 30) / kPageSize);
}

TEST_F(XenVisorTest, SaveProducesCompleteUisr) {
  auto id = xen_.CreateVm(VmConfig::Small("sv"));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(xen_.PrepareVmForTransplant(*id).ok());
  ASSERT_TRUE(xen_.PauseVm(*id).ok());
  FixupLog log;
  auto uisr = xen_.SaveVmToUisr(*id, &log);
  ASSERT_TRUE(uisr.ok()) << uisr.error().ToString();
  EXPECT_EQ(uisr->vcpus.size(), 1u);
  EXPECT_EQ(uisr->ioapic.num_pins, kXenIoapicPins);
  EXPECT_EQ(uisr->devices.size(), 3u);
  EXPECT_EQ(uisr->source_hypervisor, "xenvisor-4.12");
  // Xen wires virtio devices to pins >= 24.
  bool high_pin_active = false;
  for (uint32_t p = 24; p < uisr->ioapic.num_pins; ++p) {
    high_pin_active |= uisr->ioapic.redirection[p] != 0;
  }
  EXPECT_TRUE(high_pin_active);
}

TEST_F(XenVisorTest, SchedulerTracksVcpus) {
  VmConfig config = VmConfig::Small("sched");
  config.vcpus = 4;
  auto id = xen_.CreateVm(config);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(xen_.scheduler().vcpu_count(), 4u);
  ASSERT_TRUE(xen_.DestroyVm(*id).ok());
  EXPECT_EQ(xen_.scheduler().vcpu_count(), 0u);
}

TEST_F(XenVisorTest, SchedulerIsReconstructable) {
  VmConfig config = VmConfig::Small("a");
  config.vcpus = 3;
  ASSERT_TRUE(xen_.CreateVm(config).ok());
  config.name = "b";
  config.vcpus = 2;
  ASSERT_TRUE(xen_.CreateVm(config).ok());

  const size_t before = xen_.scheduler().vcpu_count();
  xen_.RebuildScheduler();  // VM Management State rebuilt from VM_i State.
  EXPECT_EQ(xen_.scheduler().vcpu_count(), before);
}

TEST_F(XenVisorTest, EventChannelsAndXenstorePopulated) {
  auto id = xen_.CreateVm(VmConfig::Small("pv"));
  ASSERT_TRUE(id.ok());
  auto domain = xen_.FindDomain(*id);
  ASSERT_TRUE(domain.ok());
  // xenstore + console + 2 per virtio device (blk + net).
  EXPECT_EQ((*domain)->event_channels.size(), 6u);
  EXPECT_EQ((*domain)->xenstore.at("name"), "pv");
}

TEST_F(XenVisorTest, GrantTableReferencesGuestFrames) {
  auto id = xen_.CreateVm(VmConfig::Small("gt"));
  ASSERT_TRUE(id.ok());
  auto domain = xen_.FindDomain(*id);
  ASSERT_TRUE(domain.ok());
  // Two ring grants per virtio device (blk + net).
  ASSERT_EQ((*domain)->grant_table.size(), 4u);
  for (const XenGrantEntry& grant : (*domain)->grant_table) {
    EXPECT_GE(grant.ref, 8u);  // Low refs reserved.
    // The granted GFN must be a valid guest page.
    EXPECT_TRUE(xen_.ReadGuestPage(*id, grant.gfn).ok());
    EXPECT_EQ(grant.granted_to, 0u);  // dom0 backend.
  }
}

TEST_F(XenVisorTest, GrantTableRebuiltOnRestore) {
  auto id = xen_.CreateVm(VmConfig::Small("gt2"));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(xen_.PrepareVmForTransplant(*id).ok());
  ASSERT_TRUE(xen_.PauseVm(*id).ok());
  FixupLog log;
  auto uisr = xen_.SaveVmToUisr(*id, &log);
  ASSERT_TRUE(uisr.ok());
  ASSERT_TRUE(xen_.DestroyVm(*id).ok());
  GuestMemoryBinding binding;
  auto restored = xen_.RestoreVmFromUisr(*uisr, binding, &log);
  ASSERT_TRUE(restored.ok());
  auto domain = xen_.FindDomain(*restored);
  ASSERT_TRUE(domain.ok());
  EXPECT_EQ((*domain)->grant_table.size(), 4u);  // Re-negotiated.
}

}  // namespace
}  // namespace hypertp
