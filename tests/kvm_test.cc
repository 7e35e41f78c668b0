// Unit tests for src/kvm: UISR translation, CFS scheduler, KvmHost.

#include <gtest/gtest.h>

#include "src/kvm/kvm_host.h"
#include "src/kvm/kvm_uisr.h"
#include "src/xen/xenvisor.h"

namespace hypertp {
namespace {

TEST(KvmUisrTest, VcpuRoundTripIsBitExact) {
  for (uint32_t vcpu_id : {0u, 1u, 5u}) {
    UisrVcpu golden = MakeSyntheticVcpu(99, vcpu_id);
    auto kvm = KvmVcpuFromUisr(golden);
    ASSERT_TRUE(kvm.ok());
    auto back = KvmVcpuToUisr(*kvm);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, golden);
  }
}

TEST(KvmUisrTest, StructuralMsrsLiftedFromList) {
  UisrVcpu golden = MakeSyntheticVcpu(3, 0);
  auto kvm = KvmVcpuFromUisr(golden);
  ASSERT_TRUE(kvm.ok());
  // The KVM MSR list must contain the structural MSRs UISR stores typed.
  bool saw_apic = false, saw_pat = false, saw_mtrr_def = false, saw_deadline = false;
  for (const KvmMsrEntry& m : kvm->msrs) {
    saw_apic |= m.index == kMsrApicBase;
    saw_pat |= m.index == kMsrPat;
    saw_mtrr_def |= m.index == kMsrMtrrDefType;
    saw_deadline |= m.index == kMsrTscDeadline;
  }
  EXPECT_TRUE(saw_apic);
  EXPECT_TRUE(saw_pat);
  EXPECT_TRUE(saw_mtrr_def);
  EXPECT_TRUE(saw_deadline);
  // And the list must be sorted (KVM_SET_MSRS convention here).
  for (size_t i = 1; i < kvm->msrs.size(); ++i) {
    EXPECT_LT(kvm->msrs[i - 1].index, kvm->msrs[i].index);
  }
}

TEST(KvmUisrTest, ApicBaseDisagreementIsDataLoss) {
  UisrVcpu golden = MakeSyntheticVcpu(3, 0);
  auto kvm = KvmVcpuFromUisr(golden);
  ASSERT_TRUE(kvm.ok());
  kvm->sregs.apic_base ^= 0x800;  // Desynchronize.
  auto back = KvmVcpuToUisr(*kvm);
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.error().code(), ErrorCode::kDataLoss);
}

TEST(KvmUisrTest, HighIoapicPinsDisconnectedWithFixup) {
  UisrVm vm;
  vm.vm_uid = 12;
  vm.vcpus.push_back(MakeSyntheticVcpu(12, 0));
  vm.ioapic.num_pins = 48;  // Xen-sized.
  vm.ioapic.redirection[4] = 0x10004;
  vm.ioapic.redirection[30] = 0x10030;  // Active high pin.
  vm.ioapic.redirection[40] = 0;        // Inactive high pin.

  FixupLog log;
  auto platform = KvmPlatformFromUisr(vm, &log);
  ASSERT_TRUE(platform.ok());
  EXPECT_EQ(platform->ioapic.redirtbl[4], 0x10004u);
  // Exactly one fixup: the one *active* pin >= 24.
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0].component, "ioapic");
  EXPECT_NE(log[0].description.find("pin 30"), std::string::npos);
}

TEST(CfsSchedulerTest, NewTasksStartAtMinVruntime) {
  CfsScheduler sched(2);
  sched.AddTask(1, 0);
  for (int i = 0; i < 100; ++i) {
    sched.Tick();
  }
  sched.AddTask(2, 0);
  // The new task must not have inherited zero vruntime if others advanced...
  // It starts at min vruntime of existing tasks.
  uint64_t min_existing = UINT64_MAX;
  uint64_t new_task_vr = 0;
  for (const auto& queue : sched.runqueues()) {
    for (const CfsTask& t : queue) {
      if (t.vm_uid == 2) {
        new_task_vr = t.vruntime;
      } else {
        min_existing = std::min(min_existing, t.vruntime);
      }
    }
  }
  EXPECT_EQ(new_task_vr, min_existing);
}

TEST(CfsSchedulerTest, RemoveVmDropsAllTasks) {
  CfsScheduler sched(4);
  sched.AddTask(1, 0);
  sched.AddTask(1, 1);
  sched.AddTask(2, 0);
  sched.RemoveVm(1);
  EXPECT_EQ(sched.total_tasks(), 1u);
}

class KvmHostTest : public ::testing::Test {
 protected:
  KvmHostTest() : machine_(MachineProfile::M1(), 1), kvm_(machine_) {}

  Machine machine_;
  KvmHost kvm_;
};

TEST_F(KvmHostTest, BootClaimsHostLinux) {
  EXPECT_EQ(kvm_.HypervisorFrames(), (2048ull << 20) / kPageSize);
}

TEST_F(KvmHostTest, CreateSpawnsKvmtool) {
  auto id = kvm_.CreateVm(VmConfig::Small("db-1"));
  ASSERT_TRUE(id.ok()) << id.error().ToString();
  auto vm = kvm_.FindVm(*id);
  ASSERT_TRUE(vm.ok());
  EXPECT_GT((*vm)->vmm_pid, 0u);
  EXPECT_EQ((*vm)->devices.size(), 3u);
  // kvmtool's VMM memory is accounted separately from guest memory.
  EXPECT_FALSE(machine_.memory().ExtentsOfKind(FrameOwnerKind::kVmm).empty());
}

TEST_F(KvmHostTest, AllocationPolicyIsLessScatteredThanXen) {
  VmConfig config = VmConfig::Small("chunky");
  config.memory_bytes = 2ull << 30;
  auto id = kvm_.CreateVm(config);
  ASSERT_TRUE(id.ok());
  auto map = kvm_.GuestMemoryMap(*id);
  ASSERT_TRUE(map.ok());
  // THP-backed mmap: large contiguous extents, far fewer than Xen's policy.
  EXPECT_LE(map->size(), 8u);
}

TEST_F(KvmHostTest, LowIoapicPinsUsed) {
  auto id = kvm_.CreateVm(VmConfig::Small("pins"));
  ASSERT_TRUE(id.ok());
  auto vm = kvm_.FindVm(*id);
  ASSERT_TRUE(vm.ok());
  bool low_pin_active = false;
  for (uint32_t p = 5; p < kKvmIoapicPins; ++p) {
    low_pin_active |= (*vm)->platform.ioapic.redirtbl[p] != 0;
  }
  EXPECT_TRUE(low_pin_active);
}

TEST_F(KvmHostTest, SaveRestoreCycleWithinKvm) {
  auto id = kvm_.CreateVm(VmConfig::Small("cycle"));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(kvm_.WriteGuestPage(*id, 42, 0xBEEF).ok());
  ASSERT_TRUE(kvm_.PrepareVmForTransplant(*id).ok());
  ASSERT_TRUE(kvm_.PauseVm(*id).ok());

  FixupLog log;
  auto uisr = kvm_.SaveVmToUisr(*id, &log);
  ASSERT_TRUE(uisr.ok()) << uisr.error().ToString();
  EXPECT_EQ(uisr->ioapic.num_pins, kKvmIoapicPins);

  ASSERT_TRUE(kvm_.DestroyVm(*id).ok());
  GuestMemoryBinding binding;
  binding.mode = GuestMemoryBinding::Mode::kAllocate;
  auto restored = kvm_.RestoreVmFromUisr(*uisr, binding, &log);
  ASSERT_TRUE(restored.ok()) << restored.error().ToString();
  auto info = kvm_.GetVmInfo(*restored);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->run_state, VmRunState::kPaused);
  EXPECT_EQ(info->uid, uisr->vm_uid);
  // Fresh allocation: the content was NOT carried (that is migration's job).
  EXPECT_EQ(kvm_.ReadGuestPage(*restored, 42).value(), 0u);
}

TEST_F(KvmHostTest, DestroyReleasesEverything) {
  const uint64_t base = machine_.memory().allocated_frames();
  auto id = kvm_.CreateVm(VmConfig::Small("tmp"));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(kvm_.DestroyVm(*id).ok());
  EXPECT_EQ(machine_.memory().allocated_frames(), base);
}

TEST_F(KvmHostTest, SchedulerRebuild) {
  VmConfig config = VmConfig::Small("s");
  config.vcpus = 6;
  ASSERT_TRUE(kvm_.CreateVm(config).ok());
  EXPECT_EQ(kvm_.scheduler().total_tasks(), 6u);
  kvm_.RebuildScheduler();
  EXPECT_EQ(kvm_.scheduler().total_tasks(), 6u);
}

TEST_F(KvmHostTest, MigrationTraitsAreLightweight) {
  // kvmtool restore must be much lighter than Xen's (Table 4 mechanism).
  Machine xen_machine(MachineProfile::M1(), 2);
  XenVisor xen(xen_machine);
  EXPECT_LT(kvm_.migration_traits().resume_fixed, xen.migration_traits().resume_fixed / 10);
  EXPECT_GT(kvm_.migration_traits().receive_concurrency,
            xen.migration_traits().receive_concurrency);
}

}  // namespace
}  // namespace hypertp
