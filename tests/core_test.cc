// Integration tests for the HyperTP core: InPlaceTP end to end (both
// directions), optimization behaviour, abort semantics, MigrationTP wrapper.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "src/core/factory.h"
#include "src/core/inplace.h"
#include "src/core/migration_tp.h"
#include "src/kvm/kvm_host.h"
#include "src/xen/xenvisor.h"

namespace hypertp {
namespace {

std::unique_ptr<Machine> MakeM1(uint64_t id) {
  return std::make_unique<Machine>(MachineProfile::M1(), id);
}

// Creates `n` small VMs and writes a recognizable pattern into each.
std::vector<uint64_t> PopulateVms(Hypervisor& hv, int n, uint64_t mem_bytes = 1ull << 30,
                                  uint32_t vcpus = 1) {
  std::vector<uint64_t> uids;
  for (int i = 0; i < n; ++i) {
    VmConfig config = VmConfig::Small("vm-" + std::to_string(i));
    config.memory_bytes = mem_bytes;
    config.vcpus = vcpus;
    auto id = hv.CreateVm(config);
    EXPECT_TRUE(id.ok()) << id.error().ToString();
    for (Gfn gfn : {Gfn{0}, Gfn{1234}, Gfn{99999}}) {
      EXPECT_TRUE(hv.WriteGuestPage(*id, gfn, 0xF00D0000 + gfn).ok());
    }
    uids.push_back(hv.GetVmInfo(*id)->uid);
  }
  return uids;
}

TEST(InPlaceTest, XenToKvmSingleVm) {
  auto machine = MakeM1(1);
  std::unique_ptr<Hypervisor> xen = MakeHypervisor(HypervisorKind::kXen, *machine);
  auto uids = PopulateVms(*xen, 1);

  auto result = InPlaceTransplant::Run(std::move(xen), HypervisorKind::kKvm, InPlaceOptions{});
  ASSERT_TRUE(result.ok()) << result.error().ToString();

  EXPECT_EQ(result->hypervisor->kind(), HypervisorKind::kKvm);
  ASSERT_EQ(result->restored_vms.size(), 1u);
  const VmId vm = result->restored_vms[0];
  auto info = result->hypervisor->GetVmInfo(vm);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->uid, uids[0]);
  EXPECT_EQ(info->run_state, VmRunState::kRunning);
  // Guest memory byte-identical, still in place.
  EXPECT_EQ(result->hypervisor->ReadGuestPage(vm, 1234).value(), 0xF00D0000u + 1234);
  EXPECT_EQ(result->hypervisor->ReadGuestPage(vm, 99999).value(), 0xF00D0000u + 99999);
}

TEST(InPlaceTest, DowntimeMatchesPaperFig6OnM1) {
  auto machine = MakeM1(2);
  std::unique_ptr<Hypervisor> xen = MakeHypervisor(HypervisorKind::kXen, *machine);
  PopulateVms(*xen, 1);

  auto result = InPlaceTransplant::Run(std::move(xen), HypervisorKind::kKvm, InPlaceOptions{});
  ASSERT_TRUE(result.ok()) << result.error().ToString();
  const TransplantReport& r = result->report;

  // Paper Fig. 6 (M1): PRAM 0.45 s, Translation 0.08 s, Reboot 1.52 s,
  // Restoration 0.12 s, downtime 1.7 s, total 2.15 s. With speculative
  // pre-translation (default on), the 0.08 s translate runs while the guest
  // still executes — phases.pre_translation carries it and the pause-window
  // translation collapses to the generation check.
  EXPECT_NEAR(ToSeconds(r.phases.pram), 0.45, 0.1);
  EXPECT_NEAR(ToSeconds(r.phases.pre_translation), 0.08, 0.03);
  EXPECT_LT(ToSeconds(r.phases.translation), 0.01);
  EXPECT_EQ(r.pretranslate_hits, 1);
  EXPECT_EQ(r.pretranslate_invalidations, 0);
  EXPECT_NEAR(ToSeconds(r.phases.reboot), 1.52, 0.15);
  EXPECT_NEAR(ToSeconds(r.phases.restoration), 0.12, 0.05);
  EXPECT_NEAR(ToSeconds(r.downtime), 1.7, 0.2);
  EXPECT_NEAR(ToSeconds(r.total_time), 2.15, 0.25);
  // Network interruption dominated by the 6.6 s NIC init on M1.
  EXPECT_GT(r.network_downtime, SecondsF(6.0));
}

TEST(InPlaceTest, KvmToXenIsSlowerDueToTwoKernelBoot) {
  auto m1 = MakeM1(3);
  std::unique_ptr<Hypervisor> kvm = MakeHypervisor(HypervisorKind::kKvm, *m1);
  PopulateVms(*kvm, 1);
  auto kvm_to_xen = InPlaceTransplant::Run(std::move(kvm), HypervisorKind::kXen, InPlaceOptions{});
  ASSERT_TRUE(kvm_to_xen.ok()) << kvm_to_xen.error().ToString();

  // Paper Fig. 10: KVM->Xen takes ~7.6 s on M1 vs 2.15 s for Xen->KVM.
  EXPECT_NEAR(ToSeconds(kvm_to_xen->report.total_time), 7.6, 0.8);
  // And the restored VM is intact under Xen.
  auto* xen = dynamic_cast<XenVisor*>(kvm_to_xen->hypervisor.get());
  ASSERT_NE(xen, nullptr);
  EXPECT_EQ(xen->ListVms().size(), 1u);
}

TEST(InPlaceTest, MultiVmTransplantRestoresAll) {
  auto machine = MakeM1(4);
  std::unique_ptr<Hypervisor> xen = MakeHypervisor(HypervisorKind::kXen, *machine);
  auto uids = PopulateVms(*xen, 8);

  auto result = InPlaceTransplant::Run(std::move(xen), HypervisorKind::kKvm, InPlaceOptions{});
  ASSERT_TRUE(result.ok()) << result.error().ToString();
  ASSERT_EQ(result->restored_vms.size(), 8u);
  for (uint64_t uid : uids) {
    auto* kvm = dynamic_cast<KvmHost*>(result->hypervisor.get());
    ASSERT_NE(kvm, nullptr);
    EXPECT_TRUE(kvm->FindVmByUid(uid).ok());
  }
  // Ephemeral PRAM/UISR frames were cleaned up.
  EXPECT_TRUE(machine->memory().ExtentsOfKind(FrameOwnerKind::kPramMeta).empty());
  EXPECT_TRUE(machine->memory().ExtentsOfKind(FrameOwnerKind::kUisr).empty());
}

// The (uid, vCPU) pairs on a host's runqueues, sorted.
template <typename Host>
std::vector<QueuedVcpu> QueuedVcpus(const Host& host) {
  std::vector<QueuedVcpu> queued;
  for (const auto& queue : host.scheduler().queues()) {
    queued.insert(queued.end(), queue.begin(), queue.end());
  }
  std::ranges::sort(queued);
  return queued;
}

// The (uid, vCPU) pairs the runqueues must hold for VMs `ids` on `hv`, sorted.
std::vector<QueuedVcpu> ExpectedVcpus(const Hypervisor& hv, const std::vector<VmId>& ids) {
  std::vector<QueuedVcpu> expected;
  for (VmId id : ids) {
    auto info = hv.GetVmInfo(id);
    EXPECT_TRUE(info.ok());
    for (uint32_t v = 0; info.ok() && v < info->vcpus; ++v) {
      expected.push_back({info->uid, v});
    }
  }
  std::ranges::sort(expected);
  return expected;
}

TEST(InPlaceTest, RunqueuesRebuiltOnTargetAndOnRollback) {
  // VM Management State is never translated: the target rebuilds its
  // runqueues from the restored VMs, and so does a salvaged source.
  for (const InPlaceOptions::Fault fault :
       {InPlaceOptions::Fault::kNone, InPlaceOptions::Fault::kDecodeFailure}) {
    auto machine = MakeM1(40);
    std::unique_ptr<Hypervisor> xen = MakeHypervisor(HypervisorKind::kXen, *machine);
    PopulateVms(*xen, 3, 1ull << 30, 2);
    VmConfig wide = VmConfig::Small("wide");
    wide.vcpus = 3;
    ASSERT_TRUE(xen->CreateVm(wide).ok());

    InPlaceOptions options;
    options.inject_fault = fault;
    auto result = InPlaceTransplant::Run(std::move(xen), HypervisorKind::kKvm, options);
    ASSERT_TRUE(result.ok()) << result.error().ToString();
    ASSERT_EQ(result->restored_vms.size(), 4u);
    const std::vector<QueuedVcpu> expected =
        ExpectedVcpus(*result->hypervisor, result->restored_vms);
    ASSERT_EQ(expected.size(), 9u);
    if (fault == InPlaceOptions::Fault::kNone) {
      EXPECT_EQ(result->report.outcome, TransplantOutcome::kCompleted);
      auto* kvm = dynamic_cast<KvmHost*>(result->hypervisor.get());
      ASSERT_NE(kvm, nullptr);
      EXPECT_EQ(QueuedVcpus(*kvm), expected);
    } else {
      EXPECT_EQ(result->report.outcome, TransplantOutcome::kRolledBack);
      auto* salvaged = dynamic_cast<XenVisor*>(result->hypervisor.get());
      ASSERT_NE(salvaged, nullptr);
      EXPECT_EQ(QueuedVcpus(*salvaged), expected);
    }
  }
}

TEST(InPlaceTest, RoundTripXenKvmXen) {
  auto machine = MakeM1(5);
  std::unique_ptr<Hypervisor> xen = MakeHypervisor(HypervisorKind::kXen, *machine);
  auto uids = PopulateVms(*xen, 2);

  auto to_kvm = InPlaceTransplant::Run(std::move(xen), HypervisorKind::kKvm, InPlaceOptions{});
  ASSERT_TRUE(to_kvm.ok()) << to_kvm.error().ToString();
  auto back_to_xen = InPlaceTransplant::Run(std::move(to_kvm->hypervisor), HypervisorKind::kXen,
                                            InPlaceOptions{});
  ASSERT_TRUE(back_to_xen.ok()) << back_to_xen.error().ToString();

  ASSERT_EQ(back_to_xen->restored_vms.size(), 2u);
  for (VmId id : back_to_xen->restored_vms) {
    auto info = back_to_xen->hypervisor->GetVmInfo(id);
    ASSERT_TRUE(info.ok());
    EXPECT_TRUE(std::find(uids.begin(), uids.end(), info->uid) != uids.end());
    EXPECT_EQ(back_to_xen->hypervisor->ReadGuestPage(id, 1234).value(), 0xF00D0000u + 1234);
  }
}

TEST(InPlaceTest, HomogeneousTransplantWorksAsUpgrade) {
  // Xen -> Xen via micro-reboot: the paper's "in-place upgrade of
  // homogeneous hypervisors" baseline.
  auto machine = MakeM1(6);
  std::unique_ptr<Hypervisor> xen = MakeHypervisor(HypervisorKind::kXen, *machine);
  PopulateVms(*xen, 1);
  auto result = InPlaceTransplant::Run(std::move(xen), HypervisorKind::kXen, InPlaceOptions{});
  ASSERT_TRUE(result.ok()) << result.error().ToString();
  EXPECT_EQ(result->hypervisor->kind(), HypervisorKind::kXen);
  EXPECT_EQ(result->restored_vms.size(), 1u);
}

TEST(InPlaceTest, PrepareBeforePauseMovesPramOutOfDowntime) {
  auto run = [](bool prepare) {
    auto machine = MakeM1(7);
    std::unique_ptr<Hypervisor> xen = MakeHypervisor(HypervisorKind::kXen, *machine);
    PopulateVms(*xen, 1, 4ull << 30);
    InPlaceOptions options;
    options.prepare_before_pause = prepare;
    auto result = InPlaceTransplant::Run(std::move(xen), HypervisorKind::kKvm, options);
    EXPECT_TRUE(result.ok());
    return result->report;
  };
  const TransplantReport with = run(true);
  const TransplantReport without = run(false);
  EXPECT_NEAR(ToSeconds(without.downtime - with.downtime), ToSeconds(with.phases.pram), 0.05);
  // Total wall-clock is the same either way.
  EXPECT_NEAR(ToSeconds(without.total_time), ToSeconds(with.total_time), 0.05);
}

TEST(InPlaceTest, ParallelTranslationShrinksMultiVmDowntime) {
  auto run = [](bool parallel) {
    auto machine = MakeM1(8);
    std::unique_ptr<Hypervisor> xen = MakeHypervisor(HypervisorKind::kXen, *machine);
    PopulateVms(*xen, 10);
    InPlaceOptions options;
    options.parallel_translation = parallel;
    auto result = InPlaceTransplant::Run(std::move(xen), HypervisorKind::kKvm, options);
    EXPECT_TRUE(result.ok());
    return result->report;
  };
  const TransplantReport par = run(true);
  const TransplantReport seq = run(false);
  EXPECT_GT(seq.phases.pram, par.phases.pram * 3);
  EXPECT_GT(seq.phases.translation, par.phases.translation * 3);
}

TEST(InPlaceTest, HugePagesShrinkPramMetadata) {
  auto run = [](bool huge) {
    auto machine = MakeM1(9);
    std::unique_ptr<Hypervisor> xen = MakeHypervisor(HypervisorKind::kXen, *machine);
    PopulateVms(*xen, 1, 2ull << 30);
    InPlaceOptions options;
    options.use_huge_pages = huge;
    auto result = InPlaceTransplant::Run(std::move(xen), HypervisorKind::kKvm, options);
    EXPECT_TRUE(result.ok());
    return result->report.pram_metadata_bytes;
  };
  const uint64_t huge_bytes = run(true);
  const uint64_t small_bytes = run(false);
  EXPECT_GT(small_bytes / huge_bytes, 50u);  // ~2 MB/GB vs ~4 KB/GB.
}

TEST(InPlaceTest, EarlyRestorationShrinksDowntime) {
  auto run = [](bool early) {
    auto machine = MakeM1(10);
    std::unique_ptr<Hypervisor> xen = MakeHypervisor(HypervisorKind::kXen, *machine);
    PopulateVms(*xen, 4);
    InPlaceOptions options;
    options.early_restoration = early;
    auto result = InPlaceTransplant::Run(std::move(xen), HypervisorKind::kKvm, options);
    EXPECT_TRUE(result.ok());
    return result->report.downtime;
  };
  EXPECT_LT(run(true), run(false));
}

TEST(InPlaceTest, IoapicFixupSurfacesInReport) {
  auto machine = MakeM1(11);
  std::unique_ptr<Hypervisor> xen = MakeHypervisor(HypervisorKind::kXen, *machine);
  PopulateVms(*xen, 1);  // XenVisor wires virtio to pins >= 24.
  auto result = InPlaceTransplant::Run(std::move(xen), HypervisorKind::kKvm, InPlaceOptions{});
  ASSERT_TRUE(result.ok());
  bool saw_ioapic_fixup = false;
  for (const StateFixup& fixup : result->report.fixups) {
    saw_ioapic_fixup |= fixup.component == "ioapic";
  }
  EXPECT_TRUE(saw_ioapic_fixup);
}

TEST(InPlaceTest, EmptyHostTransplantsCleanly) {
  auto machine = MakeM1(12);
  std::unique_ptr<Hypervisor> xen = MakeHypervisor(HypervisorKind::kXen, *machine);
  auto result = InPlaceTransplant::Run(std::move(xen), HypervisorKind::kKvm, InPlaceOptions{});
  ASSERT_TRUE(result.ok()) << result.error().ToString();
  EXPECT_TRUE(result->restored_vms.empty());
  EXPECT_EQ(result->report.vm_count, 0);
  EXPECT_GT(result->report.phases.reboot, 0);
}

TEST(InPlaceTest, NullSourceRejected) {
  auto result = InPlaceTransplant::Run(nullptr, HypervisorKind::kKvm, InPlaceOptions{});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code(), ErrorCode::kInvalidArgument);
}

TEST(InPlaceTest, NonHugePageVmTransplants) {
  // 4K-page guests produce ~512x more PRAM entries; the flow must still
  // carry them through the reboot intact.
  auto machine = MakeM1(13);
  std::unique_ptr<Hypervisor> xen = MakeHypervisor(HypervisorKind::kXen, *machine);
  VmConfig config = VmConfig::Small("small-pages");
  config.huge_pages = false;
  config.memory_bytes = 512ull << 20;
  auto id = xen->CreateVm(config);
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(xen->WriteGuestPage(*id, 77, 0x777).ok());
  auto result = InPlaceTransplant::Run(std::move(xen), HypervisorKind::kKvm, InPlaceOptions{});
  ASSERT_TRUE(result.ok()) << result.error().ToString();
  EXPECT_EQ(result->hypervisor->ReadGuestPage(result->restored_vms[0], 77).value(), 0x777u);
  // 512 MB of 4K entries: ~1 MB of PRAM metadata (vs ~12 KB with 2M pages).
  EXPECT_GT(result->report.pram_metadata_bytes, 800u << 10);
}

TEST(MigrationTpTest, MixedSizeFleetMigratesInOnePlan) {
  Machine src_machine(MachineProfile::M2(), 22);
  Machine dst_machine(MachineProfile::M2(), 23);
  XenVisor xen(src_machine);
  KvmHost kvm(dst_machine);
  std::vector<VmId> ids;
  for (uint64_t gib : {1ull, 4ull, 2ull}) {
    VmConfig config = VmConfig::Small("mix-" + std::to_string(gib));
    config.memory_bytes = gib << 30;
    auto id = xen.CreateVm(config);
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  auto result = MigrationTransplant::Run(xen, ids, kvm, NetworkLink{1.0});
  ASSERT_TRUE(result.ok()) << result.error().ToString();
  ASSERT_EQ(result->migrations.size(), 3u);
  // The big VM's pre-copy dominates its completion time.
  EXPECT_GT(result->migrations[1].total_time, result->migrations[0].total_time);
  EXPECT_EQ(kvm.ListVms().size(), 3u);
}

TEST(MigrationTpTest, TransplantsBetweenHeterogeneousHosts) {
  Machine src_machine(MachineProfile::M1(), 20);
  Machine dst_machine(MachineProfile::M1(), 21);
  XenVisor xen(src_machine);
  KvmHost kvm(dst_machine);

  std::vector<VmId> ids;
  for (int i = 0; i < 3; ++i) {
    auto id = xen.CreateVm(VmConfig::Small("mtp-" + std::to_string(i)));
    ASSERT_TRUE(id.ok());
    ASSERT_TRUE(xen.WriteGuestPage(*id, 5, 0x5050 + static_cast<uint64_t>(i)).ok());
    ids.push_back(*id);
  }

  auto result = MigrationTransplant::Run(xen, ids, kvm, NetworkLink{1.0});
  ASSERT_TRUE(result.ok()) << result.error().ToString();
  EXPECT_EQ(result->report.vm_count, 3);
  EXPECT_TRUE(xen.ListVms().empty());
  EXPECT_EQ(kvm.ListVms().size(), 3u);
  EXPECT_LT(result->report.downtime, MillisF(50.0));
  EXPECT_EQ(result->report.pram_metadata_bytes, 0u);  // No PRAM for MigrationTP.
  for (size_t i = 0; i < result->migrations.size(); ++i) {
    EXPECT_EQ(kvm.ReadGuestPage(result->migrations[i].dest_vm_id, 5).value(), 0x5050 + i);
  }
}

TEST(FactoryTest, MakesBothKinds) {
  Machine machine(MachineProfile::M2(), 30);
  auto xen = MakeHypervisor(HypervisorKind::kXen, machine);
  ASSERT_NE(xen, nullptr);
  EXPECT_EQ(xen->kind(), HypervisorKind::kXen);
  xen.reset();
  auto kvm = MakeHypervisor(HypervisorKind::kKvm, machine);
  ASSERT_NE(kvm, nullptr);
  EXPECT_EQ(kvm->type(), HypervisorType::kType2);
}

}  // namespace
}  // namespace hypertp
