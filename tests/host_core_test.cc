// One suite for what the shared simulated-host core (src/hv/host_core.h)
// owns, run against every hypervisor kind: the VM table and lifecycle, guest
// memory, dirty logging, save/restore preconditions, uid uniqueness, and the
// release of frames a failed create or restore allocated. Kind-specific
// behaviour (PV infrastructure, IOAPIC pins, schedulers, allocation scatter)
// is tested beside each kind.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/core/factory.h"
#include "src/pram/pram.h"

namespace hypertp {
namespace {

class HostCoreTest : public ::testing::TestWithParam<HypervisorKind> {
 protected:
  HostCoreTest() : machine_(MachineProfile::M1(), 1), hv_(MakeHypervisor(GetParam(), machine_)) {}

  uint64_t allocated() const { return machine_.memory().allocated_frames(); }

  // Creates a VM, prepares and pauses it, and returns its UISR description.
  UisrVm SavedVm(VmId* id_out = nullptr) {
    auto id = hv_->CreateVm(VmConfig::Small("saved"));
    EXPECT_TRUE(id.ok());
    EXPECT_TRUE(hv_->PrepareVmForTransplant(*id).ok());
    EXPECT_TRUE(hv_->PauseVm(*id).ok());
    FixupLog log;
    auto uisr = hv_->SaveVmToUisr(*id, &log);
    EXPECT_TRUE(uisr.ok());
    if (id_out != nullptr) {
      *id_out = *id;
    }
    return *uisr;
  }

  Machine machine_;
  std::unique_ptr<Hypervisor> hv_;
};

TEST_P(HostCoreTest, CreateListDestroy) {
  auto id = hv_->CreateVm(VmConfig::Small("web-1"));
  ASSERT_TRUE(id.ok()) << id.error().ToString();
  EXPECT_EQ(hv_->ListVms().size(), 1u);

  auto info = hv_->GetVmInfo(*id);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->name, "web-1");
  EXPECT_EQ(info->vcpus, 1u);
  EXPECT_EQ(info->run_state, VmRunState::kRunning);

  const uint64_t allocated_before = allocated();
  ASSERT_TRUE(hv_->DestroyVm(*id).ok());
  EXPECT_TRUE(hv_->ListVms().empty());
  EXPECT_LT(allocated(), allocated_before);
}

TEST_P(HostCoreTest, GuestPagesReadWrite) {
  auto id = hv_->CreateVm(VmConfig::Small("rw"));
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(hv_->ReadGuestPage(*id, 0).value(), 0u);
  ASSERT_TRUE(hv_->WriteGuestPage(*id, 1000, 0xFEED).ok());
  EXPECT_EQ(hv_->ReadGuestPage(*id, 1000).value(), 0xFEEDu);
  EXPECT_FALSE(hv_->WriteGuestPage(*id, 1 << 30, 1).ok());  // Beyond memory.
}

TEST_P(HostCoreTest, DirtyLoggingLifecycle) {
  auto id = hv_->CreateVm(VmConfig::Small("dirty"));
  ASSERT_TRUE(id.ok());
  EXPECT_FALSE(hv_->FetchAndClearDirtyLog(*id).ok());  // Not enabled yet.
  ASSERT_TRUE(hv_->EnableDirtyLogging(*id).ok());
  ASSERT_TRUE(hv_->WriteGuestPage(*id, 7, 1).ok());
  auto dirty = hv_->FetchAndClearDirtyLog(*id);
  ASSERT_TRUE(dirty.ok());
  EXPECT_EQ(*dirty, std::vector<Gfn>{7});
  ASSERT_TRUE(hv_->DisableDirtyLogging(*id).ok());
}

TEST_P(HostCoreTest, SaveRequiresPause) {
  auto id = hv_->CreateVm(VmConfig::Small("sv"));
  ASSERT_TRUE(id.ok());
  FixupLog log;
  auto uisr = hv_->SaveVmToUisr(*id, &log);
  ASSERT_FALSE(uisr.ok());
  EXPECT_EQ(uisr.error().code(), ErrorCode::kFailedPrecondition);
}

TEST_P(HostCoreTest, DuplicateUidRejected) {
  VmConfig config = VmConfig::Small("dup");
  config.uid = 4242;
  ASSERT_TRUE(hv_->CreateVm(config).ok());
  config.name = "dup2";
  auto second = hv_->CreateVm(config);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.error().code(), ErrorCode::kAlreadyExists);
}

TEST_P(HostCoreTest, DuplicateUidRejectedOnRestore) {
  const UisrVm uisr = SavedVm();  // The source VM stays hosted.
  const uint64_t before = allocated();
  FixupLog log;
  auto restored = hv_->RestoreVmFromUisr(uisr, GuestMemoryBinding{}, &log);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.error().code(), ErrorCode::kAlreadyExists);
  EXPECT_EQ(hv_->ListVms().size(), 1u);
  EXPECT_EQ(allocated(), before);
}

TEST_P(HostCoreTest, OvercommitRejected) {
  VmConfig config = VmConfig::Small("huge");
  config.memory_bytes = 32ull << 30;  // M1 has 16 GB.
  auto id = hv_->CreateVm(config);
  ASSERT_FALSE(id.ok());
  EXPECT_EQ(id.error().code(), ErrorCode::kResourceExhausted);
}

TEST_P(HostCoreTest, InvalidConfigsRejected) {
  VmConfig config = VmConfig::Small("");
  EXPECT_FALSE(hv_->CreateVm(config).ok());
  config = VmConfig::Small("x");
  config.vcpus = 0;
  EXPECT_FALSE(hv_->CreateVm(config).ok());
  config = VmConfig::Small("y");
  config.memory_bytes = 123;  // Not page aligned.
  EXPECT_FALSE(hv_->CreateVm(config).ok());
  config = VmConfig::Small("z");
  config.devices.push_back({"floppy", DeviceAttachMode::kEmulated});
  EXPECT_FALSE(hv_->CreateVm(config).ok());
}

TEST_P(HostCoreTest, InjectIntoPausedVmRefused) {
  auto id = hv_->CreateVm(VmConfig::Small("paused"));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(hv_->PauseVm(*id).ok());
  const uint64_t generation = hv_->StateGeneration(*id).value();
  auto injected = hv_->InjectGuestEvent(*id, Hypervisor::GuestEventKind::kTimerTick);
  ASSERT_FALSE(injected.ok());
  EXPECT_EQ(injected.error().code(), ErrorCode::kFailedPrecondition);
  EXPECT_EQ(hv_->StateGeneration(*id).value(), generation);
  ASSERT_TRUE(hv_->ResumeVm(*id).ok());
  EXPECT_TRUE(hv_->InjectGuestEvent(*id, Hypervisor::GuestEventKind::kTimerTick).ok());
}

TEST_P(HostCoreTest, UnknownVmIdNotFound) {
  ASSERT_TRUE(hv_->CreateVm(VmConfig::Small("known")).ok());
  const VmId unknown = 9999;
  FixupLog log;
  const std::vector<ErrorCode> codes = {
      hv_->DestroyVm(unknown).error().code(),
      hv_->PauseVm(unknown).error().code(),
      hv_->ResumeVm(unknown).error().code(),
      hv_->GetVmInfo(unknown).error().code(),
      hv_->GuestMemoryMap(unknown).error().code(),
      hv_->ReadGuestPage(unknown, 0).error().code(),
      hv_->WriteGuestPage(unknown, 0, 1).error().code(),
      hv_->EnableDirtyLogging(unknown).error().code(),
      hv_->FetchAndClearDirtyLog(unknown).error().code(),
      hv_->DisableDirtyLogging(unknown).error().code(),
      hv_->AdvanceGuestClocks(unknown, 1000).error().code(),
      hv_->StateGeneration(unknown).error().code(),
      hv_->InjectGuestEvent(unknown, Hypervisor::GuestEventKind::kWorkloadStep).error().code(),
      hv_->SaveVmToUisr(unknown, &log).error().code(),
      hv_->DumpGuestContent(unknown).error().code(),
      hv_->PrepareVmForTransplant(unknown).error().code(),
  };
  for (size_t i = 0; i < codes.size(); ++i) {
    EXPECT_EQ(codes[i], ErrorCode::kNotFound) << "call #" << i;
  }
  EXPECT_EQ(hv_->ListVms().size(), 1u);
}

TEST_P(HostCoreTest, DetachForMicroRebootFreesNoFrame) {
  ASSERT_TRUE(hv_->CreateVm(VmConfig::Small("a")).ok());
  ASSERT_TRUE(hv_->CreateVm(VmConfig::Small("b")).ok());
  const uint64_t before = allocated();
  hv_->DetachForMicroReboot();
  EXPECT_EQ(allocated(), before);
  EXPECT_TRUE(hv_->ListVms().empty());
  EXPECT_EQ(hv_->HypervisorFrames(), 0u);
  hv_.reset();  // Destroying a detached host releases nothing either.
  EXPECT_EQ(allocated(), before);
}

TEST_P(HostCoreTest, FailedCreateReleasesEveryFrameItAllocated) {
  const uint64_t before = allocated();
  VmConfig config = VmConfig::Small("too-big");
  config.memory_bytes = 32ull << 30;  // M1 has 16 GB.
  auto failed = hv_->CreateVm(config);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.error().code(), ErrorCode::kResourceExhausted);
  EXPECT_EQ(allocated(), before);

  config.name = "fits";
  config.memory_bytes = 8ull << 30;
  auto fits = hv_->CreateVm(config);
  EXPECT_TRUE(fits.ok()) << fits.error().ToString();
}

TEST_P(HostCoreTest, FailedAllocatingRestoreReleasesEveryFrameItAllocated) {
  VmId id = 0;
  UisrVm uisr = SavedVm(&id);
  ASSERT_TRUE(hv_->DestroyVm(id).ok());
  const uint64_t before = allocated();
  uisr.memory.memory_bytes = 32ull << 30;  // M1 has 16 GB.
  FixupLog log;
  auto failed = hv_->RestoreVmFromUisr(uisr, GuestMemoryBinding{}, &log);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.error().code(), ErrorCode::kResourceExhausted);
  EXPECT_EQ(allocated(), before);
  EXPECT_TRUE(hv_->ListVms().empty());
}

TEST_P(HostCoreTest, FailedInPlaceRestoreKeepsTheAdoptedFrames) {
  VmId id = 0;
  UisrVm uisr = SavedVm(&id);
  ASSERT_TRUE(hv_->WriteGuestPage(id, 42, 0xCAFE).ok());
  GuestMemoryBinding binding;
  binding.mode = GuestMemoryBinding::Mode::kAdoptInPlace;
  auto map = hv_->GuestMemoryMap(id);
  ASSERT_TRUE(map.ok());
  for (const GuestMapping& m : *map) {
    BuildEntriesForRange(m.gfn, m.mfn, m.frames, uisr.memory.uses_huge_pages, binding.entries);
  }
  hv_->DetachForMicroReboot();
  std::unique_ptr<Hypervisor> target = MakeHypervisor(GetParam(), machine_);

  // The PRAM description covers half of what the VM declares: the restore
  // must fail without touching the frames a rollback would salvage from.
  const uint64_t before = allocated();
  UisrVm inconsistent = uisr;
  inconsistent.memory.memory_bytes *= 2;
  FixupLog log;
  auto failed = target->RestoreVmFromUisr(inconsistent, binding, &log);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.error().code(), ErrorCode::kDataLoss);
  EXPECT_EQ(allocated(), before);

  auto salvaged = target->RestoreVmFromUisr(uisr, binding, &log);
  ASSERT_TRUE(salvaged.ok()) << salvaged.error().ToString();
  EXPECT_EQ(target->ReadGuestPage(*salvaged, 42).value(), 0xCAFEu);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, HostCoreTest,
                         ::testing::Values(HypervisorKind::kXen, HypervisorKind::kKvm,
                                           HypervisorKind::kBhyve),
                         [](const ::testing::TestParamInfo<HypervisorKind>& info) {
                           return std::string(HypervisorKindName(info.param));
                         });

}  // namespace
}  // namespace hypertp
