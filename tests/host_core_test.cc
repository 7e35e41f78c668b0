// One suite for what the shared simulated-host core (src/hv/host_core.h)
// owns, run against every hypervisor kind: the VM table and lifecycle, guest
// memory, dirty logging, save/restore preconditions, uid uniqueness, and the
// release of frames a failed create or restore allocated. Kind-specific
// behaviour (PV infrastructure, IOAPIC pins, schedulers, allocation scatter)
// is tested beside each kind.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
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

// The in-place ownership check runs per PRAM entry, yet still names the
// first bad frame: a frame another guest owns fails with kDataLoss, a frame
// freed during the reboot with kNotFound.
TEST_P(HostCoreTest, InPlaceAdoptNamesTheFirstFrameTheGuestLost) {
  for (const bool foreign : {true, false}) {
    SCOPED_TRACE(foreign ? "foreign-owned extent" : "freed extent");
    Machine machine(MachineProfile::M1(), 1);
    std::unique_ptr<Hypervisor> source = MakeHypervisor(GetParam(), machine);
    auto id = source->CreateVm(VmConfig::Small("adopt"));
    ASSERT_TRUE(id.ok());
    ASSERT_TRUE(source->PrepareVmForTransplant(*id).ok());
    ASSERT_TRUE(source->PauseVm(*id).ok());
    FixupLog log;
    auto uisr = source->SaveVmToUisr(*id, &log);
    ASSERT_TRUE(uisr.ok());
    GuestMemoryBinding binding;
    binding.mode = GuestMemoryBinding::Mode::kAdoptInPlace;
    auto map = source->GuestMemoryMap(*id);
    ASSERT_TRUE(map.ok());
    for (const GuestMapping& m : *map) {
      BuildEntriesForRange(m.gfn, m.mfn, m.frames, uisr->memory.uses_huge_pages,
                           binding.entries);
    }
    source->DetachForMicroReboot();
    // Boot the target first, so its own frames cannot fill a freed hole.
    std::unique_ptr<Hypervisor> target = MakeHypervisor(GetParam(), machine);

    // Take away a guest extent from the middle of the VM's memory.
    const FrameOwner guest{FrameOwnerKind::kGuest, uisr->vm_uid};
    std::vector<FrameExtent> owned;
    for (const FrameExtent& e : machine.memory().ExtentsOfKind(FrameOwnerKind::kGuest)) {
      if (e.owner == guest) {
        owned.push_back(e);
      }
    }
    ASSERT_GE(owned.size(), 2u);
    const FrameExtent lost = owned[owned.size() / 2];
    if (foreign) {
      ASSERT_TRUE(machine.memory()
                      .Reassign(lost.base, lost.count,
                                FrameOwner{FrameOwnerKind::kGuest, uisr->vm_uid + 1})
                      .ok());
    } else {
      ASSERT_TRUE(machine.memory().Free(lost.base, lost.count).ok());
    }
    // The first frame in PRAM order that the guest no longer holds.
    std::optional<Mfn> first_lost;
    for (const PramPageEntry& e : binding.entries) {
      if (e.mfn < lost.end() && lost.base < e.mfn + e.frame_count()) {
        first_lost = std::max(e.mfn, lost.base);
        break;
      }
    }
    ASSERT_TRUE(first_lost.has_value());

    auto failed = target->RestoreVmFromUisr(*uisr, binding, &log);
    ASSERT_FALSE(failed.ok());
    const std::string frame = std::to_string(*first_lost);
    if (foreign) {
      EXPECT_EQ(failed.error().code(), ErrorCode::kDataLoss);
      const std::string want =
          "in-place frame " + frame + " not owned by guest uid " + std::to_string(uisr->vm_uid);
      EXPECT_NE(failed.error().message().find(want), std::string::npos)
          << failed.error().ToString();
    } else {
      EXPECT_EQ(failed.error().code(), ErrorCode::kNotFound);
      EXPECT_NE(failed.error().message().find("frame " + frame + " is not allocated"),
                std::string::npos)
          << failed.error().ToString();
    }
    EXPECT_TRUE(target->ListVms().empty());
  }
}

// The adopt checks and maps one run of entries contiguous in GFN and MFN at
// a time. Four huge entries form one run over three allocations; losing the
// middle allocation (it starts halfway into the second entry) must report
// what a frame-by-frame check in entry order finds first, with its code.
TEST_P(HostCoreTest, InPlaceAdoptOfARunNamesTheFirstFrameTheGuestLost) {
  for (const bool foreign : {true, false}) {
    SCOPED_TRACE(foreign ? "foreign-owned frame" : "freed frame");
    FixupLog log;
    auto uisr = SavedVm();
    // A freshly booted host, so the hand-laid extents below sit back to back.
    Machine machine(MachineProfile::M1(), 2);
    std::unique_ptr<Hypervisor> hv = MakeHypervisor(GetParam(), machine);

    PhysicalMemory& ram = machine.memory();
    const FrameOwner guest{FrameOwnerKind::kGuest, uisr.vm_uid};
    const Mfn base = ram.Alloc(768, kFramesPerHugePage, guest).value();
    ASSERT_EQ(ram.Alloc(512, 1, guest).value(), base + 768);
    ASSERT_EQ(ram.Alloc(768, 1, guest).value(), base + 1280);
    GuestMemoryBinding binding;
    binding.mode = GuestMemoryBinding::Mode::kAdoptInPlace;
    BuildEntriesForRange(0, base, 4 * kFramesPerHugePage, true, binding.entries);
    ASSERT_EQ(binding.entries.size(), 4u);
    uisr.memory.memory_bytes = 4 * kHugePageSize;
    uisr.memory.uses_huge_pages = true;

    if (foreign) {
      ASSERT_TRUE(ram.Reassign(base + 768, 512, FrameOwner{FrameOwnerKind::kGuest, 999}).ok());
    } else {
      ASSERT_TRUE(ram.Free(base + 768, 512).ok());
    }
    // The reference: every frame of every entry, in entry order.
    std::optional<Mfn> first_bad;
    ErrorCode want_code = ErrorCode::kOk;
    for (const PramPageEntry& e : binding.entries) {
      for (Mfn mfn = e.mfn; mfn < e.mfn + e.frame_count() && !first_bad; ++mfn) {
        auto owner = ram.OwnerOf(mfn);
        if (!owner.ok() || !(*owner == guest)) {
          first_bad = mfn;
          want_code = owner.ok() ? ErrorCode::kDataLoss : ErrorCode::kNotFound;
        }
      }
    }
    ASSERT_EQ(first_bad, std::optional<Mfn>(base + 768));

    auto failed = hv->RestoreVmFromUisr(uisr, binding, &log);
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.error().code(), want_code);
    const std::string frame = "frame " + std::to_string(*first_bad) + " ";
    EXPECT_NE(failed.error().message().find(frame), std::string::npos)
        << failed.error().ToString();
    EXPECT_TRUE(hv->ListVms().empty());
  }
}

// Entries contiguous in GFN but not in MFN (and the reverse, across a GFN
// hole) stay separate mappings; a run contiguous in both becomes one.
TEST_P(HostCoreTest, InPlaceAdoptKeepsDiscontiguousEntriesApart) {
  VmId id = 0;
  UisrVm uisr = SavedVm(&id);
  ASSERT_TRUE(hv_->DestroyVm(id).ok());

  PhysicalMemory& ram = machine_.memory();
  const FrameOwner guest{FrameOwnerKind::kGuest, uisr.vm_uid};
  auto huge = [&ram](FrameOwner owner) {
    return ram.Alloc(kFramesPerHugePage, kFramesPerHugePage, owner).value();
  };
  const Mfn p0 = huge(guest);
  huge(FrameOwner{FrameOwnerKind::kHypervisor, 0});  // A gap in MFN.
  const Mfn p1 = huge(guest);
  const Mfn p2 = huge(guest);
  const Mfn p3 = huge(guest);
  ASSERT_EQ(p2, p1 + kFramesPerHugePage);
  ASSERT_EQ(p3, p2 + kFramesPerHugePage);

  GuestMemoryBinding binding;
  binding.mode = GuestMemoryBinding::Mode::kAdoptInPlace;
  binding.entries = {
      {0, p0, kHugePageOrder},     // GFN-contiguous with the next, MFN not.
      {512, p1, kHugePageOrder},   // MFN-contiguous with the next, GFN not.
      {1536, p2, kHugePageOrder},  // Contiguous in both with the next.
      {2048, p3, kHugePageOrder},
  };
  uisr.memory.memory_bytes = 4 * kHugePageSize;
  uisr.memory.uses_huge_pages = true;
  FixupLog log;
  auto restored = hv_->RestoreVmFromUisr(uisr, binding, &log);
  ASSERT_TRUE(restored.ok()) << restored.error().ToString();
  const std::vector<GuestMapping> want = {
      {0, p0, 512},
      {512, p1, 512},
      {1536, p2, 1024},
  };
  EXPECT_EQ(hv_->GuestMemoryMap(*restored).value(), want);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, HostCoreTest,
                         ::testing::Values(HypervisorKind::kXen, HypervisorKind::kKvm,
                                           HypervisorKind::kBhyve),
                         [](const ::testing::TestParamInfo<HypervisorKind>& info) {
                           return std::string(HypervisorKindName(info.param));
                         });

}  // namespace
}  // namespace hypertp
