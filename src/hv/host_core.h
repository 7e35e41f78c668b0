// The simulated-host core shared by XenVisor, KVMish and bhyvish.
//
// Every kind keeps a table of hosted VMs, claims a slice of RAM as HV State at
// boot, and runs the same lifecycle, guest-memory, dirty-log, state-generation
// and save/restore scaffolding around its own native records. HostCore owns
// all of that once. A kind contributes only what really differs — matching
// the paper's split where each hypervisor's expert writes to_uisr/from_uisr
// (§3.1): its native platform records and their UISR translation, its IOAPIC
// wiring, what guest events and clock advances do to those records, its
// allocation policy, its scheduler (VM Management State) and its constants.

#ifndef HYPERTP_SRC_HV_HOST_CORE_H_
#define HYPERTP_SRC_HV_HOST_CORE_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/base/logging.h"
#include "src/hv/devices.h"
#include "src/hv/guest_memory.h"
#include "src/hv/hypervisor.h"

namespace hypertp {

// The header of every kind's VM record. XenDomain, KvmVm and BhyveVm derive
// from it, add their native platform records and provide
// `uint32_t vcpu_count() const`.
struct HostedVm {
  VmId id = 0;       // Host-local (domid, vm fd, vm handle); changes across save/restore.
  uint64_t uid = 0;  // Datacenter-stable identity.
  std::string name;
  VmRunState run_state = VmRunState::kRunning;
  uint64_t memory_bytes = 0;
  bool huge_pages = false;

  // Guest State mapping: Xen's P2M, KVM's memslots, bhyve's memseg map.
  GuestAddressSpace memory;
  // Device models: QEMU's on Xen, the kvmtool or bhyve process's otherwise.
  std::vector<UisrDeviceState> devices;
  uint32_t vmm_pid = 0;  // The per-VM user-space VMM process; 0 if the kind has none.

  // Monotonic platform-state generation (Hypervisor::StateGeneration): bumps
  // on guest-visible state changes, never on pause/resume/save.
  uint64_t state_generation = 1;
  uint64_t state_frames = 0;  // kVmState frames: NPT/EPT tables, vCPU contexts.
};

// What tells one kind from another beyond its records. Each kind defines one
// constexpr instance; none of it is configurable.
struct HostConstants {
  std::string_view name;  // Hypervisor::name(), e.g. "xenvisor-4.12".
  HypervisorKind kind;
  HypervisorType type;
  std::string_view tag;     // Error and log prefix: "xen", "kvm", "bhyve".
  uint32_t max_vcpus;
  VmId first_id;            // First host-local VM id.
  uint32_t first_pid;       // First VMM process id; 0 = no per-VM VMM process.
  uint64_t hv_state_bytes;  // RAM claimed at boot as HV State.
  uint64_t chunk_frames;    // Allocation chunk for HV State and guest memory.
  uint64_t vmm_frames;      // Per-VM VMM working set (owner kVmm).
  MigrationTraits migration;
};

template <typename Vm>
class HostCore : public Hypervisor {
 public:
  ~HostCore() override {
    // A cleanly shut down host releases everything it owns. After
    // DetachForMicroReboot() there is nothing left to release — the scrubber
    // owns the machine's fate.
    for (const auto& [id, vm] : vms_) {
      FreeVmFrames(vm);
    }
    if (hv_frames_ > 0) {
      machine_->memory().FreeAllOwnedBy(FrameOwner{FrameOwnerKind::kHypervisor, 0});
    }
  }

  HostCore(const HostCore&) = delete;
  HostCore& operator=(const HostCore&) = delete;

  std::string_view name() const final { return k_.name; }
  HypervisorKind kind() const final { return k_.kind; }
  HypervisorType type() const final { return k_.type; }
  MigrationTraits migration_traits() const final { return k_.migration; }
  Machine& machine() final { return *machine_; }
  const Machine& machine() const final { return *machine_; }

  Result<VmId> CreateVm(const VmConfig& config) final {
    HYPERTP_RETURN_IF_ERROR(ValidateVmConfig(config, k_.max_vcpus));
    Vm vm = NewVm(config.uid != 0 ? config.uid : AllocateVmUid(), config.name,
                  config.memory_bytes, config.huge_pages);
    HYPERTP_RETURN_IF_ERROR(CheckUidFree(vm.uid));

    // Seed the platform state in native formats from the canonical post-boot
    // architectural state, then attach the device models.
    HYPERTP_RETURN_IF_ERROR(SeedPlatform(vm, config.vcpus));
    uint32_t instance = 0;
    for (const DeviceConfig& dev_config : config.devices) {
      HYPERTP_ASSIGN_OR_RETURN(
          UisrDeviceState dev,
          MakeDefaultDeviceState(dev_config.model, instance, vm.uid, dev_config.mode));
      if (dev_config.model.starts_with("virtio")) {
        WireVirtioPin(vm, instance);
      }
      vm.devices.push_back(std::move(dev));
      ++instance;
    }

    HYPERTP_ASSIGN_OR_RETURN(VmId id, Install(std::move(vm), nullptr));
    HYPERTP_LOG(kInfo, k_.tag) << "created vm " << id << " '" << config.name << "' ("
                               << config.vcpus << " vCPU, " << (config.memory_bytes >> 20)
                               << " MiB)";
    return id;
  }

  Result<void> DestroyVm(VmId id) final {
    HYPERTP_ASSIGN_OR_RETURN(Vm * vm, MutableVm(id));
    FreeVmFrames(*vm);
    UnscheduleVm(*vm);
    vms_.erase(id);
    return OkResult();
  }

  Result<void> PauseVm(VmId id) final {
    HYPERTP_ASSIGN_OR_RETURN(Vm * vm, MutableVm(id));
    vm->run_state = VmRunState::kPaused;
    return OkResult();
  }

  Result<void> ResumeVm(VmId id) final {
    HYPERTP_ASSIGN_OR_RETURN(Vm * vm, MutableVm(id));
    vm->run_state = VmRunState::kRunning;
    return OkResult();
  }

  Result<VmInfo> GetVmInfo(VmId id) const final {
    HYPERTP_ASSIGN_OR_RETURN(const Vm* vm, FindVm(id));
    VmInfo info;
    info.id = id;
    info.uid = vm->uid;
    info.name = vm->name;
    info.vcpus = vm->vcpu_count();
    info.memory_bytes = vm->memory_bytes;
    info.huge_pages = vm->huge_pages;
    for (const UisrDeviceState& dev : vm->devices) {
      info.has_passthrough |= dev.mode == DeviceAttachMode::kPassthrough;
    }
    info.run_state = vm->run_state;
    return info;
  }

  std::vector<VmId> ListVms() const final {
    std::vector<VmId> ids;
    ids.reserve(vms_.size());
    for (const auto& [id, vm] : vms_) {
      ids.push_back(id);
    }
    return ids;
  }

  Result<std::vector<GuestMapping>> GuestMemoryMap(VmId id) const final {
    HYPERTP_ASSIGN_OR_RETURN(const Vm* vm, FindVm(id));
    return vm->memory.mappings();
  }

  Result<uint64_t> ReadGuestPage(VmId id, Gfn gfn) const final {
    HYPERTP_ASSIGN_OR_RETURN(const Vm* vm, FindVm(id));
    return vm->memory.Read(machine_->memory(), gfn);
  }

  Result<void> WriteGuestPage(VmId id, Gfn gfn, uint64_t content) final {
    HYPERTP_ASSIGN_OR_RETURN(Vm * vm, MutableVm(id));
    ++vm->state_generation;
    return vm->memory.Write(machine_->memory(), gfn, content);
  }

  Result<void> EnableDirtyLogging(VmId id) final {
    HYPERTP_ASSIGN_OR_RETURN(Vm * vm, MutableVm(id));
    vm->memory.EnableDirtyLog();
    return OkResult();
  }

  Result<std::vector<Gfn>> FetchAndClearDirtyLog(VmId id) final {
    HYPERTP_ASSIGN_OR_RETURN(Vm * vm, MutableVm(id));
    if (!vm->memory.dirty_log_enabled()) {
      return FailedPreconditionError(Prefix() + "dirty logging not enabled");
    }
    return vm->memory.FetchAndClearDirty();
  }

  Result<void> DisableDirtyLogging(VmId id) final {
    HYPERTP_ASSIGN_OR_RETURN(Vm * vm, MutableVm(id));
    vm->memory.DisableDirtyLog();
    return OkResult();
  }

  Result<void> AdvanceGuestClocks(VmId id, SimDuration delta) final {
    HYPERTP_ASSIGN_OR_RETURN(Vm * vm, MutableVm(id));
    AdvanceClocks(*vm, delta);
    ++vm->state_generation;
    return OkResult();
  }

  Result<uint64_t> StateGeneration(VmId id) const final {
    HYPERTP_ASSIGN_OR_RETURN(const Vm* vm, FindVm(id));
    return vm->state_generation;
  }

  Result<void> InjectGuestEvent(VmId id, GuestEventKind kind) final {
    HYPERTP_ASSIGN_OR_RETURN(Vm * vm, MutableVm(id));
    if (vm->run_state != VmRunState::kRunning) {
      return FailedPreconditionError(Prefix() + "cannot inject guest events into a paused vm");
    }
    ApplyGuestEvent(*vm, kind);
    ++vm->state_generation;
    return OkResult();
  }

  Result<UisrVm> SaveVmToUisr(VmId id, FixupLog* log) final {
    HYPERTP_ASSIGN_OR_RETURN(const Vm* vm, FindVm(id));
    if (vm->run_state != VmRunState::kPaused) {
      return FailedPreconditionError(Prefix() + "vm must be paused before UISR translation");
    }
    UisrVm out;
    out.vm_uid = vm->uid;
    out.name = vm->name;
    out.source_hypervisor = std::string(k_.name);
    out.memory.memory_bytes = vm->memory_bytes;
    out.memory.uses_huge_pages = vm->huge_pages;
    HYPERTP_RETURN_IF_ERROR(PlatformToUisr(*vm, out, log));
    for (const UisrDeviceState& dev : vm->devices) {
      HYPERTP_RETURN_IF_ERROR(ValidateDeviceForTransplant(dev));
      out.devices.push_back(dev);
      if (dev.mode == DeviceAttachMode::kUnplugged && log != nullptr) {
        log->push_back({vm->uid, dev.model, "unplugged before transplant; will rescan"});
      }
    }
    return out;
  }

  Result<VmId> RestoreVmFromUisr(const UisrVm& uisr, const GuestMemoryBinding& binding,
                                 FixupLog* log) final {
    HYPERTP_RETURN_IF_ERROR(CheckUidFree(uisr.vm_uid));
    Vm vm = NewVm(uisr.vm_uid, uisr.name, uisr.memory.memory_bytes,
                  uisr.memory.uses_huge_pages);
    vm.run_state = VmRunState::kPaused;
    // from_uisr: translate the platform into the kind's native formats.
    HYPERTP_RETURN_IF_ERROR(PlatformFromUisr(vm, uisr, binding.remap_high_ioapic_pins, log));
    vm.devices = uisr.devices;

    const bool in_place = binding.mode == GuestMemoryBinding::Mode::kAdoptInPlace;
    HYPERTP_ASSIGN_OR_RETURN(VmId id,
                             Install(std::move(vm), in_place ? &binding.entries : nullptr));
    HYPERTP_LOG(kInfo, k_.tag) << "restored vm " << id << " (uid " << uisr.vm_uid
                               << ") from UISR via "
                               << (in_place ? "in-place adoption" : "fresh allocation");
    return id;
  }

  uint64_t HypervisorFrames() const final { return hv_frames_; }

  Result<std::vector<std::pair<Gfn, uint64_t>>> DumpGuestContent(VmId id) const final {
    HYPERTP_ASSIGN_OR_RETURN(const Vm* vm, FindVm(id));
    return vm->memory.DumpNonZero(machine_->memory());
  }

  Result<void> PrepareVmForTransplant(VmId id) final {
    HYPERTP_ASSIGN_OR_RETURN(Vm * vm, MutableVm(id));
    // Quiescing/unplugging changes translated device state.
    ++vm->state_generation;
    return PrepareDevicesForTransplant(vm->devices);
  }

  void DetachForMicroReboot() final {
    // The kexec jump is imminent: forget every VM and all ownership without
    // freeing a single frame — the early-boot scrubber decides what survives
    // based on the PRAM reservation, not on us.
    vms_.clear();
    ResetScheduler();
    hv_frames_ = 0;
  }

  // --- Introspection (tests, libxl-equivalent tooling) ---------------------
  Result<const Vm*> FindVm(VmId id) const {
    auto it = vms_.find(id);
    if (it == vms_.end()) {
      return NotFoundError(Prefix() + "no vm " + std::to_string(id));
    }
    return &it->second;
  }

  Result<VmId> FindVmByUid(uint64_t uid) const {
    for (const auto& [id, vm] : vms_) {
      if (vm.uid == uid) {
        return id;
      }
    }
    return NotFoundError(Prefix() + "no vm with uid " + std::to_string(uid));
  }

  // Drops and rebuilds the scheduler from the VM records: VM Management State
  // is reconstructable, never translated (§3.1).
  void RebuildScheduler() {
    ResetScheduler();
    for (const auto& [id, vm] : vms_) {
      ScheduleVcpus(vm);
    }
  }

 protected:
  // Boots the host on `machine`: claims its HV State RAM.
  HostCore(Machine& machine, const HostConstants& constants)
      : machine_(&machine),
        k_(constants),
        next_id_(constants.first_id),
        next_pid_(constants.first_pid) {
    // Allocation is chunked because after a micro-reboot free RAM is
    // fragmented around the preserved guest frames — no host needs its HV
    // State physically contiguous.
    const FrameOwner hv{FrameOwnerKind::kHypervisor, 0};
    uint64_t remaining = k_.hv_state_bytes / kPageSize;
    uint64_t chunk = k_.chunk_frames;
    while (remaining > 0 && chunk > 0) {
      const uint64_t want = std::min(remaining, chunk);
      if (machine_->memory().Alloc(want, 1, hv).ok()) {
        hv_frames_ += want;
        remaining -= want;
      } else {
        chunk /= 2;  // Fall back to smaller pieces in fragmented holes.
      }
    }
    if (remaining > 0) {
      HYPERTP_LOG(kError, k_.tag) << "boot: machine too small for the HV State";
    }
    HYPERTP_LOG(kInfo, k_.tag) << k_.name << " booted on " << machine_->hostname();
  }

  // --- What each kind contributes -------------------------------------------
  // Fills a new VM's native platform records with `vcpus` synthetic post-boot
  // vCPUs and its default timers and IOAPIC entries.
  virtual Result<void> SeedPlatform(Vm& vm, uint32_t vcpus) = 0;
  // Routes the `instance`-th device, a virtio one, to an IOAPIC pin.
  virtual void WireVirtioPin(Vm& vm, uint32_t instance) = 0;
  // from_uisr / to_uisr for the platform (vCPUs, interrupt controllers, timers).
  virtual Result<void> PlatformFromUisr(Vm& vm, const UisrVm& uisr, bool remap_high_pins,
                                        FixupLog* log) = 0;
  virtual Result<void> PlatformToUisr(const Vm& vm, UisrVm& out, FixupLog* log) const = 0;
  // What a guest event or an AdvanceGuestClocks does to the native records.
  virtual void ApplyGuestEvent(Vm& vm, GuestEventKind kind) = 0;
  virtual void AdvanceClocks(Vm& vm, SimDuration delta) = 0;
  // Scheduler membership (VM Management State).
  virtual void ScheduleVcpus(const Vm& vm) = 0;
  virtual void UnscheduleVm(const Vm& vm) = 0;
  virtual void ResetScheduler() = 0;
  // Rebuilds PV infrastructure that is never translated (Xen's event
  // channels, grants and xenstore). Runs on every create and restore.
  virtual void SetupPvInfrastructure(Vm& /*vm*/) {}
  // Allocation policy: NPT frames interleaved before each guest chunk (what
  // scatters Xen's guest memory), and the state frames allocated after guest
  // memory — by default EPT tables, ~1 frame per 2 MiB plus roots.
  virtual uint64_t InterleavedNptFrames(uint64_t /*chunk*/) const { return 0; }
  virtual uint64_t StateFrames(const Vm& vm) const { return vm.memory_bytes / kHugePageSize + 8; }

 private:
  std::string Prefix() const { return std::string(k_.tag) + ": "; }

  Result<Vm*> MutableVm(VmId id) {
    HYPERTP_ASSIGN_OR_RETURN(const Vm* vm, FindVm(id));
    return const_cast<Vm*>(vm);
  }

  Result<void> CheckUidFree(uint64_t uid) const {
    if (std::ranges::any_of(vms_, [uid](const auto& entry) { return entry.second.uid == uid; })) {
      return AlreadyExistsError(Prefix() + "uid " + std::to_string(uid) + " already hosted");
    }
    return OkResult();
  }

  // A VM record with fresh host-local identities; ids and pids are never
  // reused, even when the call that drew them fails.
  Vm NewVm(uint64_t uid, std::string name, uint64_t memory_bytes, bool huge_pages) {
    Vm vm;
    vm.id = next_id_++;
    vm.uid = uid;
    vm.name = std::move(name);
    vm.memory_bytes = memory_bytes;
    vm.huge_pages = huge_pages;
    if (k_.first_pid != 0) {
      vm.vmm_pid = next_pid_++;
    }
    return vm;
  }

  // Backs `vm` with guest memory — the in-place frames named by `adopt`, or
  // fresh frames when it is null — plus its state and VMM frames, rebuilds
  // its VM Management State and enters it in the table. A failure frees
  // exactly the extents this call allocated; adopted frames are never freed,
  // since a rollback salvages the VM from them.
  Result<VmId> Install(Vm vm, const std::vector<PramPageEntry>* adopt) {
    std::vector<std::pair<Mfn, uint64_t>> fresh;
    if (auto backed = BackVm(vm, adopt, fresh); !backed.ok()) {
      for (const auto& [mfn, frames] : fresh) {
        (void)machine_->memory().Free(mfn, frames);
      }
      return backed.error();
    }
    SetupPvInfrastructure(vm);
    ScheduleVcpus(vm);
    const VmId id = vm.id;
    vms_.emplace(id, std::move(vm));
    return id;
  }

  Result<void> BackVm(Vm& vm, const std::vector<PramPageEntry>* adopt,
                      std::vector<std::pair<Mfn, uint64_t>>& fresh) {
    auto alloc = [&](uint64_t frames, uint64_t align, FrameOwnerKind owner) -> Result<Mfn> {
      HYPERTP_ASSIGN_OR_RETURN(Mfn mfn,
                               machine_->memory().Alloc(frames, align, FrameOwner{owner, vm.uid}));
      fresh.emplace_back(mfn, frames);
      return mfn;
    };
    if (adopt != nullptr) {
      HYPERTP_RETURN_IF_ERROR(AdoptGuestMemory(vm, *adopt));
    } else {
      const uint64_t align = vm.huge_pages ? kFramesPerHugePage : 1;
      uint64_t remaining = vm.memory_bytes / kPageSize;
      Gfn gfn = 0;
      while (remaining > 0) {
        const uint64_t chunk = std::min(remaining, k_.chunk_frames);
        if (const uint64_t npt = InterleavedNptFrames(chunk); npt > 0) {
          HYPERTP_RETURN_IF_ERROR(alloc(npt, 1, FrameOwnerKind::kVmState));
          vm.state_frames += npt;
        }
        HYPERTP_ASSIGN_OR_RETURN(Mfn mfn, alloc(chunk, align, FrameOwnerKind::kGuest));
        HYPERTP_RETURN_IF_ERROR(vm.memory.MapExtent(gfn, mfn, chunk));
        gfn += chunk;
        remaining -= chunk;
      }
    }
    const uint64_t state_frames = StateFrames(vm);
    HYPERTP_RETURN_IF_ERROR(alloc(state_frames, 1, FrameOwnerKind::kVmState));
    vm.state_frames += state_frames;
    if (k_.vmm_frames > 0) {
      HYPERTP_RETURN_IF_ERROR(alloc(k_.vmm_frames, 1, FrameOwnerKind::kVmm));
    }
    return OkResult();
  }

  // Maps the in-place frames named by PRAM entries (InPlaceTP restore).
  Result<void> AdoptGuestMemory(Vm& vm, const std::vector<PramPageEntry>& entries) {
    const FrameOwner owner{FrameOwnerKind::kGuest, vm.uid};
    for (const PramPageEntry& e : entries) {
      // The frames must have survived the reboot (still allocated, still
      // owned by this VM's uid) — anything else means the PRAM reservation
      // failed.
      for (Mfn m = e.mfn; m < e.mfn + e.frame_count(); ++m) {
        HYPERTP_ASSIGN_OR_RETURN(FrameOwner actual, machine_->memory().OwnerOf(m));
        if (!(actual == owner)) {
          return DataLossError(Prefix() + "in-place frame " + std::to_string(m) +
                               " not owned by guest uid " + std::to_string(vm.uid));
        }
      }
      HYPERTP_RETURN_IF_ERROR(vm.memory.MapExtent(e.gfn, e.mfn, e.frame_count()));
    }
    if (vm.memory.mapped_frames() != vm.memory_bytes / kPageSize) {
      return DataLossError(Prefix() + "PRAM file covers " +
                           std::to_string(vm.memory.mapped_frames()) + " frames, VM declares " +
                           std::to_string(vm.memory_bytes / kPageSize));
    }
    return OkResult();
  }

  void FreeVmFrames(const Vm& vm) {
    machine_->memory().FreeAllOwnedBy(FrameOwner{FrameOwnerKind::kGuest, vm.uid});
    machine_->memory().FreeAllOwnedBy(FrameOwner{FrameOwnerKind::kVmState, vm.uid});
    if (k_.vmm_frames > 0) {
      machine_->memory().FreeAllOwnedBy(FrameOwner{FrameOwnerKind::kVmm, vm.uid});
    }
  }

  Machine* machine_;
  HostConstants k_;
  std::map<VmId, Vm> vms_;  // Keyed by host-local id.
  VmId next_id_;
  uint32_t next_pid_;
  uint64_t hv_frames_ = 0;
};

}  // namespace hypertp

#endif  // HYPERTP_SRC_HV_HOST_CORE_H_
