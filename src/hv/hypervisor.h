// Hypervisor-neutral interfaces.
//
// The three simulated hypervisors (XenVisor, type-I; KVMish and bhyvish,
// type-II) implement the Hypervisor interface on top of one shared host core
// (src/hv/host_core.h). The HyperTP core (src/core/) drives transplants
// exclusively through this interface plus the UISR save/restore entry points,
// which each hypervisor implements against its own internal state formats —
// matching the paper's design where to_uisr_xxx/from_uisr_xxx are written by
// an expert of each hypervisor (§3.1).

#ifndef HYPERTP_SRC_HV_HYPERVISOR_H_
#define HYPERTP_SRC_HV_HYPERVISOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/result.h"
#include "src/hw/machine.h"
#include "src/hw/physical_memory.h"
#include "src/pram/pram.h"
#include "src/uisr/records.h"
#include "src/uisr/translate.h"

namespace hypertp {

// Which hypervisor implementation. A datacenter's hypervisor "repertoire"
// (paper §3.1) is a set of these.
enum class HypervisorKind : uint8_t { kXen = 0, kKvm = 1, kBhyve = 2 };
// Architectural class: type-I boots on bare metal (hypervisor + dom0 kernel),
// type-II is a module of a host OS kernel.
enum class HypervisorType : uint8_t { kType1 = 1, kType2 = 2 };

std::string_view HypervisorKindName(HypervisorKind kind);

using VmId = uint64_t;

// Datacenter-unique VM identity allocator (shared by all hypervisors); a VM
// keeps its uid across transplants and migrations.
uint64_t AllocateVmUid();

// Traits the migration engine needs about a hypervisor's receive path.
// Xen restores incoming VMs sequentially on the destination and its resume
// path (xl/libxl) is heavier than kvmtool's — the source of Table 4's
// 133.59 ms vs 4.96 ms downtime gap.
struct MigrationTraits {
  int receive_concurrency = 1;
  SimDuration resume_fixed = 0;
  SimDuration resume_per_vcpu = 0;
};

enum class VmRunState : uint8_t { kRunning, kPaused };

struct DeviceConfig {
  std::string model;  // "virtio-net", "virtio-blk", "uart16550", "nvme-pt".
  DeviceAttachMode mode = DeviceAttachMode::kEmulated;
};

struct VmConfig {
  std::string name;
  uint32_t vcpus = 1;
  uint64_t memory_bytes = 1ull << 30;
  bool huge_pages = true;  // The paper configures 2 MB huge pages (§5.1).
  std::vector<DeviceConfig> devices;
  uint64_t uid = 0;  // 0 = assign a fresh datacenter-unique id.

  // The typical cloud VM the paper's basic evaluations use (1 vCPU, 1 GB).
  static VmConfig Small(std::string name);
};

// Validates a VmConfig against common rules (name, vCPU bound, page-aligned
// memory, huge-page multiple, known device models). Every hypervisor calls
// this from CreateVm with its own vCPU ceiling.
Result<void> ValidateVmConfig(const VmConfig& config, uint32_t max_vcpus);

struct VmInfo {
  VmId id = 0;
  uint64_t uid = 0;
  std::string name;
  uint32_t vcpus = 0;
  uint64_t memory_bytes = 0;
  bool huge_pages = false;
  // Pass-through devices pin a VM to its hardware: InPlaceTP works (the
  // device stays put), live migration does not (paper §4.2.3).
  bool has_passthrough = false;
  VmRunState run_state = VmRunState::kRunning;
};

// How RestoreVmFromUisr obtains guest memory.
struct GuestMemoryBinding {
  enum class Mode : uint8_t {
    // InPlaceTP: adopt the existing in-place frames named by `entries`
    // (from the PRAM file). No guest page is copied or moved.
    kAdoptInPlace,
    // MigrationTP receiver: allocate fresh frames; page contents arrive
    // through WriteGuestPage as the pre-copy stream is applied.
    kAllocate,
  };
  Mode mode = Mode::kAllocate;
  std::vector<PramPageEntry> entries;  // Only for kAdoptInPlace.

  // Compatibility strategy for restore-side topology differences (§4.2.1's
  // future work): when true, active IOAPIC pins the target cannot host are
  // remapped onto free low pins and the guest is informed of the new GSI
  // assignment, instead of being disconnected.
  bool remap_high_ioapic_pins = false;
};

// Common interface of the simulated hypervisors.
class Hypervisor {
 public:
  virtual ~Hypervisor() = default;

  virtual std::string_view name() const = 0;  // e.g. "xenvisor-4.12".
  virtual HypervisorKind kind() const = 0;
  virtual HypervisorType type() const = 0;
  virtual Machine& machine() = 0;
  virtual const Machine& machine() const = 0;

  // --- VM lifecycle -------------------------------------------------------
  virtual Result<VmId> CreateVm(const VmConfig& config) = 0;
  virtual Result<void> DestroyVm(VmId id) = 0;
  virtual Result<void> PauseVm(VmId id) = 0;
  virtual Result<void> ResumeVm(VmId id) = 0;
  virtual Result<VmInfo> GetVmInfo(VmId id) const = 0;
  virtual std::vector<VmId> ListVms() const = 0;

  // --- Guest memory -------------------------------------------------------
  // The VM's guest-physical -> machine mapping, sorted by gfn.
  virtual Result<std::vector<GuestMapping>> GuestMemoryMap(VmId id) const = 0;
  // Reads/writes the content word standing for one guest page.
  virtual Result<uint64_t> ReadGuestPage(VmId id, Gfn gfn) const = 0;
  virtual Result<void> WriteGuestPage(VmId id, Gfn gfn, uint64_t content) = 0;

  // --- Dirty logging (live migration support) ------------------------------
  virtual Result<void> EnableDirtyLogging(VmId id) = 0;
  // Returns the pages dirtied since the previous call and clears the log.
  virtual Result<std::vector<Gfn>> FetchAndClearDirtyLog(VmId id) = 0;
  virtual Result<void> DisableDirtyLogging(VmId id) = 0;

  // Advances each vCPU's TSC (and TSC-deadline timer) by `delta` nanoseconds
  // (virtual 1 GHz TSC: one tick per nanosecond), so guest clocks never run
  // backwards across a transplant's pause. Real hypervisors apply an
  // equivalent TSC_OFFSET adjustment when resuming a restored VM.
  virtual Result<void> AdvanceGuestClocks(VmId id, SimDuration delta) = 0;

  // --- State generations (speculative pre-translation support) -------------
  // Monotonic counter that bumps whenever vCPU-visible platform state may
  // have changed: guest page writes, clock advances, injected guest events,
  // transplant preparation. Pausing, resuming and SaveVmToUisr do NOT bump
  // it — a translation taken under a brief pause stays valid until the guest
  // actually runs again. The pre-translation cache (src/pipeline/) keys
  // speculative Extract→UisrEncode results on this counter, the platform-
  // state analogue of the dirty-page log above.
  virtual Result<uint64_t> StateGeneration(VmId id) const = 0;

  // A vCPU-visible event a running guest experiences; used by benches and
  // tests to dirty a VM's platform state between pre-translation and pause.
  enum class GuestEventKind : uint8_t {
    kTimerTick = 0,     // Local APIC timer fires; TSC/deadline move.
    kEventChannel = 1,  // Interrupt-controller activity (event channel/IRQ).
    kWorkloadStep = 2,  // The guest executes a slice of its workload.
  };
  virtual Result<void> InjectGuestEvent(VmId id, GuestEventKind kind) = 0;

  // --- HyperTP entry points (§3.1 steps 2 and 4) ---------------------------
  // Translates the VM's VM_i State from the hypervisor's native formats into
  // UISR. The VM must be paused. Appends any compatibility fixups to `log`.
  virtual Result<UisrVm> SaveVmToUisr(VmId id, FixupLog* log) = 0;
  // Creates a VM from a UISR description, translating into native formats.
  // The new VM starts paused; ResumeVm completes step (5).
  virtual Result<VmId> RestoreVmFromUisr(const UisrVm& uisr, const GuestMemoryBinding& binding,
                                         FixupLog* log) = 0;

  // --- Introspection used by invariants & stats ----------------------------
  // Frames of RAM this hypervisor consumes for its own state (HV State).
  virtual uint64_t HypervisorFrames() const = 0;

  // Receive-path characteristics for the migration engine.
  virtual MigrationTraits migration_traits() const = 0;

  // All guest pages of `id` with non-zero content, as (gfn, word) pairs.
  // Used by the migration engine's pre-copy transfer and by invariant checks.
  virtual Result<std::vector<std::pair<Gfn, uint64_t>>> DumpGuestContent(VmId id) const = 0;

  // Guest-cooperative device preparation before a transplant/migration
  // (paper §4.2.3): quiesce emulated block queues, pause pass-through
  // devices, hot-unplug unplug-mode NICs.
  virtual Result<void> PrepareVmForTransplant(VmId id) = 0;

  // Releases this hypervisor's claim on the machine WITHOUT freeing any
  // frame: the kexec jump is about to replace the kernel and the scrubber
  // will reclaim everything not covered by the PRAM reservation. After this
  // call the object only supports destruction.
  virtual void DetachForMicroReboot() = 0;
};

}  // namespace hypertp

#endif  // HYPERTP_SRC_HV_HYPERVISOR_H_
