// Unified Intermediate State Representation (UISR) — typed records.
//
// UISR is the hypervisor-independent description of a VM's VM_i State
// (paper §3.1): everything the target hypervisor needs to re-adopt a running
// VM, minus the guest's own memory contents (Guest State, which stays in
// place or is streamed separately during migration).
//
// The record layouts follow the paper's choice (§4.2): a slightly modified,
// neutralized version of the Xen HVM representation. Table 2's mapping is
// implemented by the per-hypervisor adapters (src/{xen,kvm,bhyve}/*_uisr),
// which build on the shared translation kit in src/uisr/translate.h.

#ifndef HYPERTP_SRC_UISR_RECORDS_H_
#define HYPERTP_SRC_UISR_RECORDS_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/hw/physical_memory.h"

namespace hypertp {

inline constexpr uint32_t kUisrMagic = 0x52534955;  // "UISR" little-endian.
inline constexpr uint16_t kUisrVersion = 1;

// General-purpose registers + instruction pointer + flags.
struct UisrCpuRegs {
  // rax, rbx, rcx, rdx, rsi, rdi, rsp, rbp, r8..r15.
  std::array<uint64_t, 16> gpr{};
  uint64_t rip = 0;
  uint64_t rflags = 0x2;  // Bit 1 is architecturally always 1.

  bool operator==(const UisrCpuRegs&) const = default;
};

// A segment register in unpacked (KVM-style) attribute form; adapters that
// store packed attribute words (Xen-style) unpack into this neutral form.
struct UisrSegment {
  uint64_t base = 0;
  uint32_t limit = 0;
  uint16_t selector = 0;
  uint8_t type = 0;
  uint8_t s = 0;        // Descriptor type (system/code-data).
  uint8_t dpl = 0;      // Privilege level.
  uint8_t present = 0;
  uint8_t avl = 0;
  uint8_t l = 0;        // 64-bit code segment.
  uint8_t db = 0;       // Default operation size.
  uint8_t g = 0;        // Granularity.
  uint8_t unusable = 0;

  bool operator==(const UisrSegment&) const = default;
};

struct UisrDescriptorTable {
  uint64_t base = 0;
  uint16_t limit = 0;

  bool operator==(const UisrDescriptorTable&) const = default;
};

// System registers: segments, descriptor tables, control registers.
struct UisrSregs {
  UisrSegment cs, ds, es, fs, gs, ss, tr, ldt;
  UisrDescriptorTable gdt, idt;
  uint64_t cr0 = 0, cr2 = 0, cr3 = 0, cr4 = 0, cr8 = 0;
  uint64_t efer = 0;
  uint64_t apic_base = 0;

  bool operator==(const UisrSregs&) const = default;
};

struct UisrMsr {
  uint32_t index = 0;
  uint64_t value = 0;

  bool operator==(const UisrMsr&) const = default;
};

// x87/SSE state (FXSAVE-equivalent content).
struct UisrFpu {
  std::array<std::array<uint8_t, 16>, 8> fpr{};   // ST0..ST7, 80-bit padded.
  uint16_t fcw = 0x37F;
  uint16_t fsw = 0;
  uint8_t ftwx = 0;       // Abridged tag word.
  uint16_t last_opcode = 0;  // FOP, 11 bits architecturally.
  uint64_t last_ip = 0;
  uint64_t last_dp = 0;
  std::array<std::array<uint8_t, 16>, 16> xmm{};  // XMM0..XMM15.
  uint32_t mxcsr = 0x1F80;

  bool operator==(const UisrFpu&) const = default;
};

// Local APIC: the architectural 1 KiB register page plus the base MSR.
inline constexpr size_t kLapicRegsSize = 1024;
struct UisrLapic {
  uint64_t apic_base_msr = 0xFEE00800;  // Enabled, at the default base.
  uint64_t tsc_deadline = 0;
  std::array<uint8_t, kLapicRegsSize> regs{};

  bool operator==(const UisrLapic&) const = default;
};

// Memory type range registers.
inline constexpr size_t kMtrrFixedCount = 11;
inline constexpr size_t kMtrrVariableCount = 8;
struct UisrMtrr {
  uint64_t cap = 0x508;       // 8 variable, fixed supported, WC supported.
  uint64_t def_type = 0;
  std::array<uint64_t, kMtrrFixedCount> fixed{};
  std::array<uint64_t, kMtrrVariableCount> var_base{};
  std::array<uint64_t, kMtrrVariableCount> var_mask{};
  // PAT travels with the MTRR state in UISR. Xen keeps it in its MTRR record;
  // KVM exposes it as MSR 0x277 — the adapters translate both ways.
  uint64_t pat = 0x0007040600070406ull;

  bool operator==(const UisrMtrr&) const = default;
};

// Extended state: XCR0 plus the raw XSAVE area. Every producer in the
// repertoire emits the same standard-format area size; the decoder rejects
// any other size instead of silently truncating or padding.
inline constexpr size_t kXsaveAreaSize = 2048;
struct UisrXsave {
  uint64_t xcr0 = 1;  // x87 always enabled.
  std::vector<uint8_t> area;

  bool operator==(const UisrXsave&) const = default;
};

// One virtual CPU's full architectural state.
struct UisrVcpu {
  uint32_t id = 0;
  bool online = true;
  UisrCpuRegs regs;
  UisrSregs sregs;
  std::vector<UisrMsr> msrs;
  UisrFpu fpu;
  UisrLapic lapic;
  UisrMtrr mtrr;
  UisrXsave xsave;

  bool operator==(const UisrVcpu&) const = default;
};

// IOAPIC. UISR carries up to kUisrMaxIoapicPins pins; adapters for targets
// with fewer pins must apply (and record) a compatibility fixup (§4.2.1).
inline constexpr uint32_t kUisrMaxIoapicPins = 64;
struct UisrIoapic {
  uint32_t id = 0;
  uint64_t base_address = 0xFEC00000;
  uint32_t num_pins = 24;
  std::array<uint64_t, kUisrMaxIoapicPins> redirection{};  // Entries [0, num_pins).

  bool operator==(const UisrIoapic&) const = default;
};

// Programmable interval timer (i8254), 3 channels.
struct UisrPitChannel {
  uint32_t count = 0x10000;
  uint16_t latched_count = 0;
  uint8_t count_latched = 0;
  uint8_t status_latched = 0;
  uint8_t status = 0;
  uint8_t read_state = 0;
  uint8_t write_state = 0;
  uint8_t write_latch = 0;
  uint8_t rw_mode = 0;
  uint8_t mode = 0;
  uint8_t bcd = 0;
  uint8_t gate = 1;
  uint64_t count_load_time = 0;

  bool operator==(const UisrPitChannel&) const = default;
};
struct UisrPit {
  std::array<UisrPitChannel, 3> channels{};
  uint8_t speaker_data_on = 0;

  bool operator==(const UisrPit&) const = default;
};

// How a virtual device is attached (paper §4.2.3).
enum class DeviceAttachMode : uint8_t {
  kEmulated = 0,     // State copied and translated across the transplant.
  kPassthrough = 1,  // Device paused in guest-consistent state; not translated.
  kUnplugged = 2,    // Hot-unplugged before transplant, rescanned after.
};

std::string_view DeviceAttachModeName(DeviceAttachMode mode);

// A virtual device's serialized emulation state. `model` identifies the
// device model ("virtio-net", "virtio-blk", "uart16550", ...); `opaque` is
// the device model's own format, produced/consumed by matching models.
struct UisrDeviceState {
  std::string model;
  uint32_t instance = 0;
  DeviceAttachMode mode = DeviceAttachMode::kEmulated;
  std::vector<uint8_t> opaque;

  bool operator==(const UisrDeviceState&) const = default;
};

// Where the VM's guest memory lives across the transplant.
struct UisrMemoryInfo {
  uint64_t memory_bytes = 0;
  // InPlaceTP: PRAM file id describing the in-place guest frames; 0 when the
  // memory travels out-of-band (MigrationTP pre-copy stream).
  uint64_t pram_file_id = 0;
  bool uses_huge_pages = false;

  bool operator==(const UisrMemoryInfo&) const = default;
};

// The complete UISR description of one VM.
struct UisrVm {
  uint64_t vm_uid = 0;       // Stable across hypervisors.
  std::string name;
  std::string source_hypervisor;  // Informational: who produced this UISR.
  UisrMemoryInfo memory;
  std::vector<UisrVcpu> vcpus;
  UisrIoapic ioapic;
  UisrPit pit;
  std::vector<UisrDeviceState> devices;

  bool operator==(const UisrVm&) const = default;
};

// Returns a fully-populated vCPU in a post-boot-ish state, with
// deterministic contents derived from (vm_uid, vcpu_id). Used by the
// hypervisors to seed freshly created VMs and by tests as a golden record.
UisrVcpu MakeSyntheticVcpu(uint64_t vm_uid, uint32_t vcpu_id);

}  // namespace hypertp

#endif  // HYPERTP_SRC_UISR_RECORDS_H_
