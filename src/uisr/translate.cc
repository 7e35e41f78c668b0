#include "src/uisr/translate.h"

#include <cstdio>

#include "src/base/json.h"

namespace hypertp {

void FixupLogToJson(JsonWriter& j, const FixupLog& fixups) {
  j.Key("fixups").BeginArray();
  for (const StateFixup& fixup : fixups) {
    j.BeginObject();
    j.Key("vm_uid").Number(fixup.vm_uid);
    j.Key("component").String(fixup.component);
    j.Key("description").String(fixup.description);
    j.EndObject();
  }
  j.EndArray();
}

// Gathering in table order must yield UISR's canonical, index-sorted list.
static_assert(std::ranges::is_sorted(kFixedSlotMsrs));

std::vector<UisrMsr> GatherFixedSlotMsrs(const MsrSlots<const uint64_t>& slots) {
  std::vector<UisrMsr> msrs;
  msrs.reserve(kFixedSlotMsrs.size());
  for (size_t i = 0; i < kFixedSlotMsrs.size(); ++i) {
    msrs.push_back({kFixedSlotMsrs[i], *slots[i]});
  }
  return msrs;
}

void ScatterFixedSlotMsrs(const UisrVcpu& vcpu, const MsrSlots<uint64_t>& slots,
                          std::string_view slot_owner, uint64_t vm_uid, FixupLog* log) {
  constexpr size_t kEferSlot = 5;
  static_assert(kFixedSlotMsrs[kEferSlot] == kMsrEfer);
  *slots[kEferSlot] = vcpu.sregs.efer;
  for (const UisrMsr& m : vcpu.msrs) {
    const auto* slot = std::find(kFixedSlotMsrs.begin(), kFixedSlotMsrs.end(), m.index);
    if (slot == kFixedSlotMsrs.end()) {
      if (log != nullptr) {
        char buf[80];
        std::snprintf(buf, sizeof(buf), "MSR 0x%X has no %.*s slot; dropped", m.index,
                      static_cast<int>(slot_owner.size()), slot_owner.data());
        log->push_back({vm_uid, "cpu", buf});
      }
    } else if (m.index == kMsrEfer) {
      if (m.value != vcpu.sregs.efer && log != nullptr) {
        log->push_back({vm_uid, "cpu", "EFER MSR disagrees with sregs.efer; using sregs"});
      }
    } else {
      *slots[slot - kFixedSlotMsrs.begin()] = m.value;
    }
  }
}

void FoldIoapicPins(const UisrVm& vm, std::span<uint64_t> redirtbl, std::string_view kind,
                    bool remap_high_pins, FixupLog* log) {
  const auto width = static_cast<uint32_t>(redirtbl.size());
  std::fill(redirtbl.begin(), redirtbl.end(), 0);
  std::copy_n(vm.ioapic.redirection.begin(), std::min(vm.ioapic.num_pins, width),
              redirtbl.begin());
  for (uint32_t pin = width; pin < vm.ioapic.num_pins; ++pin) {
    const uint64_t entry = vm.ioapic.redirection[pin];
    if (entry == 0) {
      continue;
    }
    char buf[96];
    // Pins 0-15 carry legacy ISA identity mappings; renegotiate into 16+.
    auto free_pin = redirtbl.end();
    if (remap_high_pins && width > 16) {
      free_pin = std::find(redirtbl.begin() + 16, redirtbl.end(), 0);
    }
    if (free_pin != redirtbl.end()) {
      *free_pin = entry;
      std::snprintf(buf, sizeof(buf),
                    "IOAPIC pin %u remapped to pin %u; guest notified of GSI change", pin,
                    static_cast<uint32_t>(free_pin - redirtbl.begin()));
    } else {
      std::snprintf(buf, sizeof(buf),
                    "IOAPIC pin %u active on source; disconnected (%.*s has %u pins)", pin,
                    static_cast<int>(kind.size()), kind.data(), width);
    }
    if (log != nullptr) {
      log->push_back({vm.vm_uid, "ioapic", buf});
    }
  }
}

bool SyncTprFromCr8(uint64_t cr8, std::array<uint8_t, kLapicRegsSize>& regs) {
  const auto tpr = static_cast<uint8_t>((cr8 & 0xF) << 4);
  const bool disagreed = regs[kLapicTprOffset] != tpr;
  regs[kLapicTprOffset] = tpr;
  return disagreed;
}

}  // namespace hypertp
