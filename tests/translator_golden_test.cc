// Golden cross-kind translation: one test VM travels source -> UISR ->
// target for all six ordered pairs of {Xen, KVMish, bhyvish}. The VM carries
// bhyve-style IOAPIC pins 24-31, a live PIT and one MSR that no fixed-slot
// record can hold, so every lossy rule of every target fires somewhere in the
// matrix. Each pair pins the target's FixupLog text and the size and CRC32 of
// the UISR re-extracted from the target, so a refactor of the translators
// cannot move a fixup or a byte unnoticed.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>

#include "src/base/crc32.h"
#include "src/core/factory.h"
#include "src/uisr/codec.h"

namespace hypertp {
namespace {

constexpr uint64_t kUid = 4100;
constexpr uint32_t kSlotlessMsr = 0xC0000103;  // TSC_AUX: no fixed slot on any kind.

UisrVm GoldenVm() {
  UisrVm vm;
  vm.vm_uid = kUid;
  vm.name = "golden-translate";
  vm.memory.memory_bytes = 64ull << 20;
  for (uint32_t i = 0; i < 2; ++i) {
    UisrVcpu v = MakeSyntheticVcpu(kUid, i);
    v.msrs.push_back({kSlotlessMsr, 0x70 + i});
    std::sort(v.msrs.begin(), v.msrs.end(),
              [](const UisrMsr& a, const UisrMsr& b) { return a.index < b.index; });
    vm.vcpus.push_back(std::move(v));
  }
  vm.ioapic.num_pins = 32;
  vm.ioapic.redirection[4] = 0x10004;
  for (uint32_t pin = 24; pin < 32; ++pin) {
    vm.ioapic.redirection[pin] = 0x20000 + pin;
  }
  vm.pit.channels[0].count = 0x4A9;
  vm.pit.channels[0].mode = 2;
  vm.pit.channels[0].rw_mode = 3;
  vm.pit.channels[0].count_load_time = 123456789;
  vm.pit.channels[2].mode = 3;
  vm.pit.speaker_data_on = 1;
  return vm;
}

struct GoldenCase {
  const char* name;
  HypervisorKind source;
  HypervisorKind target;
  const char* target_log;  // "component: description" lines.
  size_t uisr_size;
  uint32_t uisr_crc;
};

std::string LogText(const FixupLog& log) {
  std::string text;
  for (const StateFixup& fixup : log) {
    text += fixup.component + ": " + fixup.description + "\n";
  }
  return text;
}

class TranslatorGoldenTest : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(TranslatorGoldenTest, TargetFixupsAndReextractedUisrArePinned) {
  const GoldenCase& c = GetParam();
  Machine source_machine(MachineProfile::M1(), 1);
  Machine target_machine(MachineProfile::M1(), 2);
  std::unique_ptr<Hypervisor> source = MakeHypervisor(c.source, source_machine);
  std::unique_ptr<Hypervisor> target = MakeHypervisor(c.target, target_machine);

  FixupLog source_log;
  auto source_id = source->RestoreVmFromUisr(GoldenVm(), GuestMemoryBinding{}, &source_log);
  ASSERT_TRUE(source_id.ok()) << source_id.error().ToString();
  auto uisr = source->SaveVmToUisr(*source_id, &source_log);
  ASSERT_TRUE(uisr.ok()) << uisr.error().ToString();

  FixupLog target_log;
  auto target_id = target->RestoreVmFromUisr(*uisr, GuestMemoryBinding{}, &target_log);
  ASSERT_TRUE(target_id.ok()) << target_id.error().ToString();
  FixupLog reextract_log;
  auto back = target->SaveVmToUisr(*target_id, &reextract_log);
  ASSERT_TRUE(back.ok()) << back.error().ToString();
  const std::vector<uint8_t> blob = EncodeUisrVm(*back);

  EXPECT_EQ(LogText(target_log), c.target_log);
  EXPECT_EQ(blob.size(), c.uisr_size);
  EXPECT_EQ(Crc32(blob), c.uisr_crc) << std::hex << "0x" << Crc32(blob);
}

// clang-format off
#define KVM_DISCONNECTS_24_TO_31 \
  "ioapic: IOAPIC pin 24 active on source; disconnected (KVM has 24 pins)\n" \
  "ioapic: IOAPIC pin 25 active on source; disconnected (KVM has 24 pins)\n" \
  "ioapic: IOAPIC pin 26 active on source; disconnected (KVM has 24 pins)\n" \
  "ioapic: IOAPIC pin 27 active on source; disconnected (KVM has 24 pins)\n" \
  "ioapic: IOAPIC pin 28 active on source; disconnected (KVM has 24 pins)\n" \
  "ioapic: IOAPIC pin 29 active on source; disconnected (KVM has 24 pins)\n" \
  "ioapic: IOAPIC pin 30 active on source; disconnected (KVM has 24 pins)\n" \
  "ioapic: IOAPIC pin 31 active on source; disconnected (KVM has 24 pins)\n"
#define BHYVE_DROPS_PIT \
  "pit: PIT state dropped: bhyve has no i8254 model; guest timekeeping falls back to the HPET\n"

const GoldenCase kCases[] = {
    {"xen_to_kvm", HypervisorKind::kXen, HypervisorKind::kKvm, KVM_DISCONNECTS_24_TO_31,
     9040, 0x9190c999},
    {"xen_to_bhyve", HypervisorKind::kXen, HypervisorKind::kBhyve, BHYVE_DROPS_PIT,
     9098, 0xa907981c},
    {"kvm_to_xen", HypervisorKind::kKvm, HypervisorKind::kXen,
     "cpu: MSR 0xC0000103 has no Xen HVM slot; dropped\n"
     "cpu: MSR 0xC0000103 has no Xen HVM slot; dropped\n",
     9227, 0xf702085a},
    {"kvm_to_bhyve", HypervisorKind::kKvm, HypervisorKind::kBhyve,
     "cpu: MSR 0xC0000103 has no bhyve slot; dropped\n"
     "cpu: MSR 0xC0000103 has no bhyve slot; dropped\n" BHYVE_DROPS_PIT,
     9098, 0x3b5acf7f},
    {"bhyve_to_xen", HypervisorKind::kBhyve, HypervisorKind::kXen, "", 9227, 0xead626d9},
    {"bhyve_to_kvm", HypervisorKind::kBhyve, HypervisorKind::kKvm, KVM_DISCONNECTS_24_TO_31,
     9040, 0x893ec10c},
};
#undef KVM_DISCONNECTS_24_TO_31
#undef BHYVE_DROPS_PIT
// clang-format on

INSTANTIATE_TEST_SUITE_P(AllPairs, TranslatorGoldenTest, ::testing::ValuesIn(kCases),
                         [](const ::testing::TestParamInfo<GoldenCase>& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
}  // namespace hypertp
