#include "src/uisr/codec.h"

#include "src/base/bytes.h"
#include "src/base/crc32.h"

namespace hypertp {
namespace {

// The encode helpers are templated on the writer type so the same code path
// serves ByteWriter (real output) and ByteCounter (exact size pre-pass).
template <typename W>
void EncodeSegment(W& w, const UisrSegment& s) {
  w.PutU64(s.base);
  w.PutU32(s.limit);
  w.PutU16(s.selector);
  w.PutU8(s.type);
  w.PutU8(s.s);
  w.PutU8(s.dpl);
  w.PutU8(s.present);
  w.PutU8(s.avl);
  w.PutU8(s.l);
  w.PutU8(s.db);
  w.PutU8(s.g);
  w.PutU8(s.unusable);
}

Result<UisrSegment> DecodeSegment(ByteReader& r) {
  UisrSegment s;
  HYPERTP_ASSIGN_OR_RETURN(s.base, r.ReadU64());
  HYPERTP_ASSIGN_OR_RETURN(s.limit, r.ReadU32());
  HYPERTP_ASSIGN_OR_RETURN(s.selector, r.ReadU16());
  HYPERTP_ASSIGN_OR_RETURN(s.type, r.ReadU8());
  HYPERTP_ASSIGN_OR_RETURN(s.s, r.ReadU8());
  HYPERTP_ASSIGN_OR_RETURN(s.dpl, r.ReadU8());
  HYPERTP_ASSIGN_OR_RETURN(s.present, r.ReadU8());
  HYPERTP_ASSIGN_OR_RETURN(s.avl, r.ReadU8());
  HYPERTP_ASSIGN_OR_RETURN(s.l, r.ReadU8());
  HYPERTP_ASSIGN_OR_RETURN(s.db, r.ReadU8());
  HYPERTP_ASSIGN_OR_RETURN(s.g, r.ReadU8());
  HYPERTP_ASSIGN_OR_RETURN(s.unusable, r.ReadU8());
  return s;
}

template <typename W>
void EncodeVcpu(W& w, const UisrVcpu& v) {
  w.PutU32(v.id);
  w.PutU8(v.online ? 1 : 0);
  for (uint64_t g : v.regs.gpr) {
    w.PutU64(g);
  }
  w.PutU64(v.regs.rip);
  w.PutU64(v.regs.rflags);

  for (const UisrSegment* s : {&v.sregs.cs, &v.sregs.ds, &v.sregs.es, &v.sregs.fs, &v.sregs.gs,
                               &v.sregs.ss, &v.sregs.tr, &v.sregs.ldt}) {
    EncodeSegment(w, *s);
  }
  w.PutU64(v.sregs.gdt.base);
  w.PutU16(v.sregs.gdt.limit);
  w.PutU64(v.sregs.idt.base);
  w.PutU16(v.sregs.idt.limit);
  w.PutU64(v.sregs.cr0);
  w.PutU64(v.sregs.cr2);
  w.PutU64(v.sregs.cr3);
  w.PutU64(v.sregs.cr4);
  w.PutU64(v.sregs.cr8);
  w.PutU64(v.sregs.efer);
  w.PutU64(v.sregs.apic_base);

  w.PutU32(static_cast<uint32_t>(v.msrs.size()));
  for (const UisrMsr& m : v.msrs) {
    w.PutU32(m.index);
    w.PutU64(m.value);
  }

  for (const auto& fpr : v.fpu.fpr) {
    w.PutBytes(fpr);
  }
  w.PutU16(v.fpu.fcw);
  w.PutU16(v.fpu.fsw);
  w.PutU8(v.fpu.ftwx);
  w.PutU16(v.fpu.last_opcode);
  w.PutU64(v.fpu.last_ip);
  w.PutU64(v.fpu.last_dp);
  for (const auto& xmm : v.fpu.xmm) {
    w.PutBytes(xmm);
  }
  w.PutU32(v.fpu.mxcsr);

  w.PutU64(v.lapic.apic_base_msr);
  w.PutU64(v.lapic.tsc_deadline);
  w.PutBytes(v.lapic.regs);

  w.PutU64(v.mtrr.cap);
  w.PutU64(v.mtrr.def_type);
  for (uint64_t f : v.mtrr.fixed) {
    w.PutU64(f);
  }
  for (size_t i = 0; i < kMtrrVariableCount; ++i) {
    w.PutU64(v.mtrr.var_base[i]);
    w.PutU64(v.mtrr.var_mask[i]);
  }
  w.PutU64(v.mtrr.pat);

  w.PutU64(v.xsave.xcr0);
  w.PutLengthPrefixed(v.xsave.area);
}

Result<UisrVcpu> DecodeVcpu(ByteReader& r) {
  UisrVcpu v;
  HYPERTP_ASSIGN_OR_RETURN(v.id, r.ReadU32());
  HYPERTP_ASSIGN_OR_RETURN(uint8_t online, r.ReadU8());
  v.online = online != 0;
  for (auto& g : v.regs.gpr) {
    HYPERTP_ASSIGN_OR_RETURN(g, r.ReadU64());
  }
  HYPERTP_ASSIGN_OR_RETURN(v.regs.rip, r.ReadU64());
  HYPERTP_ASSIGN_OR_RETURN(v.regs.rflags, r.ReadU64());

  for (UisrSegment* s : {&v.sregs.cs, &v.sregs.ds, &v.sregs.es, &v.sregs.fs, &v.sregs.gs,
                         &v.sregs.ss, &v.sregs.tr, &v.sregs.ldt}) {
    HYPERTP_ASSIGN_OR_RETURN(*s, DecodeSegment(r));
  }
  HYPERTP_ASSIGN_OR_RETURN(v.sregs.gdt.base, r.ReadU64());
  HYPERTP_ASSIGN_OR_RETURN(v.sregs.gdt.limit, r.ReadU16());
  HYPERTP_ASSIGN_OR_RETURN(v.sregs.idt.base, r.ReadU64());
  HYPERTP_ASSIGN_OR_RETURN(v.sregs.idt.limit, r.ReadU16());
  HYPERTP_ASSIGN_OR_RETURN(v.sregs.cr0, r.ReadU64());
  HYPERTP_ASSIGN_OR_RETURN(v.sregs.cr2, r.ReadU64());
  HYPERTP_ASSIGN_OR_RETURN(v.sregs.cr3, r.ReadU64());
  HYPERTP_ASSIGN_OR_RETURN(v.sregs.cr4, r.ReadU64());
  HYPERTP_ASSIGN_OR_RETURN(v.sregs.cr8, r.ReadU64());
  HYPERTP_ASSIGN_OR_RETURN(v.sregs.efer, r.ReadU64());
  HYPERTP_ASSIGN_OR_RETURN(v.sregs.apic_base, r.ReadU64());

  HYPERTP_ASSIGN_OR_RETURN(uint32_t msr_count, r.ReadU32());
  if (msr_count > 4096) {
    return DataLossError("uisr: implausible MSR count " + std::to_string(msr_count));
  }
  v.msrs.resize(msr_count);
  for (auto& m : v.msrs) {
    HYPERTP_ASSIGN_OR_RETURN(m.index, r.ReadU32());
    HYPERTP_ASSIGN_OR_RETURN(m.value, r.ReadU64());
  }

  for (auto& fpr : v.fpu.fpr) {
    HYPERTP_ASSIGN_OR_RETURN(auto bytes, r.ReadBytes(fpr.size()));
    std::copy(bytes.begin(), bytes.end(), fpr.begin());
  }
  HYPERTP_ASSIGN_OR_RETURN(v.fpu.fcw, r.ReadU16());
  HYPERTP_ASSIGN_OR_RETURN(v.fpu.fsw, r.ReadU16());
  HYPERTP_ASSIGN_OR_RETURN(v.fpu.ftwx, r.ReadU8());
  HYPERTP_ASSIGN_OR_RETURN(v.fpu.last_opcode, r.ReadU16());
  HYPERTP_ASSIGN_OR_RETURN(v.fpu.last_ip, r.ReadU64());
  HYPERTP_ASSIGN_OR_RETURN(v.fpu.last_dp, r.ReadU64());
  for (auto& xmm : v.fpu.xmm) {
    HYPERTP_ASSIGN_OR_RETURN(auto bytes, r.ReadBytes(xmm.size()));
    std::copy(bytes.begin(), bytes.end(), xmm.begin());
  }
  HYPERTP_ASSIGN_OR_RETURN(v.fpu.mxcsr, r.ReadU32());

  HYPERTP_ASSIGN_OR_RETURN(v.lapic.apic_base_msr, r.ReadU64());
  HYPERTP_ASSIGN_OR_RETURN(v.lapic.tsc_deadline, r.ReadU64());
  {
    HYPERTP_ASSIGN_OR_RETURN(auto bytes, r.ReadBytes(kLapicRegsSize));
    std::copy(bytes.begin(), bytes.end(), v.lapic.regs.begin());
  }

  HYPERTP_ASSIGN_OR_RETURN(v.mtrr.cap, r.ReadU64());
  HYPERTP_ASSIGN_OR_RETURN(v.mtrr.def_type, r.ReadU64());
  for (auto& f : v.mtrr.fixed) {
    HYPERTP_ASSIGN_OR_RETURN(f, r.ReadU64());
  }
  for (size_t i = 0; i < kMtrrVariableCount; ++i) {
    HYPERTP_ASSIGN_OR_RETURN(v.mtrr.var_base[i], r.ReadU64());
    HYPERTP_ASSIGN_OR_RETURN(v.mtrr.var_mask[i], r.ReadU64());
  }
  HYPERTP_ASSIGN_OR_RETURN(v.mtrr.pat, r.ReadU64());

  HYPERTP_ASSIGN_OR_RETURN(v.xsave.xcr0, r.ReadU64());
  HYPERTP_ASSIGN_OR_RETURN(v.xsave.area, r.ReadLengthPrefixed());
  if (v.xsave.area.size() != kXsaveAreaSize) {
    return DataLossError("uisr: xsave area is " + std::to_string(v.xsave.area.size()) +
                         " bytes, expected " + std::to_string(kXsaveAreaSize));
  }
  return v;
}

template <typename W>
void EncodeVmHeader(W& w, const UisrVm& vm) {
  w.PutU64(vm.vm_uid);
  w.PutString(vm.name);
  w.PutString(vm.source_hypervisor);
  w.PutU64(vm.memory.memory_bytes);
  w.PutU64(vm.memory.pram_file_id);
  w.PutU8(vm.memory.uses_huge_pages ? 1 : 0);
  w.PutU32(static_cast<uint32_t>(vm.vcpus.size()));
}

template <typename W>
void EncodeIoapic(W& w, const UisrIoapic& io) {
  w.PutU32(io.id);
  w.PutU64(io.base_address);
  w.PutU32(io.num_pins);
  for (uint32_t i = 0; i < io.num_pins; ++i) {
    w.PutU64(io.redirection[i]);
  }
}

template <typename W>
void EncodePit(W& w, const UisrPit& pit) {
  for (const UisrPitChannel& c : pit.channels) {
    w.PutU32(c.count);
    w.PutU16(c.latched_count);
    w.PutU8(c.count_latched);
    w.PutU8(c.status_latched);
    w.PutU8(c.status);
    w.PutU8(c.read_state);
    w.PutU8(c.write_state);
    w.PutU8(c.write_latch);
    w.PutU8(c.rw_mode);
    w.PutU8(c.mode);
    w.PutU8(c.bcd);
    w.PutU8(c.gate);
    w.PutU64(c.count_load_time);
  }
  w.PutU8(pit.speaker_data_on);
}

template <typename W>
void EncodeDevice(W& w, const UisrDeviceState& dev) {
  w.PutString(dev.model);
  w.PutU32(dev.instance);
  w.PutU8(static_cast<uint8_t>(dev.mode));
  w.PutLengthPrefixed(dev.opaque);
}

// Appends one TLV section whose payload is produced by `fill`, recording its
// offsets in `layout` when one is supplied.
template <typename W, typename Fill>
void AppendSection(W& w, UisrSectionType type, UisrSectionLayout* layout, Fill&& fill) {
  const size_t header_at = w.size();
  w.PutU16(static_cast<uint16_t>(type));
  const size_t len_at = w.size();
  w.PutU32(0);  // Patched below.
  const size_t payload_start = w.size();
  fill(w);
  w.PatchU32(len_at, static_cast<uint32_t>(w.size() - payload_start));
  if (layout != nullptr) {
    layout->sections.push_back({type, header_at, payload_start, w.size() - payload_start});
  }
}

// Everything up to (not including) the kEnd/CRC trailer.
template <typename W>
void EncodeUisrBody(W& w, const UisrVm& vm, UisrSectionLayout* layout) {
  w.PutU32(kUisrMagic);
  w.PutU16(kUisrVersion);
  w.PutU16(0);  // Flags.

  AppendSection(w, UisrSectionType::kVmHeader, layout,
                [&vm](auto& out) { EncodeVmHeader(out, vm); });
  for (const UisrVcpu& v : vm.vcpus) {
    AppendSection(w, UisrSectionType::kVcpu, layout, [&v](auto& out) { EncodeVcpu(out, v); });
  }
  AppendSection(w, UisrSectionType::kIoapic, layout,
                [&vm](auto& out) { EncodeIoapic(out, vm.ioapic); });
  AppendSection(w, UisrSectionType::kPit, layout, [&vm](auto& out) { EncodePit(out, vm.pit); });
  for (const UisrDeviceState& dev : vm.devices) {
    AppendSection(w, UisrSectionType::kDevice, layout,
                  [&dev](auto& out) { EncodeDevice(out, dev); });
  }
}

// u16 type + u32 length + u32 CRC.
constexpr size_t kEndTrailerBytes = 10;

}  // namespace

size_t EncodedUisrSize(const UisrVm& vm) {
  ByteCounter counter;
  EncodeUisrBody(counter, vm, nullptr);
  return counter.size() + kEndTrailerBytes;
}

template <typename Writer>
void EncodeUisrVm(const UisrVm& vm, Writer& w) {
  const size_t start = w.size();
  w.Reserve(start + EncodedUisrSize(vm));
  EncodeUisrBody(w, vm, nullptr);
  // CRC trailer over this VM's bytes only, so the blob decodes identically
  // whether it stands alone or sits embedded in a larger stream.
  const uint32_t crc = Crc32(w.Written(start));
  w.PutU16(static_cast<uint16_t>(UisrSectionType::kEnd));
  w.PutU32(4);
  w.PutU32(crc);
}

template void EncodeUisrVm<ByteWriter>(const UisrVm& vm, ByteWriter& w);
template void EncodeUisrVm<SpanWriter>(const UisrVm& vm, SpanWriter& w);

std::vector<uint8_t> EncodeUisrVm(const UisrVm& vm) {
  ByteWriter w;
  EncodeUisrVm(vm, w);
  return w.TakeBytes();
}

std::vector<uint8_t> EncodeUisrVm(const UisrVm& vm, UisrSectionLayout* layout) {
  layout->sections.clear();
  ByteWriter w;
  w.Reserve(EncodedUisrSize(vm));
  EncodeUisrBody(w, vm, layout);
  const uint32_t crc = Crc32(std::span<const uint8_t>(w.bytes()));
  w.PutU16(static_cast<uint16_t>(UisrSectionType::kEnd));
  w.PutU32(4);
  w.PutU32(crc);
  layout->total_size = w.size();
  return w.TakeBytes();
}

Result<UisrVm> DecodeUisrVm(std::span<const uint8_t> data) {
  ByteReader r(data);
  HYPERTP_ASSIGN_OR_RETURN(uint32_t magic, r.ReadU32());
  if (magic != kUisrMagic) {
    return DataLossError("uisr: bad magic");
  }
  HYPERTP_ASSIGN_OR_RETURN(uint16_t version, r.ReadU16());
  if (version > kUisrVersion) {
    return UnimplementedError("uisr: version " + std::to_string(version) + " not supported");
  }
  HYPERTP_RETURN_IF_ERROR(r.Skip(2));  // Flags.

  UisrVm vm;
  uint32_t declared_vcpus = 0;
  bool saw_header = false;
  bool saw_end = false;

  while (!r.AtEnd()) {
    // Remember where this section starts: the kEnd trailer's CRC covers
    // every byte before its own type field, whatever the header size is.
    const size_t section_start = r.position();
    HYPERTP_ASSIGN_OR_RETURN(uint16_t raw_type, r.ReadU16());
    HYPERTP_ASSIGN_OR_RETURN(uint32_t length, r.ReadU32());
    const auto type = static_cast<UisrSectionType>(raw_type);

    if (type == UisrSectionType::kEnd) {
      if (length != 4) {
        return DataLossError("uisr: end section declares length " + std::to_string(length) +
                             ", expected 4 (CRC trailer)");
      }
      HYPERTP_ASSIGN_OR_RETURN(uint32_t stored_crc, r.ReadU32());
      const uint32_t actual_crc = Crc32(data.subspan(0, section_start));
      if (stored_crc != actual_crc) {
        return DataLossError("uisr: CRC mismatch (corrupted blob)");
      }
      if (!r.AtEnd()) {
        return DataLossError("uisr: " + std::to_string(r.remaining()) +
                             " trailing bytes after CRC trailer (truncated or concatenated "
                             "blob?)");
      }
      saw_end = true;
      break;
    }

    HYPERTP_ASSIGN_OR_RETURN(auto payload, r.ReadBytes(length));
    ByteReader section(payload);
    switch (type) {
      case UisrSectionType::kVmHeader: {
        HYPERTP_ASSIGN_OR_RETURN(vm.vm_uid, section.ReadU64());
        HYPERTP_ASSIGN_OR_RETURN(vm.name, section.ReadString());
        HYPERTP_ASSIGN_OR_RETURN(vm.source_hypervisor, section.ReadString());
        HYPERTP_ASSIGN_OR_RETURN(vm.memory.memory_bytes, section.ReadU64());
        HYPERTP_ASSIGN_OR_RETURN(vm.memory.pram_file_id, section.ReadU64());
        HYPERTP_ASSIGN_OR_RETURN(uint8_t huge, section.ReadU8());
        vm.memory.uses_huge_pages = huge != 0;
        HYPERTP_ASSIGN_OR_RETURN(declared_vcpus, section.ReadU32());
        saw_header = true;
        break;
      }
      case UisrSectionType::kVcpu: {
        HYPERTP_ASSIGN_OR_RETURN(UisrVcpu vcpu, DecodeVcpu(section));
        vm.vcpus.push_back(std::move(vcpu));
        break;
      }
      case UisrSectionType::kIoapic: {
        HYPERTP_ASSIGN_OR_RETURN(vm.ioapic.id, section.ReadU32());
        HYPERTP_ASSIGN_OR_RETURN(vm.ioapic.base_address, section.ReadU64());
        HYPERTP_ASSIGN_OR_RETURN(vm.ioapic.num_pins, section.ReadU32());
        if (vm.ioapic.num_pins > kUisrMaxIoapicPins) {
          return DataLossError("uisr: ioapic pin count " + std::to_string(vm.ioapic.num_pins) +
                               " exceeds limit");
        }
        for (uint32_t i = 0; i < vm.ioapic.num_pins; ++i) {
          HYPERTP_ASSIGN_OR_RETURN(vm.ioapic.redirection[i], section.ReadU64());
        }
        break;
      }
      case UisrSectionType::kPit: {
        for (UisrPitChannel& c : vm.pit.channels) {
          HYPERTP_ASSIGN_OR_RETURN(c.count, section.ReadU32());
          HYPERTP_ASSIGN_OR_RETURN(c.latched_count, section.ReadU16());
          HYPERTP_ASSIGN_OR_RETURN(c.count_latched, section.ReadU8());
          HYPERTP_ASSIGN_OR_RETURN(c.status_latched, section.ReadU8());
          HYPERTP_ASSIGN_OR_RETURN(c.status, section.ReadU8());
          HYPERTP_ASSIGN_OR_RETURN(c.read_state, section.ReadU8());
          HYPERTP_ASSIGN_OR_RETURN(c.write_state, section.ReadU8());
          HYPERTP_ASSIGN_OR_RETURN(c.write_latch, section.ReadU8());
          HYPERTP_ASSIGN_OR_RETURN(c.rw_mode, section.ReadU8());
          HYPERTP_ASSIGN_OR_RETURN(c.mode, section.ReadU8());
          HYPERTP_ASSIGN_OR_RETURN(c.bcd, section.ReadU8());
          HYPERTP_ASSIGN_OR_RETURN(c.gate, section.ReadU8());
          HYPERTP_ASSIGN_OR_RETURN(c.count_load_time, section.ReadU64());
        }
        HYPERTP_ASSIGN_OR_RETURN(vm.pit.speaker_data_on, section.ReadU8());
        break;
      }
      case UisrSectionType::kDevice: {
        UisrDeviceState dev;
        HYPERTP_ASSIGN_OR_RETURN(dev.model, section.ReadString());
        HYPERTP_ASSIGN_OR_RETURN(dev.instance, section.ReadU32());
        HYPERTP_ASSIGN_OR_RETURN(uint8_t mode, section.ReadU8());
        if (mode > static_cast<uint8_t>(DeviceAttachMode::kUnplugged)) {
          return DataLossError("uisr: bad device attach mode " + std::to_string(mode));
        }
        dev.mode = static_cast<DeviceAttachMode>(mode);
        HYPERTP_ASSIGN_OR_RETURN(dev.opaque, section.ReadLengthPrefixed());
        vm.devices.push_back(std::move(dev));
        break;
      }
      case UisrSectionType::kEnd:
        break;  // Handled above.
    }
  }

  if (!saw_end) {
    return DataLossError("uisr: missing end/CRC section");
  }
  if (!saw_header) {
    return DataLossError("uisr: missing VM header section");
  }
  if (vm.vcpus.size() != declared_vcpus) {
    return DataLossError("uisr: header declares " + std::to_string(declared_vcpus) +
                         " vcpus, found " + std::to_string(vm.vcpus.size()));
  }
  return vm;
}

}  // namespace hypertp
