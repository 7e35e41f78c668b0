#include "src/core/checkpoint.h"

#include "src/base/bytes.h"
#include "src/base/crc32.h"
#include "src/pipeline/conversion.h"
#include "src/uisr/codec.h"

namespace hypertp {
namespace {

constexpr uint32_t kCheckpointMagic = 0x50435448;  // "HTCP"
constexpr uint16_t kCheckpointVersion = 1;

}  // namespace

Result<std::vector<uint8_t>> SaveVmCheckpoint(Hypervisor& hv, VmId id) {
  HYPERTP_ASSIGN_OR_RETURN(VmInfo info, hv.GetVmInfo(id));
  if (info.run_state != VmRunState::kPaused) {
    return FailedPreconditionError("checkpoint: VM must be paused (suspend first)");
  }
  FixupLog log;
  HYPERTP_ASSIGN_OR_RETURN(UisrVm uisr, pipeline::ExtractVmState(hv, id, &log));
  HYPERTP_ASSIGN_OR_RETURN(auto pages, hv.DumpGuestContent(id));

  // Sized once: header, length-prefixed UISR blob, page records, CRC. The
  // blob is encoded straight into its place in the file.
  const size_t uisr_size = EncodedUisrSize(uisr);
  std::vector<uint8_t> file(8 + 4 + uisr_size + 8 + pages.size() * 16 + 4);
  SpanWriter w(file);
  w.PutU32(kCheckpointMagic);
  w.PutU16(kCheckpointVersion);
  w.PutU16(0);  // Flags.
  w.PutU32(static_cast<uint32_t>(uisr_size));
  EncodeUisrVm(uisr, w);
  w.PutU64(pages.size());
  for (const auto& [gfn, word] : pages) {
    w.PutU64(gfn);
    w.PutU64(word);
  }
  w.PutU32(Crc32(w.Written(0)));
  return file;
}

namespace {

// Shared header/body parsing for inspect + restore.
struct ParsedCheckpoint {
  UisrVm uisr;
  std::vector<std::pair<Gfn, uint64_t>> pages;
};

Result<ParsedCheckpoint> ParseCheckpoint(std::span<const uint8_t> blob) {
  if (blob.size() < 12) {
    return DataLossError("checkpoint: truncated header");
  }
  // CRC covers everything except the 4-byte trailer.
  ByteReader trailer(blob.subspan(blob.size() - 4));
  HYPERTP_ASSIGN_OR_RETURN(uint32_t stored_crc, trailer.ReadU32());
  if (Crc32(blob.subspan(0, blob.size() - 4)) != stored_crc) {
    return DataLossError("checkpoint: CRC mismatch");
  }

  ByteReader r(blob.subspan(0, blob.size() - 4));
  HYPERTP_ASSIGN_OR_RETURN(uint32_t magic, r.ReadU32());
  if (magic != kCheckpointMagic) {
    return DataLossError("checkpoint: bad magic");
  }
  HYPERTP_ASSIGN_OR_RETURN(uint16_t version, r.ReadU16());
  if (version > kCheckpointVersion) {
    return UnimplementedError("checkpoint: version " + std::to_string(version));
  }
  HYPERTP_RETURN_IF_ERROR(r.Skip(2));

  ParsedCheckpoint parsed;
  HYPERTP_ASSIGN_OR_RETURN(auto uisr_blob, r.ReadLengthPrefixed());
  HYPERTP_ASSIGN_OR_RETURN(parsed.uisr, DecodeUisrVm(uisr_blob));
  HYPERTP_ASSIGN_OR_RETURN(uint64_t page_count, r.ReadU64());
  // Each page record is 16 bytes; a count the remaining bytes cannot hold
  // is corrupt, and reserving it would exhaust memory before the reads fail.
  if (page_count > r.remaining() / 16) {
    return DataLossError("checkpoint: page count " + std::to_string(page_count) +
                         " exceeds the remaining " + std::to_string(r.remaining()) + " bytes");
  }
  parsed.pages.reserve(page_count);
  for (uint64_t i = 0; i < page_count; ++i) {
    HYPERTP_ASSIGN_OR_RETURN(uint64_t gfn, r.ReadU64());
    HYPERTP_ASSIGN_OR_RETURN(uint64_t word, r.ReadU64());
    parsed.pages.emplace_back(gfn, word);
  }
  // Bytes past the last record mean the count was lowered: pages would be
  // dropped silently.
  if (!r.AtEnd()) {
    return DataLossError("checkpoint: " + std::to_string(r.remaining()) +
                         " bytes after the last page record");
  }
  return parsed;
}

}  // namespace

Result<VmId> RestoreVmCheckpoint(Hypervisor& hv, std::span<const uint8_t> blob) {
  HYPERTP_ASSIGN_OR_RETURN(ParsedCheckpoint parsed, ParseCheckpoint(blob));
  FixupLog log;
  GuestMemoryBinding binding;
  binding.mode = GuestMemoryBinding::Mode::kAllocate;
  HYPERTP_ASSIGN_OR_RETURN(VmId id, pipeline::RestoreVmState(hv, parsed.uisr, binding, &log));
  for (const auto& [gfn, word] : parsed.pages) {
    if (auto written = hv.WriteGuestPage(id, gfn, word); !written.ok()) {
      // Leave no half-restored VM behind to block a later restore of its uid.
      (void)hv.DestroyVm(id);
      return written.error();
    }
  }
  return id;
}

Result<CheckpointInfo> InspectCheckpoint(std::span<const uint8_t> blob) {
  HYPERTP_ASSIGN_OR_RETURN(ParsedCheckpoint parsed, ParseCheckpoint(blob));
  CheckpointInfo info;
  info.vm_uid = parsed.uisr.vm_uid;
  info.name = parsed.uisr.name;
  info.source_hypervisor = parsed.uisr.source_hypervisor;
  info.memory_bytes = parsed.uisr.memory.memory_bytes;
  info.vcpus = static_cast<uint32_t>(parsed.uisr.vcpus.size());
  info.page_count = parsed.pages.size();
  return info;
}

}  // namespace hypertp
