// UISR wire format: a versioned, CRC-protected TLV container.
//
// Layout:
//   u32 magic "UISR" | u16 version | u16 flags
//   repeated sections: u16 type | u32 length | payload
//   end section: type=kEnd, length=4, payload=CRC32 of all preceding bytes
//
// The format plays the role XDR plays for network data (paper §3.1): each
// hypervisor only needs to speak UISR, not every other hypervisor's format.

#ifndef HYPERTP_SRC_UISR_CODEC_H_
#define HYPERTP_SRC_UISR_CODEC_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/base/result.h"
#include "src/uisr/records.h"

namespace hypertp {

enum class UisrSectionType : uint16_t {
  kVmHeader = 1,
  kVcpu = 2,
  kIoapic = 3,
  kPit = 4,
  kDevice = 5,
  kEnd = 0xFFFF,
};

class SpanWriter;

// Byte offsets of one encoded TLV section inside a UISR blob.
struct UisrSectionSpan {
  UisrSectionType type = UisrSectionType::kEnd;
  size_t header_offset = 0;   // Where the u16 type field starts.
  size_t payload_offset = 0;  // header_offset + 6 (u16 type + u32 length).
  size_t payload_size = 0;
};

// Section-offset table for a UISR blob, in emit order, recorded at encode
// time. Two blobs with the same (type, payload_size) sequence can be
// compared section by section (pre-translation reconcile charges by it).
struct UisrSectionLayout {
  std::vector<UisrSectionSpan> sections;
  size_t total_size = 0;  // Blob size including the kEnd/CRC trailer.
};

// Serializes a UisrVm into its wire form: one size pass (EncodedUisrSize),
// then the bytes are written once, straight into the storage that keeps
// them. When `layout` is non-null it receives the section-offset table, with
// offsets counted from this blob's first byte.
//
// The span form writes at `w`'s current position, so a blob can sit inside
// a larger buffer (checkpoint files) or in PRAM-destined kUisr frames
// (PramFrameWriter); the CRC trailer covers only this VM's bytes. The caller
// sized the span: writing past its end aborts via the SpanWriter guard.
std::vector<uint8_t> EncodeUisrVm(const UisrVm& vm, UisrSectionLayout* layout = nullptr);
void EncodeUisrVm(const UisrVm& vm, SpanWriter& w, UisrSectionLayout* layout = nullptr);

// Exact byte count EncodeUisrVm produces for `vm`, without encoding.
size_t EncodedUisrSize(const UisrVm& vm);

// Parses and validates a UISR blob. Fails with kDataLoss on bad magic,
// truncation or CRC mismatch, and kUnimplemented on a newer version.
Result<UisrVm> DecodeUisrVm(std::span<const uint8_t> data);

}  // namespace hypertp

#endif  // HYPERTP_SRC_UISR_CODEC_H_
