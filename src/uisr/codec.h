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

class ByteWriter;
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

// Serializes a UisrVm into its wire form. The output vector is allocated
// once at its exact final size (the encoder pre-computes the byte count).
std::vector<uint8_t> EncodeUisrVm(const UisrVm& vm);

// Same bytes, and additionally fills `layout` with the section-offset table
// of the returned blob. `layout` must be non-null.
std::vector<uint8_t> EncodeUisrVm(const UisrVm& vm, UisrSectionLayout* layout);

// Appends exactly the bytes the vector overload would return to `w` — the
// CRC trailer covers only this VM's bytes, starting at the writer's current
// position, so blobs can be embedded mid-stream (checkpoint files, PRAM
// framing) without a temporary copy. Reserves the exact size up front.
//
// Templated over the writer type: ByteWriter appends to a growing buffer
// (checkpoint embedding, migration's wire copy); SpanWriter writes into
// caller-owned storage, which is how the zero-copy save path encodes straight
// into PRAM-resident frames (PramFrameWriter). Any writer with the
// Put*/PatchU32/size/Reserve/Written interface works; these two are
// instantiated in codec.cc.
template <typename Writer>
void EncodeUisrVm(const UisrVm& vm, Writer& w);

extern template void EncodeUisrVm<ByteWriter>(const UisrVm& vm, ByteWriter& w);
extern template void EncodeUisrVm<SpanWriter>(const UisrVm& vm, SpanWriter& w);

// Exact byte count EncodeUisrVm produces for `vm`, without encoding.
size_t EncodedUisrSize(const UisrVm& vm);

// Parses and validates a UISR blob. Fails with kDataLoss on bad magic,
// truncation or CRC mismatch, and kUnimplemented on a newer version.
Result<UisrVm> DecodeUisrVm(std::span<const uint8_t> data);

}  // namespace hypertp

#endif  // HYPERTP_SRC_UISR_CODEC_H_
