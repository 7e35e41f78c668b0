// PramFrameWriter: a SpanWriter over freshly allocated kUisr frames — the
// one way UISR bytes get into PRAM.
//
// A PramFrameWriter allocates the frame extent up front (pre-sized with
// EncodedUisrSize), maps it as one contiguous backing in PhysicalMemory, and
// EncodeUisrVm writes the wire bytes straight into place: no intermediate
// vector, no page-by-page copy. Every `uisr:` PRAM file is therefore one
// contiguous run of order-0 frames, which is all the restore side's
// ViewUisrBlob accepts. The bytes are the ones the vector overload of
// EncodeUisrVm returns — same framing, same CRC trailer (pipeline_test pins
// this).
//
// Thread contract: Create() allocates (serial, touches PhysicalMemory); the
// Put* calls only touch the mapped span, so a batch of writers over disjoint
// extents can encode on real OS threads concurrently.

#ifndef HYPERTP_SRC_PRAM_FRAME_WRITER_H_
#define HYPERTP_SRC_PRAM_FRAME_WRITER_H_

#include <cstdint>

#include "src/base/bytes.h"
#include "src/base/result.h"
#include "src/hw/physical_memory.h"

namespace hypertp {

class PramFrameWriter : public SpanWriter {
 public:
  // Allocates ceil(capacity_bytes / kPageSize) kUisr frames owned by
  // `vm_uid`, backs them with contiguous storage and maps the writer over the
  // first `capacity_bytes` of it. The caller knows the exact encoded size
  // (EncodedUisrSize), so the extent is never resized; writing past
  // `capacity_bytes` aborts via the SpanWriter guard. The mapped prefix is
  // NOT pre-zeroed (only the page-padding tail is): the caller must write
  // all `capacity_bytes` before anything reads the frames, which the
  // pre-sized encode does by construction.
  static Result<PramFrameWriter> Create(PhysicalMemory& memory, uint64_t vm_uid,
                                        size_t capacity_bytes);

  // The frame extent the bytes land in (for PRAM file registration and the
  // caller's preservation bookkeeping). The writer does not own the frames;
  // freeing them is the transplant cleanup's job.
  const FrameExtent& frames() const { return frames_; }

 private:
  PramFrameWriter(std::span<uint8_t> dest, FrameExtent frames)
      : SpanWriter(dest), frames_(frames) {}

  FrameExtent frames_;
};

}  // namespace hypertp

#endif  // HYPERTP_SRC_PRAM_FRAME_WRITER_H_
