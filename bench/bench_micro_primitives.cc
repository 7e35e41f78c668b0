// Microbenchmarks for HyperTP's hot primitives: UISR encode/decode, per-vCPU
// format translation, PRAM build/parse, CRC32, and the zero-copy
// encode-into-PRAM save path against materialize-then-copy.
// These measure the real (host) cost of the state-manipulation code paths —
// the parts of HyperTP that would run inside the paper's downtime window.
//
// Writes BENCH_micro_primitives.json (series in ms and GB/s plus scalar
// speedups). Timings are host-dependent; the committed baseline under
// bench/baselines/ is a reference snapshot, not a regression oracle.
//
// `--smoke` shrinks reps/sizes so sanitizer runs (tests/run_sanitized.sh)
// cover every code path in seconds.

#include <chrono>
#include <cstring>
#include <string>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "bench/bench_util.h"
#include "src/base/bytes.h"
#include "src/base/crc32.h"
#include "src/hw/physical_memory.h"
#include "src/kvm/kvm_uisr.h"
#include "src/pram/frame_writer.h"
#include "src/pram/pram.h"
#include "src/uisr/codec.h"
#include "src/xen/xen_uisr.h"

namespace hypertp {
namespace {

struct BenchConfig {
  int reps = 7;           // Best-of reps per measurement.
  int encode_iters = 200; // Encodes per timed rep.
  int crc_iters = 64;     // CRC passes per timed rep.
  uint64_t pram_gib = 1;  // Guest size for the PRAM build/parse loop.
};

using Clock = std::chrono::steady_clock;

// Best-of-`reps` wall-clock seconds of `fn()`.
template <typename Fn>
double BestSeconds(int reps, Fn&& fn) {
  double best = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    const auto start = Clock::now();
    fn();
    const auto end = Clock::now();
    const double s = std::chrono::duration<double>(end - start).count();
    if (rep == 0 || s < best) {
      best = s;
    }
  }
  return best;
}

double GbPerSec(uint64_t bytes, double seconds) {
  if (seconds <= 0.0) {
    return 0.0;
  }
  return static_cast<double>(bytes) / seconds / 1e9;
}

// `device_bytes` attaches that much opaque device-model state split across
// four devices — virtio queue/ring snapshots are what makes real blobs big,
// and they are the bulk bytes the zero-copy store exists to avoid re-copying.
UisrVm MakeVm(uint32_t vcpus, uint64_t uid, uint64_t device_bytes = 0) {
  UisrVm vm;
  vm.vm_uid = uid;
  vm.name = "bench";
  vm.memory.memory_bytes = 1ull << 30;
  for (uint32_t i = 0; i < vcpus; ++i) {
    vm.vcpus.push_back(MakeSyntheticVcpu(static_cast<VmId>(uid), i));
  }
  vm.ioapic.num_pins = 48;
  if (device_bytes > 0) {
    for (uint32_t d = 0; d < 4; ++d) {
      UisrDeviceState dev;
      dev.model = d % 2 == 0 ? "virtio-net" : "virtio-blk";
      dev.instance = d;
      dev.opaque.resize(device_bytes / 4);
      for (size_t i = 0; i < dev.opaque.size(); ++i) {
        dev.opaque[i] = static_cast<uint8_t>(i * 31 + d + uid);
      }
      vm.devices.push_back(std::move(dev));
    }
  }
  return vm;
}

void BenchUisrCodec(const BenchConfig& cfg, bench::BenchReport& report) {
  bench::Section("UISR encode/decode (10-vCPU VM)");
  const UisrVm vm = MakeVm(10, 1);
  const uint64_t blob_bytes = EncodedUisrSize(vm);
  const uint64_t total = blob_bytes * static_cast<uint64_t>(cfg.encode_iters);

  const double enc_s = BestSeconds(cfg.reps, [&] {
    for (int i = 0; i < cfg.encode_iters; ++i) {
      const std::vector<uint8_t> encoded = EncodeUisrVm(vm);
    }
  });
  const std::vector<uint8_t> blob = EncodeUisrVm(vm);
  const double dec_s = BestSeconds(cfg.reps, [&] {
    for (int i = 0; i < cfg.encode_iters; ++i) {
      auto decoded = DecodeUisrVm(blob);
      if (!decoded.ok()) {
        std::fprintf(stderr, "decode failed: %s\n", decoded.error().ToString().c_str());
        return;
      }
    }
  });
  report.AddSample("uisr_encode_gb_s", GbPerSec(total, enc_s));
  report.AddSample("uisr_decode_gb_s", GbPerSec(total, dec_s));
  report.SetScalar("uisr_blob_bytes", static_cast<double>(blob_bytes));
  bench::Row("%-28s %10.3f GB/s", "encode", GbPerSec(total, enc_s));
  bench::Row("%-28s %10.3f GB/s", "decode", GbPerSec(total, dec_s));
}

void BenchVcpuTranslation(const BenchConfig& cfg, bench::BenchReport& report) {
  bench::Section("per-vCPU format translation (round trips)");
  const UisrVcpu vcpu = MakeSyntheticVcpu(2, 0);
  const int iters = cfg.encode_iters * 10;

  FixupLog log;
  const double xen_s = BestSeconds(cfg.reps, [&] {
    for (int i = 0; i < iters; ++i) {
      auto xen = XenVcpuFromUisr(vcpu, 2, &log);
      auto back = XenVcpuToUisr(*xen);
      if (!back.ok() || back->id != vcpu.id) {
        std::fprintf(stderr, "xen round trip drifted\n");
        return;
      }
      log.clear();
    }
  });
  const double kvm_s = BestSeconds(cfg.reps, [&] {
    for (int i = 0; i < iters; ++i) {
      auto kvm = KvmVcpuFromUisr(vcpu);
      auto back = KvmVcpuToUisr(*kvm);
      if (!back.ok() || back->id != vcpu.id) {
        std::fprintf(stderr, "kvm round trip drifted\n");
        return;
      }
    }
  });
  const double xen_us = xen_s * 1e6 / iters;
  const double kvm_us = kvm_s * 1e6 / iters;
  report.AddSample("xen_vcpu_roundtrip_us", xen_us);
  report.AddSample("kvm_vcpu_roundtrip_us", kvm_us);
  bench::Row("%-28s %10.3f us", "xen<->uisr", xen_us);
  bench::Row("%-28s %10.3f us", "kvm<->uisr", kvm_us);
}

void BenchPramBuildParse(const BenchConfig& cfg, bench::BenchReport& report) {
  bench::Section("PRAM build+parse");
  const double s = BestSeconds(cfg.reps, [&] {
    PhysicalMemory ram((cfg.pram_gib + 2) << 30);
    const uint64_t frames = cfg.pram_gib << 18;
    Mfn base =
        ram.Alloc(frames, kFramesPerHugePage, FrameOwner{FrameOwnerKind::kGuest, 1}).value();
    std::vector<PramPageEntry> entries;
    BuildEntriesForRange(0, base, frames, true, entries);
    PramBuilder builder(ram);
    (void)builder.AddFile("vm", cfg.pram_gib << 30, true, std::move(entries));
    auto handle = builder.Finalize();
    auto image = ParsePram(ram, handle->root_mfn);
    if (!image.ok()) {
      std::fprintf(stderr, "pram parse failed: %s\n", image.error().ToString().c_str());
    }
  });
  report.AddSample("pram_build_parse_ms", s * 1e3);
  bench::Row("%-28s %10.3f ms (%llu GiB guest)", "build+parse", s * 1e3,
             static_cast<unsigned long long>(cfg.pram_gib));
}

void BenchCrc32(const BenchConfig& cfg, bench::BenchReport& report) {
  bench::Section("CRC32 (dispatched / slice-by-8 / bitwise reference)");
  std::vector<uint8_t> buf(1 << 20);
  for (size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<uint8_t>(i * 131 + 17);
  }
  const uint64_t total = buf.size() * static_cast<uint64_t>(cfg.crc_iters);

  uint32_t sink = 0;
  const double fast_s = BestSeconds(cfg.reps, [&] {
    for (int i = 0; i < cfg.crc_iters; ++i) {
      sink ^= Crc32(buf);
    }
  });
  const double sliced_s = BestSeconds(cfg.reps, [&] {
    for (int i = 0; i < cfg.crc_iters; ++i) {
      sink ^= Crc32UpdateSliced(0, buf);
    }
  });
  // The bitwise path is ~20x slower; run fewer passes for the same series.
  const int bitwise_iters = cfg.crc_iters / 8 + 1;
  const double bitwise_s = BestSeconds(cfg.reps, [&] {
    for (int i = 0; i < bitwise_iters; ++i) {
      sink ^= Crc32UpdateBitwise(0xFFFFFFFFu, buf) ^ 0xFFFFFFFFu;
    }
  });
  if (sink == 0xDEADBEEF) {  // Defeat dead-code elimination of the loops.
    std::printf("(unlikely sink)\n");
  }
  const double fast_gb = GbPerSec(total, fast_s);
  const double sliced_gb = GbPerSec(total, sliced_s);
  const double bitwise_gb =
      GbPerSec(buf.size() * static_cast<uint64_t>(bitwise_iters), bitwise_s);
  report.AddSample("crc32_fast_gb_s", fast_gb);
  report.AddSample("crc32_sliced_gb_s", sliced_gb);
  report.AddSample("crc32_bitwise_gb_s", bitwise_gb);
  if (bitwise_gb > 0.0) {
    report.SetScalar("crc32_fast_speedup", fast_gb / bitwise_gb);
    report.SetScalar("crc32_slice8_speedup", sliced_gb / bitwise_gb);
  }
  bench::Row("%-28s %10.3f GB/s", "dispatched (hw if present)", fast_gb);
  bench::Row("%-28s %10.3f GB/s", "slice-by-8", sliced_gb);
  bench::Row("%-28s %10.3f GB/s (x%.1f sliced)", "bitwise reference", bitwise_gb,
             bitwise_gb > 0.0 ? sliced_gb / bitwise_gb : 0.0);
}

// The headline comparison: encoding a VM batch straight into backed PRAM
// frames (PramFrameWriter) vs materialize-then-copy (encode into a vector,
// then copy it into one backing over fresh frames — ParkUisrBlob's path for
// a blob that already exists).
void BenchEncodeToPram(const BenchConfig& cfg, bench::BenchReport& report) {
  bench::Section("encode-to-PRAM vs materialize-then-copy");
  constexpr int kVms = 8;
  // 10 vCPUs + 1 MiB of opaque device state per VM: blobs sized like a VM
  // with a few virtio devices mid-flight, where bulk bytes dominate the wire
  // image and the store path's copy count is what decides throughput.
  constexpr uint64_t kDeviceBytes = 1ull << 20;
  std::vector<UisrVm> vms;
  uint64_t batch_bytes = 0;
  for (int i = 0; i < kVms; ++i) {
    vms.push_back(MakeVm(10, static_cast<uint64_t>(i + 1), kDeviceBytes));
    batch_bytes += EncodedUisrSize(vms.back());
  }
  const int iters = cfg.encode_iters / 8 + 1;
  const uint64_t total = batch_bytes * static_cast<uint64_t>(iters);
  PhysicalMemory ram(1ull << 30);

  const double legacy_s = BestSeconds(cfg.reps, [&] {
    for (int it = 0; it < iters; ++it) {
      for (const UisrVm& vm : vms) {
        // Materialize the full blob...
        const std::vector<uint8_t> blob = EncodeUisrVm(vm);
        // ...then copy it into one backing over fresh frames.
        auto writer = PramFrameWriter::Create(ram, vm.vm_uid, blob.size());
        if (!writer.ok()) {
          std::fprintf(stderr, "frame writer: %s\n", writer.error().ToString().c_str());
          return;
        }
        writer->PutBytes(blob);
        (void)ram.Free(writer->frames().base, writer->frames().count);
      }
    }
  });

  const double zero_copy_s = BestSeconds(cfg.reps, [&] {
    for (int it = 0; it < iters; ++it) {
      for (const UisrVm& vm : vms) {
        auto writer = PramFrameWriter::Create(ram, vm.vm_uid, EncodedUisrSize(vm));
        if (!writer.ok()) {
          std::fprintf(stderr, "frame writer: %s\n", writer.error().ToString().c_str());
          return;
        }
        EncodeUisrVm(vm, *writer);
        (void)ram.Free(writer->frames().base, writer->frames().count);
      }
    }
  });

  const double legacy_gb = GbPerSec(total, legacy_s);
  const double zero_copy_gb = GbPerSec(total, zero_copy_s);
  report.AddSample("store_legacy_gb_s", legacy_gb);
  report.AddSample("store_zero_copy_gb_s", zero_copy_gb);
  if (legacy_gb > 0.0) {
    report.SetScalar("encode_to_pram_speedup", zero_copy_gb / legacy_gb);
  }
  report.SetScalar("store_batch_bytes", static_cast<double>(batch_bytes));
  bench::Row("%-28s %10.3f GB/s", "materialize-then-copy", legacy_gb);
  bench::Row("%-28s %10.3f GB/s (x%.2f)", "encode-into-frames", zero_copy_gb,
             legacy_gb > 0.0 ? zero_copy_gb / legacy_gb : 0.0);
}

void Run(const BenchConfig& cfg) {
  bench::Banner("Micro primitives — host cost of the state-manipulation hot paths",
                "UISR codec, vCPU translation, PRAM build/parse, CRC32, and the "
                "zero-copy encode-into-PRAM store. Wall-clock; host-dependent.");
  bench::BenchReport report("micro_primitives");
  BenchUisrCodec(cfg, report);
  BenchVcpuTranslation(cfg, report);
  BenchPramBuildParse(cfg, report);
  BenchCrc32(cfg, report);
  BenchEncodeToPram(cfg, report);
  report.WriteJsonArtifact();
}

}  // namespace
}  // namespace hypertp

int main(int argc, char** argv) {
#if defined(__GLIBC__)
  // Keep MiB-sized blob buffers on the heap instead of per-iteration mmap —
  // otherwise both store paths measure page-fault churn, not the copies.
  mallopt(M_MMAP_THRESHOLD, 64 << 20);
#endif
  hypertp::BenchConfig cfg;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      cfg.reps = 1;
      cfg.encode_iters = 8;
      cfg.crc_iters = 2;
      cfg.pram_gib = 1;
    }
  }
  hypertp::Run(cfg);
  return 0;
}
