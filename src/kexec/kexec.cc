#include "src/kexec/kexec.h"

#include <cinttypes>
#include <cstdio>

#include "src/base/logging.h"

namespace hypertp {

KernelImage KernelImage::Kvm() {
  return KernelImage{"kvmish-5.3", HypervisorKind::kKvm, 24ull << 20};
}

KernelImage KernelImage::Xen() {
  // Xen core + dom0 kernel + initramfs: a bigger bundle, two-stage boot.
  return KernelImage{"xenvisor-4.12+dom0", HypervisorKind::kXen, 48ull << 20};
}

KernelImage KernelImage::Bhyve() {
  return KernelImage{"bhyvish-13.1", HypervisorKind::kBhyve, 28ull << 20};
}

KernelImage KernelImage::For(HypervisorKind kind) {
  switch (kind) {
    case HypervisorKind::kXen:
      return Xen();
    case HypervisorKind::kKvm:
      return Kvm();
    case HypervisorKind::kBhyve:
      return Bhyve();
  }
  return Kvm();
}

std::string FormatKexecCmdline(Mfn pram_root, Mfn ledger) {
  char buf[128];
  if (pram_root == 0) {
    std::snprintf(buf, sizeof(buf), "console=ttyS0 ro");
  } else {
    std::snprintf(buf, sizeof(buf), "console=ttyS0 ro pram=0x%" PRIx64, pram_root);
  }
  std::string cmdline = buf;
  if (ledger != 0) {
    std::snprintf(buf, sizeof(buf), " tpledger=0x%" PRIx64, ledger);
    cmdline += buf;
  }
  return cmdline;
}

namespace {

// Extracts `key=<number>` from the command line; 0 when the key is absent.
Result<Mfn> ParseMfnParam(const std::string& cmdline, const std::string& key) {
  const size_t pos = cmdline.find(key + "=");
  if (pos == std::string::npos) {
    return Mfn{0};
  }
  const char* value = cmdline.c_str() + pos + key.size() + 1;
  char* end = nullptr;
  const uint64_t mfn = std::strtoull(value, &end, 0);
  if (end == value) {
    return InvalidArgumentError("kexec: unparsable " + key + "= value in '" + cmdline + "'");
  }
  return mfn;
}

}  // namespace

Result<Mfn> ParsePramPointer(const std::string& cmdline) {
  return ParseMfnParam(cmdline, "pram");
}

Result<Mfn> ParseLedgerPointer(const std::string& cmdline) {
  return ParseMfnParam(cmdline, "tpledger");
}

Result<void> KexecController::LoadImage(const KernelImage& image) {
  if (staged_) {
    // Replace: release the previous staging area.
    HYPERTP_RETURN_IF_ERROR(machine_->memory().Free(staged_base_, staged_frames_));
    staged_.reset();
  }
  const uint64_t frames = (image.size_bytes + kPageSize - 1) / kPageSize;
  HYPERTP_ASSIGN_OR_RETURN(
      Mfn base,
      machine_->memory().Alloc(frames, 1, FrameOwner{FrameOwnerKind::kKernelImage, 0}));
  staged_ = image;
  staged_base_ = base;
  staged_frames_ = frames;
  HYPERTP_LOG(kInfo, "kexec") << "staged kernel image '" << image.name << "' ("
                              << (image.size_bytes >> 20) << " MiB) at mfn " << base;
  return OkResult();
}

Result<KexecBootResult> KexecController::Reboot(const std::string& cmdline) {
  if (!staged_) {
    return FailedPreconditionError("kexec: no kernel image staged");
  }
  const KernelImage image = *staged_;
  staged_.reset();

  const HostCostProfile& costs = machine_->profile().costs;
  KexecBootResult result;
  result.booted_kernel = image.name;
  HYPERTP_ASSIGN_OR_RETURN(result.pram_root, ParsePramPointer(cmdline));
  HYPERTP_ASSIGN_OR_RETURN(result.ledger_mfn, ParseLedgerPointer(cmdline));

  // The jump consumes the staged image (the new kernel relocates itself);
  // its staging frames go back to the pool before the scrub.
  HYPERTP_RETURN_IF_ERROR(machine_->memory().Free(staged_base_, staged_frames_));

  // --- Early boot: one PRAM walk yields the image and the preservation list.
  std::vector<FrameExtent> preserve;
  uint64_t preserved_guest_bytes = 0;
  bool pram_ok = true;
  std::string pram_error;
  if (result.pram_root != 0) {
    auto image_or = ParsePram(machine_->memory(), result.pram_root, &preserve);
    if (!image_or.ok()) {
      pram_ok = false;
      pram_error = image_or.error().ToString();
    } else {
      result.pram = std::move(*image_or);
      for (const PramFile& file : result.pram.files) {
        preserved_guest_bytes += file.size_bytes;
      }
    }
  }

  // The transplant ledger survives the scrub independently of the PRAM
  // structure — it is the one page that must outlive a botched handoff.
  if (result.ledger_mfn != 0 && machine_->memory().IsAllocated(result.ledger_mfn)) {
    HYPERTP_ASSIGN_OR_RETURN(FrameOwner ledger_owner,
                             machine_->memory().OwnerOf(result.ledger_mfn));
    preserve.push_back(FrameExtent{result.ledger_mfn, 1, ledger_owner});
  }

  // --- Scrub everything not reserved. --------------------------------------
  result.frames_scrubbed = machine_->memory().ScrubExcept(preserve);

  // --- Timing. --------------------------------------------------------------
  const SimDuration kernel_boot = image.kind == HypervisorKind::kXen
                                      ? costs.boot_xen + costs.boot_dom0
                                      : costs.boot_linux;
  const double preserved_gb =
      static_cast<double>(preserved_guest_bytes) / static_cast<double>(1ull << 30);
  result.pram_parse_time =
      static_cast<SimDuration>(static_cast<double>(costs.pram_parse_per_gb) * preserved_gb);
  result.reboot_time = costs.kexec_jump + kernel_boot + result.pram_parse_time;
  // The NIC driver probes early in the (first) kernel's boot; guests only
  // see the network once link training and driver init complete.
  result.network_ready = costs.kexec_jump + costs.nic_init;

  HYPERTP_LOG(kInfo, "kexec") << "rebooted into '" << image.name << "', scrubbed "
                              << result.frames_scrubbed << " frames, preserved "
                              << result.pram.files.size() << " PRAM files";

  if (tracer_ != nullptr) {
    SimTime t = trace_base_;
    const SpanId jump =
        tracer_->AddSpan("kexec:jump", t, costs.kexec_jump, trace_parent_, "kexec");
    tracer_->SetAttribute(jump, "kernel", std::string_view(image.name));
    tracer_->SetAttribute(jump, "frames_scrubbed",
                          static_cast<int64_t>(result.frames_scrubbed));
    t += costs.kexec_jump;
    tracer_->AddSpan("kexec:kernel_boot", t, kernel_boot, trace_parent_, "kexec");
    t += kernel_boot;
    const SpanId parse =
        tracer_->AddSpan("kexec:pram_parse", t, result.pram_parse_time, trace_parent_, "kexec");
    tracer_->SetAttribute(parse, "pram_files", static_cast<int64_t>(result.pram.files.size()));
    tracer_->SetAttribute(parse, "ok", pram_ok);
  }

  if (!pram_ok) {
    return DataLossError("kexec: PRAM handoff failed (" + pram_error +
                         "); all guest memory was scrubbed");
  }
  return result;
}

}  // namespace hypertp
