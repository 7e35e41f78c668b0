// The host_transplant workload and the host half of the ladder.

#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "benchmark/workloads.h"
#include "src/base/crc32.h"
#include "src/core/factory.h"
#include "src/core/inplace.h"
#include "src/kexec/kexec.h"
#include "src/kvm/kvm_uisr.h"
#include "src/obs/metrics.h"
#include "src/pipeline/conversion.h"
#include "src/pipeline/pretranslate.h"
#include "src/pram/pram.h"
#include "src/sim/rng.h"
#include "src/uisr/codec.h"

namespace hypertp::perf {
namespace {

constexpr int kHostVms = 16;
// Real threads for the batched UISR encode/decode stages.
constexpr int kHostThreads = 4;
constexpr uint32_t kVcpusPerVm = 2;
constexpr uint64_t kVmMemory = 512ull << 20;  // 16 guests fit M1's 16 GiB.

// One Xen host (paper machine M1) with `vms` running guests, a few seeded
// guest pages each, and a seeded quarter of the guests chosen to dirty their
// state after pre-translation, so reconcile both adopts and patches.
struct Host {
  std::unique_ptr<Machine> machine;
  std::unique_ptr<Hypervisor> xen;
  std::vector<size_t> dirty;  // Indices into xen->ListVms().
};

Result<Host> BuildHost(int vms, uint64_t seed) {
  Host host;
  host.machine = std::make_unique<Machine>(MachineProfile::M1(), seed);
  host.xen = MakeHypervisor(HypervisorKind::kXen, *host.machine);
  Rng rng(seed);
  for (int i = 0; i < vms; ++i) {
    VmConfig config = VmConfig::Small("bench-" + std::to_string(i));
    config.vcpus = kVcpusPerVm;
    config.memory_bytes = kVmMemory;
    HYPERTP_ASSIGN_OR_RETURN(VmId id, host.xen->CreateVm(config));
    for (int p = 0; p < 8; ++p) {
      const Gfn gfn = rng.NextBelow(kVmMemory / kPageSize);
      HYPERTP_RETURN_IF_ERROR(host.xen->WriteGuestPage(id, gfn, rng.NextU64()));
    }
  }
  std::vector<size_t> order(static_cast<size_t>(vms));
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  for (size_t i = 0; i < order.size() / 4; ++i) {
    std::swap(order[i], order[i + rng.NextBelow(order.size() - i)]);
    host.dirty.push_back(order[i]);
  }
  return host;
}

InPlaceOptions TransplantOptions(const Host& host, int threads) {
  InPlaceOptions options;
  options.pre_translate = true;
  options.verify_guest_memory = true;
  options.real_threads = threads;
  options.concurrent_activity = [dirty = host.dirty](Hypervisor& hv) {
    const std::vector<VmId> ids = hv.ListVms();
    for (const size_t i : dirty) {
      (void)hv.InjectGuestEvent(ids[i], Hypervisor::GuestEventKind::kWorkloadStep);
    }
  };
  return options;
}

// Every simulated-time output of a transplant, for byte comparison.
std::string Fingerprint(const TransplantReport& r) {
  const PhaseBreakdown& p = r.phases;
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "vms=%d downtime=%lld total=%lld net=%lld pram_meta=%llu uisr=%llu scrubbed=%llu "
                "phases=%lld,%lld,%lld,%lld,%lld,%lld,%lld,%lld,%lld,%lld hits=%lld inval=%lld "
                "fixups=%zu outcome=%d",
                r.vm_count, static_cast<long long>(r.downtime),
                static_cast<long long>(r.total_time), static_cast<long long>(r.network_downtime),
                static_cast<unsigned long long>(r.pram_metadata_bytes),
                static_cast<unsigned long long>(r.uisr_total_bytes),
                static_cast<unsigned long long>(r.frames_scrubbed),
                static_cast<long long>(p.pram), static_cast<long long>(p.pre_translation),
                static_cast<long long>(p.translation), static_cast<long long>(p.reboot),
                static_cast<long long>(p.pram_parse), static_cast<long long>(p.restoration),
                static_cast<long long>(p.resume), static_cast<long long>(p.cleanup),
                static_cast<long long>(p.network), static_cast<long long>(p.rollback),
                static_cast<long long>(r.pretranslate_hits),
                static_cast<long long>(r.pretranslate_invalidations), r.fixups.size(),
                static_cast<int>(r.outcome));
  return buf;
}

class HostWorkload final : public Workload {
 public:
  explicit HostWorkload(const Options& options)
      : seed_(options.seed), smoke_(options.smoke) {}

  Result<void> Setup() override {
    Release();
    HYPERTP_ASSIGN_OR_RETURN(host_, BuildHost(kHostVms, seed_));
    return OkResult();
  }

  Result<void> Run(bool instrumented) override {
    InPlaceOptions options = TransplantOptions(host_, kHostThreads);
    Tracer tracer;
    MetricsRegistry metrics;
    if (instrumented) {
      options.tracer = &tracer;
      options.metrics = &metrics;
    }
    HYPERTP_ASSIGN_OR_RETURN(
        result_, InPlaceTransplant::Run(std::move(host_.xen), HypervisorKind::kKvm, options));
    return OkResult();
  }

  // Checks the transplant, then frees the iteration's machine so the next
  // Setup times only input construction.
  Result<void> Check() override {
    report_ = result_->report;
    const size_t restored = result_->restored_vms.size();
    const size_t dirty = host_.dirty.size();
    Release();
    const TransplantReport& report = report_;
    if (report.outcome != TransplantOutcome::kCompleted ||
        restored != static_cast<size_t>(kHostVms) || report.vm_count != kHostVms) {
      return InternalError("transplant did not complete with " + std::to_string(kHostVms) +
                           " restored VMs: " + report.ToString());
    }
    if (report.pretranslate_invalidations != static_cast<int64_t>(dirty) ||
        report.pretranslate_hits + report.pretranslate_invalidations != kHostVms) {
      return InternalError("pre-translation did not see the seeded dirty set");
    }
    std::string fingerprint = Fingerprint(report);
    if (first_fingerprint_.empty()) {
      first_fingerprint_ = std::move(fingerprint);
    } else if (fingerprint != first_fingerprint_) {
      return InternalError("transplant report differs from the first iteration's: " +
                           fingerprint + " vs " + first_fingerprint_);
    }
    return OkResult();
  }

  Result<void> CheckReplica() override {
    HYPERTP_ASSIGN_OR_RETURN(Host host, BuildHost(kHostVms, seed_));
    const InPlaceOptions options = TransplantOptions(host, 1);
    HYPERTP_ASSIGN_OR_RETURN(
        InPlaceResult replica,
        InPlaceTransplant::Run(std::move(host.xen), HypervisorKind::kKvm, options));
    if (Fingerprint(replica.report) != first_fingerprint_) {
      return InternalError("transplant report at 1 real thread differs from " +
                           std::to_string(kHostThreads) + " threads");
    }
    return OkResult();
  }

  int threads() const override { return kHostThreads; }

  double vms() const override { return kHostVms; }

  void SimMetrics(MetricSet& out) const override {
    out.Set("sim_makespan_s", ToSeconds(report_.total_time), "s", MetricKind::kExact);
    out.Set("sim_downtime_s", ToSeconds(report_.downtime), "s", MetricKind::kExact);
  }

  Result<void> Ladder(const LadderEnv& env, MetricSet& out) override {
    HYPERTP_RETURN_IF_ERROR(HostLadder(kHostVms, env, out));
    // Fleet layers on a fleet of hosts like this one.
    return FleetLadder(HostFleetCampaign(seed_, smoke_, kHostThreads), env, out);
  }

 private:
  void Release() {
    result_.reset();  // Its hypervisor is bound to host_'s machine.
    host_ = Host();
  }

  uint64_t seed_;
  bool smoke_;
  Host host_;
  std::optional<InPlaceResult> result_;
  TransplantReport report_;
  std::string first_fingerprint_;
};

// Per-repetition samples of the host ladder.
struct HostSample {
  double create_ms = 0.0;
  double inplace_ms = 0.0;
  double hits = 0.0;
  double invalidations = 0.0;
  double vms_restored = 0.0;
  double rollbacks = 0.0;
  double pretranslate_ms = 0.0;
  double save_ms = 0.0;
  double encode_ms = 0.0;
  double decode_ms = 0.0;
  double crc_ms = 0.0;
  double kvm_ms = 0.0;
  double restore_ms = 0.0;
  double blob_bytes = 0.0;
  double encode_into_pram_ms = 0.0;
  double pram_ms = 0.0;
  double kexec_ms = 0.0;
};

// Short calls repeat until this much wall time has passed (ms).
constexpr double kMinCallMs = 2.0;

// One repetition: a whole InPlaceTransplant::Run on one host, then each
// layer's public call on a second host built from the same seed.
Result<HostSample> HostRep(int vms, const LadderEnv& env, SpanId parent) {
  WallTrace& trace = *env.trace;
  const int64_t it = env.iteration;
  HostSample s;
  {
    HYPERTP_ASSIGN_OR_RETURN(Host host, trace.Time("hv:CreateVm", parent, it, &s.create_ms,
                                                   [&] { return BuildHost(vms, env.seed); }));
    MetricsRegistry registry;
    InPlaceOptions options = TransplantOptions(host, env.threads);
    options.metrics = &registry;
    HYPERTP_ASSIGN_OR_RETURN(
        InPlaceResult result,
        trace.Time("core:InPlaceTransplant::Run", parent, it, &s.inplace_ms, [&] {
          return InPlaceTransplant::Run(std::move(host.xen), HypervisorKind::kKvm, options);
        }));
    s.hits = static_cast<double>(registry.GetCounter("hypertp_pretranslate_hits").value());
    s.invalidations =
        static_cast<double>(registry.GetCounter("hypertp_pretranslate_invalidations").value());
    s.vms_restored = static_cast<double>(result.restored_vms.size());
    s.rollbacks = result.report.outcome == TransplantOutcome::kRolledBack ? 1.0 : 0.0;
  }

  double unused_ms = 0.0;
  HYPERTP_ASSIGN_OR_RETURN(Host host, trace.Time("hv:CreateVm", parent, it, &unused_ms,
                                                 [&] { return BuildHost(vms, env.seed); }));
  Machine& machine = *host.machine;
  Hypervisor& xen = *host.xen;
  const std::vector<VmId> ids = xen.ListVms();
  std::vector<pipeline::PreTranslateRequest> requests;
  std::vector<std::vector<GuestMapping>> maps;
  for (size_t i = 0; i < ids.size(); ++i) {
    HYPERTP_ASSIGN_OR_RETURN(VmInfo info, xen.GetVmInfo(ids[i]));
    requests.push_back({ids[i], info.uid, i + 1, info.vcpus, info.memory_bytes});
    HYPERTP_ASSIGN_OR_RETURN(std::vector<GuestMapping> map, xen.GuestMemoryMap(ids[i]));
    maps.push_back(std::move(map));
  }

  pipeline::PreTranslationCache cache;
  HYPERTP_RETURN_IF_ERROR(
      trace.Time("pipeline:PreTranslateVms", parent, it, &s.pretranslate_ms, [&] {
        return pipeline::PreTranslateVms(xen, machine.profile().costs, requests,
                                         machine.worker_threads(), env.threads, &cache);
      }));

  for (const VmId id : ids) {
    HYPERTP_RETURN_IF_ERROR(xen.PauseVm(id));
  }
  std::vector<UisrVm> states;
  FixupLog fixups;
  HYPERTP_RETURN_IF_ERROR(
      trace.Time("xen:SaveVmToUisr", parent, it, &s.save_ms, [&]() -> Result<void> {
        for (const VmId id : ids) {
          HYPERTP_ASSIGN_OR_RETURN(UisrVm state, xen.SaveVmToUisr(id, &fixups));
          states.push_back(std::move(state));
        }
        return OkResult();
      }));

  std::vector<std::vector<uint8_t>> blobs(states.size());
  s.encode_ms = trace.Time("uisr:EncodeUisrVm", parent, it, &unused_ms, [&] {
    return MeanCallMs(kMinCallMs, [&] {
      for (size_t i = 0; i < states.size(); ++i) {
        blobs[i] = EncodeUisrVm(states[i]);
      }
    });
  });
  for (const std::vector<uint8_t>& blob : blobs) {
    s.blob_bytes += static_cast<double>(blob.size());
    HYPERTP_RETURN_IF_ERROR(DecodeUisrVm(blob));
  }
  size_t decoded = 0;
  s.decode_ms = trace.Time("uisr:DecodeUisrVm", parent, it, &unused_ms, [&] {
    return MeanCallMs(kMinCallMs, [&] {
      for (const std::vector<uint8_t>& blob : blobs) {
        decoded += DecodeUisrVm(blob).ok();
      }
    });
  });
  uint32_t crc = 0;
  s.crc_ms = trace.Time("base:Crc32", parent, it, &unused_ms, [&] {
    return MeanCallMs(kMinCallMs, [&] {
      for (const std::vector<uint8_t>& blob : blobs) {
        crc ^= Crc32(blob);
      }
    });
  });
  size_t vcpus = 0;
  size_t restored_vcpus = 0;
  for (const UisrVm& state : states) {
    vcpus += state.vcpus.size();
  }
  s.kvm_ms = trace.Time("kvm:KvmVcpuFromUisr", parent, it, &unused_ms, [&] {
    return MeanCallMs(kMinCallMs, [&] {
      for (const UisrVm& state : states) {
        for (const UisrVcpu& vcpu : state.vcpus) {
          restored_vcpus += KvmVcpuFromUisr(vcpu).ok();
        }
      }
    });
  });
  if (decoded == 0 || restored_vcpus == 0) {
    return InternalError("host ladder decoded nothing");
  }
  (void)crc;

  PramBuilder builder(machine.memory());
  HYPERTP_RETURN_IF_ERROR(
      trace.Time("pram:PramBuilder::AddFile", parent, it, &s.pram_ms, [&]() -> Result<void> {
        for (size_t i = 0; i < ids.size(); ++i) {
          std::vector<PramPageEntry> entries;
          for (const GuestMapping& m : maps[i]) {
            BuildEntriesForRange(m.gfn, m.mfn, m.frames, true, entries);
          }
          HYPERTP_ASSIGN_OR_RETURN(
              states[i].memory.pram_file_id,
              builder.AddFile("vm:" + std::to_string(requests[i].vm_uid), kVmMemory, true,
                              std::move(entries)));
        }
        return OkResult();
      }));
  HYPERTP_RETURN_IF_ERROR(
      trace.Time("pipeline:EncodeVmStatesIntoPram", parent, it, &s.encode_into_pram_ms, [&] {
        return pipeline::EncodeVmStatesIntoPram(machine.memory(), builder, states, env.threads);
      }));
  HYPERTP_ASSIGN_OR_RETURN(PramHandle handle,
                           trace.Time("pram:Finalize+ParsePram", parent, it, &s.pram_ms, [&] {
                             return builder.Finalize();
                           }));
  HYPERTP_RETURN_IF_ERROR(trace.Time("pram:Finalize+ParsePram", parent, it, &s.pram_ms, [&] {
    return ParsePram(machine.memory(), handle.root_mfn);
  }));

  KexecController kexec(machine);
  HYPERTP_RETURN_IF_ERROR(trace.Time("kexec:LoadImage", parent, it, &s.kexec_ms,
                                     [&] { return kexec.LoadImage(KernelImage::Kvm()); }));
  xen.DetachForMicroReboot();
  HYPERTP_ASSIGN_OR_RETURN(KexecBootResult boot,
                           trace.Time("kexec:Reboot", parent, it, &s.kexec_ms, [&] {
                             return kexec.Reboot(FormatKexecCmdline(handle.root_mfn));
                           }));

  // The restore side: every VM relinked over its surviving guest frames.
  const std::unique_ptr<Hypervisor> kvm = MakeHypervisor(HypervisorKind::kKvm, machine);
  HYPERTP_RETURN_IF_ERROR(
      trace.Time("kvm:RestoreVmFromUisr", parent, it, &s.restore_ms, [&]() -> Result<void> {
        for (const UisrVm& state : states) {
          const PramFile* file = boot.pram.FindFile(state.memory.pram_file_id);
          if (file == nullptr) {
            return DataLossError("PRAM file of uid " + std::to_string(state.vm_uid) + " lost");
          }
          GuestMemoryBinding binding;
          binding.mode = GuestMemoryBinding::Mode::kAdoptInPlace;
          binding.entries = file->entries;
          HYPERTP_RETURN_IF_ERROR(pipeline::RestoreVmState(*kvm, state, binding, &fixups));
        }
        return OkResult();
      }));
  return s;
}

double MedianOf(const std::vector<HostSample>& samples, double HostSample::*field) {
  std::vector<double> values;
  for (const HostSample& s : samples) {
    values.push_back(s.*field);
  }
  return Quantile(std::move(values), 0.5);
}

}  // namespace

std::unique_ptr<Workload> MakeHostWorkload(const Options& options) {
  return std::make_unique<HostWorkload>(options);
}

Result<void> HostLadder(int vms, const LadderEnv& env, MetricSet& out) {
  const SpanId root = env.trace->Begin("ladder:host", env.parent, env.iteration);
  std::vector<HostSample> samples;
  const int reps = env.smoke ? 2 : 8;
  for (int rep = 0; rep < reps; ++rep) {
    const SpanId span = env.trace->Begin("rep", root, env.iteration);
    Result<HostSample> sample = HostRep(vms, env, span);
    env.trace->End(span);
    if (!sample.ok()) {
      return sample.error();
    }
    samples.push_back(*sample);
  }
  env.trace->End(root);

  const auto median = [&](double HostSample::*field) { return MedianOf(samples, field); };
  const double n = vms;
  const double vcpus = n * kVcpusPerVm;
  const double blob_bytes = median(&HostSample::blob_bytes);
  const double hits = median(&HostSample::hits);
  const double invalidations = median(&HostSample::invalidations);
  const double inplace_ms = median(&HostSample::inplace_ms);
  const double parts_ms = median(&HostSample::pretranslate_ms) + median(&HostSample::save_ms) +
                          median(&HostSample::encode_into_pram_ms) + median(&HostSample::pram_ms) +
                          median(&HostSample::kexec_ms) + median(&HostSample::decode_ms) +
                          median(&HostSample::restore_ms);
  out.Set("hv.create_vms_ms", median(&HostSample::create_ms), "ms");
  out.Set("xen.save_vm_us", median(&HostSample::save_ms) * 1e3 / n, "us");
  out.Set("pipeline.pretranslate_ms", median(&HostSample::pretranslate_ms), "ms");
  out.Set("pipeline.pretranslate_hits", hits, "count");
  out.Set("pipeline.pretranslate_invalidations", invalidations, "count");
  out.Set("pipeline.pretranslate_hit_ratio",
          hits + invalidations > 0 ? hits / (hits + invalidations) : 0.0, "fraction");
  out.Set("uisr.encode_gb_s", blob_bytes / (median(&HostSample::encode_ms) * 1e6), "GB/s");
  out.Set("uisr.decode_gb_s", blob_bytes / (median(&HostSample::decode_ms) * 1e6), "GB/s");
  out.Set("uisr.blob_bytes", blob_bytes / n, "B");
  out.Set("base.crc32_gb_s", blob_bytes / (median(&HostSample::crc_ms) * 1e6), "GB/s");
  out.Set("pipeline.encode_into_pram_ms", median(&HostSample::encode_into_pram_ms), "ms");
  out.Set("pram.build_parse_ms", median(&HostSample::pram_ms), "ms");
  out.Set("kexec.reboot_ms", median(&HostSample::kexec_ms), "ms");
  out.Set("kvm.vcpu_from_uisr_us", median(&HostSample::kvm_ms) * 1e3 / vcpus, "us");
  out.Set("kvm.restore_vm_ms", median(&HostSample::restore_ms) / n, "ms");
  out.Set("core.inplace_ms", inplace_ms, "ms");
  out.Set("core.self_ms_est", inplace_ms - parts_ms, "ms");
  out.Set("core.vms_restored", median(&HostSample::vms_restored), "count");
  out.Set("core.rollbacks", median(&HostSample::rollbacks), "count");
  return OkResult();
}

}  // namespace hypertp::perf
