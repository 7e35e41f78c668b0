#include "src/vulndb/exposure_stream.h"

#include <algorithm>
#include <cmath>

#include "src/base/json.h"

namespace hypertp {
namespace {

constexpr double kDaySeconds = 24.0 * 3600.0;

}  // namespace

ExposureStream::ExposureStream(int64_t total_hosts, int64_t total_vms, SimTime start,
                               ExposureStreamOptions options)
    : total_hosts_(std::max<int64_t>(total_hosts, 0)),
      total_vms_(std::max<int64_t>(total_vms, 0)),
      exposed_hosts_(total_hosts_),
      exposed_vms_(total_vms_),
      last_update_(start),
      options_(std::move(options)) {
  if (options_.metrics != nullptr) {
    hosts_upgraded_ = &options_.metrics->GetCounter(options_.metric_prefix + "_hosts_upgraded");
    vms_upgraded_ = &options_.metrics->GetCounter(options_.metric_prefix + "_vms_upgraded");
    fraction_gauge_ =
        &options_.metrics->GetGauge(options_.metric_prefix + "_fraction_vulnerable");
    fraction_gauge_->Set(fraction_vulnerable());
    hosts_reexposed_ =
        &options_.metrics->GetCounter(options_.metric_prefix + "_hosts_reexposed");
    vms_reexposed_ = &options_.metrics->GetCounter(options_.metric_prefix + "_vms_reexposed");
  }
  MaybeRecordPoint(start, /*force=*/true);  // The curve always opens at 1.0.
}

double ExposureStream::fraction_vulnerable() const {
  return total_vms_ > 0 ? static_cast<double>(exposed_vms_) / static_cast<double>(total_vms_)
                        : 0.0;
}

double ExposureStream::exposed_host_days() const { return exposed_host_seconds_ / kDaySeconds; }

double ExposureStream::exposed_vm_days() const { return exposed_vm_seconds_ / kDaySeconds; }

void ExposureStream::Accrue(SimTime t) {
  if (t <= last_update_) {
    return;  // Out-of-order feeds clamp forward; no negative accrual.
  }
  const double dt = ToSeconds(t - last_update_);
  exposed_host_seconds_ += dt * static_cast<double>(exposed_hosts_);
  exposed_vm_seconds_ += dt * static_cast<double>(exposed_vms_);
  last_update_ = t;
}

void ExposureStream::OnHostsSafe(SimTime t, int64_t hosts, int64_t vms) {
  Accrue(t);
  exposed_hosts_ = std::max<int64_t>(exposed_hosts_ - std::max<int64_t>(hosts, 0), 0);
  exposed_vms_ = std::max<int64_t>(exposed_vms_ - std::max<int64_t>(vms, 0), 0);
  if (hosts_upgraded_ != nullptr) {
    hosts_upgraded_->Increment(static_cast<uint64_t>(std::max<int64_t>(hosts, 0)));
    vms_upgraded_->Increment(static_cast<uint64_t>(std::max<int64_t>(vms, 0)));
    fraction_gauge_->Set(fraction_vulnerable());
  }
  MaybeRecordPoint(last_update_, /*force=*/exposed_vms_ == 0);
}

void ExposureStream::OnHostsExposed(SimTime t, int64_t hosts, int64_t vms) {
  Accrue(t);
  exposed_hosts_ = std::min<int64_t>(exposed_hosts_ + std::max<int64_t>(hosts, 0), total_hosts_);
  exposed_vms_ = std::min<int64_t>(exposed_vms_ + std::max<int64_t>(vms, 0), total_vms_);
  if (hosts_reexposed_ != nullptr) {
    hosts_reexposed_->Increment(static_cast<uint64_t>(std::max<int64_t>(hosts, 0)));
    vms_reexposed_->Increment(static_cast<uint64_t>(std::max<int64_t>(vms, 0)));
    fraction_gauge_->Set(fraction_vulnerable());
  }
  MaybeRecordPoint(last_update_, /*force=*/false);
}

void ExposureStream::OnHostsDelta(SimTime t, int64_t hosts, int64_t vms) {
  if (hosts < 0) {
    OnHostsSafe(t, -hosts, -vms);
  } else {
    OnHostsExposed(t, hosts, vms);
  }
}

void ExposureStream::AdvanceTo(SimTime t) { Accrue(t); }

void ExposureStream::Seal(SimTime t) {
  Accrue(t);
  MaybeRecordPoint(last_update_, /*force=*/true);
}

void ExposureStream::MaybeRecordPoint(SimTime t, bool force) {
  const double fraction = fraction_vulnerable();
  // Absolute delta: re-exposure (fraction rising under a fault storm) must
  // trigger points too, not just the monotone decay.
  if (!force && !curve_.empty() &&
      std::abs(last_recorded_fraction_ - fraction) < options_.min_fraction_delta) {
    return;
  }
  if (!curve_.empty() && curve_.back().time == t && curve_.back().fraction == fraction) {
    return;  // Seal() after a final event at the same instant: no duplicate.
  }
  curve_.push_back(ExposureCurvePoint{t, exposed_vms_, fraction});
  last_recorded_fraction_ = fraction;
  if (options_.tracer != nullptr) {
    const SpanId mark = options_.tracer->AddInstant("exposure", t, "exposure");
    options_.tracer->SetAttribute(mark, "fraction", fraction);
    options_.tracer->SetAttribute(mark, "exposed_vms", exposed_vms_);
  }
}

std::string ExposureStream::ToJson() const {
  JsonWriter j;
  j.BeginObject();
  j.Key("kind").String("exposure_stream");
  j.Key("total_hosts").Number(total_hosts_);
  j.Key("total_vms").Number(total_vms_);
  j.Key("exposed_hosts").Number(exposed_hosts_);
  j.Key("exposed_vms").Number(exposed_vms_);
  j.Key("fraction_vulnerable").Number(fraction_vulnerable());
  j.Key("exposed_host_days").Number(exposed_host_days());
  j.Key("exposed_vm_days").Number(exposed_vm_days());
  j.Key("curve").BeginArray();
  for (const ExposureCurvePoint& point : curve_) {
    j.BeginArray();
    j.Number(ToMillis(point.time));
    j.Number(point.exposed_vms);
    j.Number(point.fraction);
    j.EndArray();
  }
  j.EndArray();
  j.EndObject();
  return j.Take();
}

}  // namespace hypertp
