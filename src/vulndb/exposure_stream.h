// Streaming exposure analytics: the live "fraction of the fleet still
// vulnerable" curve of a transplant campaign.
//
// The closed-form window model (window_model.h) reports exposure *post hoc*:
// the integral exists only after the run finishes. A campaign over 100k hosts
// needs the opposite — an incremental stream fed by shard events while the
// campaign is in flight, so SLO governors and dashboards see exposure decay
// as it happens. The stream maintains the exposed host/VM counts, the running
// exposure integral and a downsampled curve, and mirrors every update into
// the tracer/metrics layer (src/obs/) when instruments are attached. It is
// the one integrator of simulated exposure: a FleetController only records
// ExposureDeltas, and whoever drives it (the campaign, or a standalone
// caller) feeds them here.
//
// During an undisturbed campaign hosts only ever *leave* the vulnerable set
// (failed hosts stay exposed but never re-expose an upgraded one), so the
// fraction is monotonically non-increasing — campaign_test pins this. A fault
// storm breaks that one-way flow: a crash-induced rollback salvages an
// upgraded host back onto the vulnerable kind, and OnHostsExposed() feeds
// that re-exposure so the curve honestly ticks back up.

#ifndef HYPERTP_SRC_VULNDB_EXPOSURE_STREAM_H_
#define HYPERTP_SRC_VULNDB_EXPOSURE_STREAM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/sim/time.h"

namespace hypertp {

// One downsampled sample of the live curve.
struct ExposureCurvePoint {
  SimTime time = 0;
  int64_t exposed_vms = 0;
  double fraction = 0.0;  // VM-weighted fraction still vulnerable.
};

struct ExposureStreamOptions {
  // When non-null, every recorded curve point lands as an instant on track
  // "exposure" (attribute "fraction"), and the gauge/counters below update on
  // every ingested event:
  //   campaign_fraction_vulnerable  (gauge)
  //   campaign_hosts_upgraded       (counter)
  //   campaign_vms_upgraded         (counter)
  //   campaign_hosts_reexposed      (counter, OnHostsExposed)
  //   campaign_vms_reexposed        (counter)
  Tracer* tracer = nullptr;
  MetricsRegistry* metrics = nullptr;
};

class ExposureStream {
 public:
  // A curve point records only when the fraction moved at least this much in
  // either direction since the last recorded point (the first and last points
  // always record). Keeps a million-VM campaign's curve at ~1/epsilon points.
  static constexpr double kMinFractionDelta = 0.001;

  // The stream opens at `start` with the whole fleet exposed.
  ExposureStream(int64_t total_hosts, int64_t total_vms, SimTime start = 0,
                 ExposureStreamOptions options = {});

  // `hosts` hosts carrying `vms` VMs reached the safe hypervisor at `t`.
  // Feed in non-decreasing time order (the campaign merges shard events by
  // timestamp first); `t` earlier than the last update clamps forward.
  void OnHostsSafe(SimTime t, int64_t hosts, int64_t vms);

  // The reverse flow: `hosts`/`vms` returned to the vulnerable hypervisor at
  // `t` (crash-induced rollback during a fault storm). Clamped to the fleet
  // totals. Mirrors into campaign_hosts_reexposed / campaign_vms_reexposed.
  void OnHostsExposed(SimTime t, int64_t hosts, int64_t vms);

  // One signed net change, as a FleetController's ExposureDelta carries it:
  // negative `hosts`/`vms` go to OnHostsSafe, the rest to OnHostsExposed
  // (zero only accrues the integral to `t`).
  void OnHostsDelta(SimTime t, int64_t hosts, int64_t vms);

  // Advances the exposure integral to `t` with no membership change (epoch
  // barriers, and the campaign end).
  void AdvanceTo(SimTime t);

  // Force-records the current state as a curve point (campaign end), so the
  // exported curve always closes at the final fraction.
  void Seal(SimTime t);

  int64_t total_hosts() const { return total_hosts_; }
  int64_t total_vms() const { return total_vms_; }
  int64_t exposed_hosts() const { return exposed_hosts_; }
  int64_t exposed_vms() const { return exposed_vms_; }
  SimTime last_update() const { return last_update_; }
  // VM-weighted fraction of the fleet still on the vulnerable hypervisor.
  double fraction_vulnerable() const;
  // Running integrals up to last_update().
  double exposed_host_days() const;
  double exposed_vm_days() const;
  const std::vector<ExposureCurvePoint>& curve() const { return curve_; }

  // {"kind":"exposure_stream", totals, integrals, "curve":[[ms,vms,frac]..]}.
  std::string ToJson() const;

 private:
  void Accrue(SimTime t);
  void MaybeRecordPoint(SimTime t, bool force);

  int64_t total_hosts_;
  int64_t total_vms_;
  int64_t exposed_hosts_;
  int64_t exposed_vms_;
  SimTime last_update_;
  double exposed_host_seconds_ = 0.0;
  double exposed_vm_seconds_ = 0.0;
  std::vector<ExposureCurvePoint> curve_;
  double last_recorded_fraction_ = 1.0;
  ExposureStreamOptions options_;
  Counter* hosts_upgraded_ = nullptr;
  Counter* vms_upgraded_ = nullptr;
  Gauge* fraction_gauge_ = nullptr;
  Counter* hosts_reexposed_ = nullptr;
  Counter* vms_reexposed_ = nullptr;
};

}  // namespace hypertp

#endif  // HYPERTP_SRC_VULNDB_EXPOSURE_STREAM_H_
