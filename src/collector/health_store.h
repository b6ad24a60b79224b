// HealthStore: the crowd *system*-health aggregate, sitting beside
// AggregateStore the way Prometheus sits beside a data warehouse. Collectors
// fold WireTelemetry frames (per-device moptel registry deltas piggybacked on
// upload batches) into it; FleetView merges per-collector stores into
// fleet-wide rollups. Because counters and histogram sketches arrive as
// deltas deduplicated by (device, seq) and histogram buckets add losslessly,
// every rollup is *exact* — equal to summing the per-device registries
// in-process — which fleet_e2e asserts in CI.
//
// Value-semantic and single-threaded (collector event-loop owned). It is
// part of the collector's CollectorState, which snapshots encode in place
// and restarts move back in. It holds the few metrics the device allowlist
// exports in one name-keyed map.
#ifndef MOPEYE_COLLECTOR_HEALTH_STORE_H_
#define MOPEYE_COLLECTOR_HEALTH_STORE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <string_view>

#include "collector/wire.h"
#include "util/stats.h"

namespace mopcollect {

class HealthStore {
 public:
  // Latest absolute reading from one device; the frame seq decides freshness
  // (wrap-aware) so out-of-order or cross-collector duplicates never regress
  // a gauge.
  struct GaugeCell {
    uint32_t seq = 0;
    uint64_t value = 0;

    bool operator==(const GaugeCell&) const = default;
  };

  // One crowd metric. kind mirrors moptel::MetricSample::Kind on the wire
  // (0 counter, 1 gauge, 2 histogram); exactly one of the value groups is
  // meaningful for a given kind.
  struct Metric {
    uint8_t kind = 0;
    uint8_t merge = 0;  // gauges: 0 = sum across devices, 1 = max
    uint64_t counter = 0;
    std::map<uint32_t, GaugeCell> gauges;  // device -> latest reading
    double rel_err = 0;
    double sum = 0;
    uint64_t zero_or_less = 0;
    std::map<int32_t, uint64_t> buckets;  // abs log-bucket index -> count

    // Crowd gauge rollup: fold device readings by `merge`.
    uint64_t GaugeValue() const;
    // Total histogram observation count.
    uint64_t HistCount() const;

    bool operator==(const Metric&) const = default;
  };

  // Folds one deduplicated telemetry frame. Entries whose kind/geometry
  // conflict with the existing metric are dropped and counted (a device
  // shipping a different metric shape than the crowd consensus must not
  // corrupt the rollup).
  void Fold(const WireTelemetry& t);
  // `seq` is the frame seq (gauge freshness key).
  void FoldEntry(uint32_t device_id, uint32_t seq, const WireHealthEntry& e);

  // Merges another store in (fleet rollup, snapshot import). Counters and
  // histogram buckets add; gauges take the fresher (higher-seq) reading per
  // device; device sets union. A metric whose shape conflicts with the
  // stored one by FoldEntry's rule (kind, gauge merge rule, histogram
  // rel_err) is skipped and counted as a conflict, so a merged view never
  // holds a mix no single collector would have folded.
  void MergeFrom(const HealthStore& o);

  const Metric* Find(std::string_view name) const;
  bool CounterValue(std::string_view name, uint64_t* out) const;
  bool GaugeValue(std::string_view name, uint64_t* out) const;
  // Histogram quantile (percentile in [0,100]) rebuilt through the exact
  // log-bucket sketch; false when absent or empty.
  bool HistQuantile(std::string_view name, double percentile, double* out) const;

  // All metrics, name-sorted.
  const std::map<std::string, Metric, std::less<>>& metrics() const { return metrics_; }
  // Snapshot restore: installs a fully-formed metric under `name`.
  void RestoreMetric(const std::string& name, Metric m);
  void NoteDevice(uint32_t device_id) { devices_.insert(device_id); }

  size_t metric_count() const { return metrics_.size(); }
  size_t device_count() const { return devices_.size(); }
  const std::set<uint32_t>& devices() const { return devices_; }
  uint64_t folds() const { return folds_; }
  uint64_t conflicts() const { return conflicts_; }
  void set_tallies(uint64_t folds, uint64_t conflicts) {
    folds_ = folds;
    conflicts_ = conflicts;
  }

  // Prometheus-style exposition of the crowd rollups. Device metric
  // "mopeye_foo" surfaces as "mopeye_crowd_foo" (histograms as summaries),
  // plus meta-gauges mopeye_crowd_devices / mopeye_crowd_health_metrics.
  std::string RenderText() const;

  bool operator==(const HealthStore&) const = default;

 private:
  std::map<std::string, Metric, std::less<>> metrics_;
  std::set<uint32_t> devices_;  // every device that contributed health
  uint64_t folds_ = 0;          // telemetry frames folded
  uint64_t conflicts_ = 0;      // entries dropped on shape mismatch
};

// "mopeye_foo_total" -> "mopeye_crowd_foo_total"; names without the
// "mopeye_" prefix gain "mopeye_crowd_" whole.
std::string CrowdMetricName(std::string_view device_metric);

}  // namespace mopcollect

#endif  // MOPEYE_COLLECTOR_HEALTH_STORE_H_
