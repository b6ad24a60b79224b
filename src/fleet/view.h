// FleetView: the merged query plane over a collector fleet.
//
// Every source is a const mopcollect::CollectorState: a live
// CollectorServer's own state (CollectorServer::state(), read by reference
// and re-read on every Refresh) or the state of a collector not running
// here (e.g. a decoded snapshot file, owned by the view). Refresh() runs one
// merge loop over the sources in attach order and rebuilds one merged
// AggregateStore: it walks each source's entry map in place, remaps the
// per-collector interner ids of every key onto the view's own id spaces, and
// folds entries with the same remapped key together — sums add and the
// log-bucket sketches (whose totals are the counts) merge by bucket addition,
// so any merged quantile carries the same 2% guarantee as a single
// collector's. The per-app and per-ISP queries then merge the fine
// keys of each row, exactly as a single collector's queries do.
#ifndef MOPEYE_FLEET_VIEW_H_
#define MOPEYE_FLEET_VIEW_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "collector/aggregate_store.h"
#include "collector/server.h"

namespace mopfleet {

class FleetView {
 public:
  // Live source: `server` must outlive the view; its current state is
  // re-read on every Refresh() (cheap polling — the stores are O(keys)).
  void AttachCollector(const mopcollect::CollectorServer* server);
  // Offline source from pre-loaded state (e.g. ReadSnapshotFile), folded on
  // every Refresh().
  void AttachState(mopcollect::CollectorState state);

  size_t source_count() const { return sources_.size(); }

  // Rebuilds the merged store + interners from all sources.
  void Refresh();

  // ---- Merged queries ----

  // The merged store. Keys use the view's interners below.
  const mopcollect::AggregateStore& store() const { return merged_; }
  const mopcollect::Interner& apps() const { return apps_; }
  const mopcollect::Interner& isps() const { return isps_; }
  const mopcollect::Interner& countries() const { return countries_; }

  // Total records ingested across the fleet (sum of collector counters,
  // which snapshots preserve across restarts).
  uint64_t records_ingested() const { return records_ingested_; }

  // Fleet-wide crowd health: per-collector HealthStores merged on Refresh()
  // (counters and histogram buckets add; a device's gauges resolve by frame
  // seq, so a device that failed over between collectors counts once).
  const mopcollect::HealthStore& health() const { return health_; }

  // Fig. 9 / Fig. 11-style fleet-wide stats (log-bucket quantiles).
  std::vector<mopcollect::AppStat> TcpAppStats(size_t min_count = 1) const {
    return TcpAppStatsOf(merged_, apps_, min_count);
  }
  std::vector<mopcollect::IspDnsStat> IspDnsStats(size_t min_count = 1) const {
    return IspDnsStatsOf(merged_, isps_, min_count);
  }

 private:
  // Attach order; live sources point into their server, offline ones into
  // owned_ (heap-held, so the pointers stay valid as owned_ grows).
  std::vector<const mopcollect::CollectorState*> sources_;
  std::vector<std::unique_ptr<const mopcollect::CollectorState>> owned_;
  mopcollect::AggregateStore merged_;
  mopcollect::Interner apps_, isps_, countries_;
  mopcollect::HealthStore health_;
  uint64_t records_ingested_ = 0;
};

}  // namespace mopfleet

#endif  // MOPEYE_FLEET_VIEW_H_
