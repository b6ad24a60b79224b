#include "fleet/view.h"

#include <utility>

namespace mopfleet {

using mopcollect::AggregateKey;
using mopcollect::AggregateStore;
using mopcollect::Interner;
using mopcollect::kNoneId;

void FleetView::AttachCollector(const mopcollect::CollectorServer* server) {
  live_.push_back(server);
}

void FleetView::AttachState(mopcollect::CollectorState state) {
  offline_.push_back(std::move(state));
}

void FleetView::Refresh() {
  merged_ = AggregateStore();
  apps_ = Interner();
  isps_ = Interner();
  countries_ = Interner();
  health_ = mopcollect::HealthStore();
  records_ingested_ = 0;
  for (const auto* server : live_) {
    MergeSource(server->store(), server->apps(), server->isps(), server->countries());
    health_.MergeFrom(server->health());
    records_ingested_ += server->counters().records_ingested;
  }
  for (const auto& state : offline_) {
    MergeSource(state.store, state.apps, state.isps, state.countries);
    health_.MergeFrom(state.health);
    records_ingested_ += state.records_ingested;
  }
}

void FleetView::MergeSource(const AggregateStore& store, const Interner& src_apps,
                            const Interner& src_isps, const Interner& src_countries) {
  // Remap the source's dense id spaces onto the view's: one table per axis,
  // built once, then every key translates in O(1).
  const std::vector<uint16_t> app_map = apps_.InternAll(src_apps.names());
  const std::vector<uint16_t> isp_map = isps_.InternAll(src_isps.names());
  const std::vector<uint16_t> country_map = countries_.InternAll(src_countries.names());
  auto translate = [](const std::vector<uint16_t>& map, uint16_t id) {
    // kNoneId lies past every interner and stays unattributed; so does any
    // other id past the source's interner rather than alias another name.
    return id < map.size() ? map[id] : kNoneId;
  };

  for (const auto& [packed, entry] : store.entries()) {
    AggregateKey key = AggregateKey::Unpack(packed);
    key.app_id = translate(app_map, key.app_id);
    key.isp_id = translate(isp_map, key.isp_id);
    key.country_id = translate(country_map, key.country_id);
    merged_.MutableEntry(key).MergeFrom(entry);
  }
  merged_.set_samples_folded(merged_.samples_folded() + store.samples_folded());
}

}  // namespace mopfleet
