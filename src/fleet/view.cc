#include "fleet/view.h"

#include <utility>

namespace mopfleet {

using mopcollect::AggregateKey;
using mopcollect::AggregateStore;
using mopcollect::Interner;
using mopcollect::kNoneId;

FleetView::FleetView(size_t shards) : shards_(shards), merged_(shards) {}

void FleetView::AttachCollector(const mopcollect::CollectorServer* server) {
  live_.push_back(server);
}

void FleetView::AttachState(mopcollect::CollectorState state) {
  offline_.push_back(std::move(state));
}

void FleetView::Refresh() {
  merged_ = AggregateStore(shards_);
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
  auto build = [](const Interner& src, Interner* dst) {
    std::vector<uint16_t> map(src.size());
    for (size_t i = 0; i < src.size(); ++i) {
      map[i] = dst->Intern(src.names()[i]);
    }
    return map;
  };
  std::vector<uint16_t> app_map = build(src_apps, &apps_);
  std::vector<uint16_t> isp_map = build(src_isps, &isps_);
  std::vector<uint16_t> country_map = build(src_countries, &countries_);

  auto translate = [](const std::vector<uint16_t>& map, uint16_t id) {
    // kNoneId lies past every interner and stays unattributed; so does any
    // other id past the source's interner rather than alias another name.
    return id < map.size() ? map[id] : kNoneId;
  };

  merged_.MergeFrom(store, [&](const AggregateKey& key) {
    AggregateKey out = key;
    out.app_id = translate(app_map, key.app_id);
    out.isp_id = translate(isp_map, key.isp_id);
    out.country_id = translate(country_map, key.country_id);
    return out;
  });
}

}  // namespace mopfleet
