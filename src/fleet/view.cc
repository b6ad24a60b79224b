#include "fleet/view.h"

#include <memory>
#include <utility>

namespace mopfleet {

using mopcollect::AggregateKey;
using mopcollect::CollectorState;
using mopcollect::kNoneId;

void FleetView::AttachCollector(const mopcollect::CollectorServer* server) {
  sources_.push_back(&server->state());
}

void FleetView::AttachState(CollectorState state) {
  owned_.push_back(std::make_unique<const CollectorState>(std::move(state)));
  sources_.push_back(owned_.back().get());
}

void FleetView::Refresh() {
  merged_ = mopcollect::AggregateStore();
  apps_ = mopcollect::Interner();
  isps_ = mopcollect::Interner();
  countries_ = mopcollect::Interner();
  health_ = mopcollect::HealthStore();
  records_ingested_ = 0;
  auto translate = [](const std::vector<uint16_t>& map, uint16_t id) {
    // kNoneId lies past every interner and stays unattributed; so does any
    // other id past the source's interner rather than alias another name.
    return id < map.size() ? map[id] : kNoneId;
  };
  for (const CollectorState* source : sources_) {
    // Remap the source's dense id spaces onto the view's: one table per
    // axis, built once, then every key translates in O(1).
    const std::vector<uint16_t> app_map = apps_.InternAll(source->apps.names());
    const std::vector<uint16_t> isp_map = isps_.InternAll(source->isps.names());
    const std::vector<uint16_t> country_map = countries_.InternAll(source->countries.names());
    for (const auto& [packed, entry] : source->store.entries()) {
      AggregateKey key = AggregateKey::Unpack(packed);
      key.app_id = translate(app_map, key.app_id);
      key.isp_id = translate(isp_map, key.isp_id);
      key.country_id = translate(country_map, key.country_id);
      merged_.MutableEntry(key).MergeFrom(entry);
    }
    merged_.set_samples_folded(merged_.samples_folded() + source->store.samples_folded());
    health_.MergeFrom(source->health);
    records_ingested_ += source->records_ingested;
  }
}

}  // namespace mopfleet
