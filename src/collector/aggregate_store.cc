#include "collector/aggregate_store.h"

#include <algorithm>
#include <map>
#include <utility>

#include "crowd/dataset.h"

namespace mopcollect {

const AggregateEntry* AggregateStore::Find(const AggregateKey& key) const {
  auto it = entries_.find(key.Packed());
  return it == entries_.end() ? nullptr : &it->second;
}

size_t AggregateStore::ApproxMemoryBytes() const {
  // Key + entry + one bucket pointer per node; buckets for the table array.
  size_t bytes = sizeof(*this) + entries_.bucket_count() * sizeof(void*);
  for (const auto& [packed, entry] : entries_) {
    bytes += sizeof(uint64_t) + sizeof(AggregateEntry) + 2 * sizeof(void*);
    bytes += entry.quantiles.bucket_count() * sizeof(uint32_t);
  }
  return bytes;
}

std::vector<AppStat> TcpAppStatsOf(const AggregateStore& store, const Interner& apps,
                                   size_t min_count) {
  std::unordered_map<uint16_t, AggregateEntry> by_app;
  for (const auto& [packed, entry] : store.entries()) {
    const AggregateKey key = AggregateKey::Unpack(packed);
    if (key.kind == static_cast<uint8_t>(mopcrowd::RecordKind::kTcp)) {
      by_app[key.app_id].MergeFrom(entry);
    }
  }
  std::vector<AppStat> out;
  for (const auto& [app, entry] : by_app) {
    if (entry.count() < min_count) {
      continue;
    }
    out.push_back({apps.Name(app), entry.count(), entry.median_ms(), entry.p95_ms(),
                   entry.mean_ms()});
  }
  std::sort(out.begin(), out.end(), [](const AppStat& a, const AppStat& b) {
    return a.count != b.count ? a.count > b.count : a.app < b.app;
  });
  return out;
}

std::vector<IspDnsStat> IspDnsStatsOf(const AggregateStore& store, const Interner& isps,
                                      size_t min_count) {
  std::map<std::pair<uint16_t, uint8_t>, AggregateEntry> by_isp_net;
  for (const auto& [packed, entry] : store.entries()) {
    const AggregateKey key = AggregateKey::Unpack(packed);
    if (key.kind == static_cast<uint8_t>(mopcrowd::RecordKind::kDns)) {
      by_isp_net[{key.isp_id, key.net_type}].MergeFrom(entry);
    }
  }
  std::vector<IspDnsStat> out;
  for (const auto& [isp_net, entry] : by_isp_net) {
    if (entry.count() < min_count) {
      continue;
    }
    out.push_back({isps.Name(isp_net.first), isp_net.second, entry.count(), entry.median_ms(),
                   entry.p95_ms()});
  }
  std::sort(out.begin(), out.end(), [](const IspDnsStat& a, const IspDnsStat& b) {
    if (a.count != b.count) {
      return a.count > b.count;
    }
    if (a.isp != b.isp) {
      return a.isp < b.isp;
    }
    return a.net_type < b.net_type;
  });
  return out;
}

}  // namespace mopcollect
