#include "collector/aggregate_store.h"

#include <algorithm>
#include <functional>
#include <map>
#include <utility>

#include "crowd/dataset.h"
#include "util/hash.h"

namespace mopcollect {

AggregateStore::AggregateStore(size_t shard_count)
    : shards_(shard_count == 0 ? 1 : shard_count) {}

// Keys are mixed before sharding so adjacent packed ids spread uniformly.
size_t AggregateStore::ShardOf(uint64_t packed) const {
  return static_cast<size_t>(moputil::Mix64(packed) % shards_.size());
}

void AggregateStore::Add(const AggregateKey& key, double rtt_ms) {
  uint64_t packed = key.Packed();
  shards_[ShardOf(packed)].entries[packed].Add(rtt_ms);
  ++samples_folded_;
}

const AggregateEntry* AggregateStore::Find(const AggregateKey& key) const {
  uint64_t packed = key.Packed();
  const Shard& shard = shards_[ShardOf(packed)];
  auto it = shard.entries.find(packed);
  return it == shard.entries.end() ? nullptr : &it->second;
}

AggregateEntry& AggregateStore::MutableEntry(const AggregateKey& key) {
  uint64_t packed = key.Packed();
  return shards_[ShardOf(packed)].entries[packed];
}

void AggregateStore::MergeFrom(const AggregateStore& src,
                               const std::function<AggregateKey(const AggregateKey&)>& remap) {
  for (const Shard& shard : src.shards_) {
    for (const auto& [packed, entry] : shard.entries) {
      AggregateKey key = AggregateKey::Unpack(packed);
      MutableEntry(remap ? remap(key) : key).MergeFrom(entry);
    }
  }
  samples_folded_ += src.samples_folded_;
}

std::vector<std::pair<AggregateKey, const AggregateEntry*>> AggregateStore::Entries() const {
  std::vector<std::pair<AggregateKey, const AggregateEntry*>> out;
  out.reserve(key_count());
  for (const Shard& shard : shards_) {
    for (const auto& [packed, entry] : shard.entries) {
      out.emplace_back(AggregateKey::Unpack(packed), &entry);
    }
  }
  return out;
}

size_t AggregateStore::key_count() const {
  size_t n = 0;
  for (const Shard& shard : shards_) {
    n += shard.entries.size();
  }
  return n;
}

size_t AggregateStore::ApproxMemoryBytes() const {
  // Key + entry + one bucket pointer per node; buckets for the table arrays.
  size_t bytes = sizeof(*this) + shards_.size() * sizeof(Shard);
  for (const Shard& shard : shards_) {
    bytes += shard.entries.size() *
             (sizeof(uint64_t) + sizeof(AggregateEntry) + 2 * sizeof(void*));
    bytes += shard.entries.bucket_count() * sizeof(void*);
    for (const auto& [packed, entry] : shard.entries) {
      bytes += entry.quantiles.bucket_count() * sizeof(uint32_t);
    }
  }
  return bytes;
}

std::vector<AppStat> TcpAppStatsOf(const AggregateStore& store, const Interner& apps,
                                   size_t min_count) {
  std::unordered_map<uint16_t, AggregateEntry> by_app;
  for (const auto& [key, entry] : store.Entries()) {
    if (key.kind == static_cast<uint8_t>(mopcrowd::RecordKind::kTcp)) {
      by_app[key.app_id].MergeFrom(*entry);
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
  for (const auto& [key, entry] : store.Entries()) {
    if (key.kind == static_cast<uint8_t>(mopcrowd::RecordKind::kDns)) {
      by_isp_net[{key.isp_id, key.net_type}].MergeFrom(*entry);
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
