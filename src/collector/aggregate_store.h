// Streaming aggregates over ingested crowd measurements.
//
// The collector never keeps the raw record stream in memory: each record
// folds once into the entry for its key, holding a log-bucket quantile
// sketch (whose total is the count) and the sum the mean needs — O(1)
// memory per distinct key at millions of records (the paper's 5.25M-record
// dataset collapses to a few thousand keys). Keys are (app, isp, country,
// net_type, kind) global-interner ids. The per-app (Fig. 9) and per-ISP DNS
// (Fig. 11 / Table 6) queries are group-bys over those keys: they merge the
// matching entries at query time, which is exact because the sketches merge
// by bucket addition (the sums to floating-point rounding).
//
// Entries are partitioned into hash shards. Everything runs on one
// deterministic event loop, so shards need no locks.
#ifndef MOPEYE_COLLECTOR_AGGREGATE_STORE_H_
#define MOPEYE_COLLECTOR_AGGREGATE_STORE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "collector/wire.h"
#include "util/stats.h"

namespace mopcollect {

// Global id of a key component the record did not carry. The collector's
// global id spaces are Interner instances (collector/wire.h) shared with the
// wire tables, and kNoneId equals the wire's kNoIndex (the interner caps at
// kMaxTableEntries names, so it is never a real id).
constexpr uint16_t kNoneId = kNoIndex;

struct AggregateKey {
  uint16_t app_id;
  uint16_t isp_id;
  uint16_t country_id;
  uint8_t net_type;  // mopnet::NetType
  uint8_t kind;      // mopcrowd::RecordKind

  uint64_t Packed() const {
    return (static_cast<uint64_t>(app_id) << 48) | (static_cast<uint64_t>(isp_id) << 32) |
           (static_cast<uint64_t>(country_id) << 16) | (static_cast<uint64_t>(net_type) << 8) |
           kind;
  }
  static AggregateKey Unpack(uint64_t packed) {
    return {static_cast<uint16_t>(packed >> 48), static_cast<uint16_t>(packed >> 32),
            static_cast<uint16_t>(packed >> 16), static_cast<uint8_t>(packed >> 8),
            static_cast<uint8_t>(packed)};
  }
  bool operator==(const AggregateKey&) const = default;
};

// Streaming median/P95 plus the sum the mean needs; the count is the
// sketch's total. No raw samples retained.
//
// The log-bucket sketch is order-insensitive with a guaranteed 2% relative
// error, and merges exactly by bucket addition, so a fleet-merged entry
// answers the same queries as a single collector's.
struct AggregateEntry {
  static constexpr double kRelErr = 0.02;

  moputil::LogQuantile quantiles{kRelErr};
  double sum_ms = 0;

  void Add(double rtt_ms) {
    quantiles.Add(rtt_ms);
    sum_ms += rtt_ms;
  }

  // Folds `o` in: as if both entries' streams had been Add()ed here.
  void MergeFrom(const AggregateEntry& o) {
    quantiles.MergeFrom(o.quantiles);
    sum_ms += o.sum_ms;
  }

  size_t count() const { return quantiles.count(); }
  double mean_ms() const { return count() ? sum_ms / static_cast<double>(count()) : 0.0; }
  double median_ms() const { return quantiles.Median(); }
  double p95_ms() const { return quantiles.Quantile(95.0); }
};

class AggregateStore {
 public:
  explicit AggregateStore(size_t shard_count = 16);

  // Folds one RTT into the entry for `key` (creating it on first sight).
  void Add(const AggregateKey& key, double rtt_ms);

  // Entry lookup; null when the key was never fed.
  const AggregateEntry* Find(const AggregateKey& key) const;

  // Mutable entry for `key`, creating it if absent (snapshot restore and
  // store merging; regular ingest goes through Add).
  AggregateEntry& MutableEntry(const AggregateKey& key);

  // Folds every entry of `src` into this store, routing each key through
  // `remap` first (a fleet view remaps per-collector interner ids onto its
  // merged id spaces; pass identity to merge stores sharing interners).
  void MergeFrom(const AggregateStore& src,
                 const std::function<AggregateKey(const AggregateKey&)>& remap);

  // All (key, entry) pairs, shard by shard (iteration order is unspecified
  // within a shard).
  std::vector<std::pair<AggregateKey, const AggregateEntry*>> Entries() const;

  size_t key_count() const;
  uint64_t samples_folded() const { return samples_folded_; }
  void set_samples_folded(uint64_t n) { samples_folded_ = n; }
  size_t shard_count() const { return shards_.size(); }
  size_t shard_key_count(size_t shard) const { return shards_[shard].entries.size(); }
  // Resident-size estimate of the aggregate state (entries + hash overhead).
  size_t ApproxMemoryBytes() const;

 private:
  struct Shard {
    std::unordered_map<uint64_t, AggregateEntry> entries;
  };

  size_t ShardOf(uint64_t packed) const;

  std::vector<Shard> shards_;
  uint64_t samples_folded_ = 0;
};

// ---- Query plane over a store + its interners ----
//
// Shared by CollectorServer (one collector's aggregates) and mopfleet's
// FleetView (the merged union of many collectors). Each query is one pass
// over the store's keys: the entries of a row are merged, so a row's count
// and quantiles equal those of one entry fed the row's whole stream.

struct AppStat {
  std::string app;
  size_t count = 0;
  double median_ms = 0;
  double p95_ms = 0;
  double mean_ms = 0;
};
// Fig. 9-style per-app TCP RTT stats (all ISPs, countries and networks
// merged), apps with at least `min_count` records, sorted by count
// descending. Records without an app form the "(none)" row.
std::vector<AppStat> TcpAppStatsOf(const AggregateStore& store, const Interner& apps,
                                   size_t min_count = 1);

struct IspDnsStat {
  std::string isp;
  uint8_t net_type = 0;
  size_t count = 0;
  double median_ms = 0;
  double p95_ms = 0;
};
// Fig. 11 / Table 6-style per-(ISP, net type) DNS stats (all apps and
// countries merged), sorted by count descending. Records without an ISP form
// the "(none)" rows.
std::vector<IspDnsStat> IspDnsStatsOf(const AggregateStore& store, const Interner& isps,
                                      size_t min_count = 1);

}  // namespace mopcollect

#endif  // MOPEYE_COLLECTOR_AGGREGATE_STORE_H_
