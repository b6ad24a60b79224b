#include "fleet/snapshot.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdio>
#include <unordered_set>
#include <utility>

#include "collector/aggregate_store.h"
#include "collector/wire.h"
#include "util/strings.h"

namespace mopfleet {

using mopcollect::AggregateEntry;
using mopcollect::AggregateKey;
using mopcollect::ByteReader;
using mopcollect::CollectorServer;
using mopcollect::CollectorState;

uint32_t Crc32(std::span<const uint8_t> data) {
  // CRC-32/IEEE, reflected, sliced by 8. Table 0 is the byte-wise table;
  // table k advances a byte's contribution through k more zero bytes, so
  // one 8-byte block costs eight lookups. Built on first use.
  static const auto tables = [] {
    std::array<std::array<uint32_t, 256>, 8> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (size_t k = 1; k < t.size(); ++k) {
      for (size_t i = 0; i < 256; ++i) {
        t[k][i] = t[0][t[k - 1][i] & 0xffu] ^ (t[k - 1][i] >> 8);
      }
    }
    return t;
  }();
  auto le32 = [](const uint8_t* p) {
    return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
           (static_cast<uint32_t>(p[2]) << 16) | (static_cast<uint32_t>(p[3]) << 24);
  };
  uint32_t crc = 0xffffffffu;
  const uint8_t* p = data.data();
  size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t lo = le32(p) ^ crc;
    const uint32_t hi = le32(p + 4);
    crc = tables[7][lo & 0xffu] ^ tables[6][(lo >> 8) & 0xffu] ^ tables[5][(lo >> 16) & 0xffu] ^
          tables[4][lo >> 24] ^ tables[3][hi & 0xffu] ^ tables[2][(hi >> 8) & 0xffu] ^
          tables[1][(hi >> 16) & 0xffu] ^ tables[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    crc = tables[0][(crc ^ *p) & 0xffu] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

namespace {

moputil::Status Corrupt(const char* what) {
  return moputil::InvalidArgument(moputil::StrFormat("corrupt snapshot: %s", what));
}

// Smallest possible serialized entry (key, sum, empty log sketch); bounds
// entry_count before the loop so a forged count cannot make the decoder
// reserve unbounded memory.
constexpr size_t kMinEntryBytes = 8 + 8 + (8 + 8 + 4 + 4);
// Versions 1 to 3 carry { u64 count, f64 mean, m2, min, max } in place of the
// sum. Versions 1 and 2 also carry a merged flag byte and two P² sketches of
// u64 count + 15 f64 markers each, which the decoder skips.
constexpr size_t kLegacyMomentsBytes = 5 * 8;
constexpr size_t kLegacyP2Bytes = 2 * (8 + 15 * 8);

size_t MinEntryBytes(uint8_t version) {
  if (version >= 4) {
    return kMinEntryBytes;
  }
  size_t v3 = kMinEntryBytes - 8 + kLegacyMomentsBytes;
  return version == 3 ? v3 : v3 + 1 + kLegacyP2Bytes;
}

// Wildcard key components of the per-app and per-ISP rollup entries
// encoders before version 4 wrote beside the fine keys. The queries merge
// fine keys instead, so the decoder drops these entries.
constexpr uint16_t kLegacyAnyId = 0xfffe;
constexpr uint8_t kLegacyAnyByte = 0xfe;

bool IsLegacyRollup(const AggregateKey& k) {
  return k.app_id == kLegacyAnyId || k.isp_id == kLegacyAnyId || k.country_id == kLegacyAnyId ||
         k.net_type == kLegacyAnyByte || k.kind == kLegacyAnyByte;
}

// An id a restored key may hold: unattributed, or an index into its table.
bool ValidId(uint16_t id, const mopcollect::Interner& table) {
  return id == mopcollect::kNoneId || id < table.size();
}

}  // namespace

std::vector<uint8_t> EncodeSnapshot(const CollectorState& state) {
  std::vector<uint8_t> payload;
  payload.reserve(1024 + state.store.key_count() * 512);

  mopcollect::EncodeStringTable(&payload, state.apps.names());
  mopcollect::EncodeStringTable(&payload, state.isps.names());
  mopcollect::EncodeStringTable(&payload, state.countries.names());

  mopcollect::PutU64(&payload, state.connections);
  mopcollect::PutU64(&payload, state.frames);
  mopcollect::PutU64(&payload, state.batches_ok);
  mopcollect::PutU64(&payload, state.batches_rejected);
  mopcollect::PutU64(&payload, state.batches_duplicate);
  mopcollect::PutU64(&payload, state.records_ingested);
  mopcollect::PutU64(&payload, state.stream_errors);

  mopcollect::PutU32(&payload, static_cast<uint32_t>(state.seen_batches.size()));
  for (const auto& [device, seqs] : state.seen_batches) {
    mopcollect::PutU32(&payload, device);
    mopcollect::PutU32(&payload, static_cast<uint32_t>(seqs.size()));
    for (uint32_t seq : seqs) {
      mopcollect::PutU32(&payload, seq);
    }
  }

  // The store is one map; the shard_count field keeps the layout of files
  // written while it had hash shards.
  mopcollect::PutU32(&payload, 1);
  mopcollect::PutU64(&payload, state.store.samples_folded());

  std::vector<std::pair<uint64_t, const AggregateEntry*>> entries;
  entries.reserve(state.store.key_count());
  for (const auto& [packed, entry] : state.store.entries()) {
    entries.emplace_back(packed, &entry);
  }
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  mopcollect::PutU32(&payload, static_cast<uint32_t>(entries.size()));
  for (const auto& [packed, entry] : entries) {
    mopcollect::PutU64(&payload, packed);
    mopcollect::PutF64(&payload, entry->sum_ms);
    const moputil::LogQuantile& log = entry->quantiles;
    mopcollect::PutU64(&payload, log.count());
    mopcollect::PutU64(&payload, log.zero_or_less());
    mopcollect::PutU32(&payload, std::bit_cast<uint32_t>(log.lo_index()));
    mopcollect::PutU32(&payload, static_cast<uint32_t>(log.buckets().size()));
    mopcollect::PutU32s(&payload, log.buckets());
  }

  // ---- Telemetry dedup, telemetry counters, crowd health ----
  mopcollect::PutU32(&payload, static_cast<uint32_t>(state.seen_telemetry.size()));
  for (const auto& [device, seqs] : state.seen_telemetry) {
    mopcollect::PutU32(&payload, device);
    mopcollect::PutU32(&payload, static_cast<uint32_t>(seqs.size()));
    for (uint32_t seq : seqs) {
      mopcollect::PutU32(&payload, seq);
    }
  }
  mopcollect::PutU64(&payload, state.telemetry_frames);
  mopcollect::PutU64(&payload, state.telemetry_duplicate);
  mopcollect::PutU64(&payload, state.telemetry_rejected);
  mopcollect::PutU64(&payload, state.frames_skipped);

  // HealthStore contents, name-sorted and with std::map iteration orders
  // inside each metric — canonical bytes for equal states.
  const auto& health_metrics = state.health.metrics();
  mopcollect::PutU32(&payload, static_cast<uint32_t>(health_metrics.size()));
  for (const auto& [name, metric] : health_metrics) {
    mopcollect::PutU16(&payload, static_cast<uint16_t>(name.size()));
    payload.insert(payload.end(), name.begin(), name.end());
    mopcollect::PutU8(&payload, metric.kind);
    mopcollect::PutU8(&payload, metric.merge);
    switch (metric.kind) {
      case 0:
        mopcollect::PutU64(&payload, metric.counter);
        break;
      case 1:
        mopcollect::PutU32(&payload, static_cast<uint32_t>(metric.gauges.size()));
        for (const auto& [device, cell] : metric.gauges) {
          mopcollect::PutU32(&payload, device);
          mopcollect::PutU32(&payload, cell.seq);
          mopcollect::PutU64(&payload, cell.value);
        }
        break;
      default:
        mopcollect::PutF64(&payload, metric.rel_err);
        mopcollect::PutF64(&payload, metric.sum);
        mopcollect::PutU64(&payload, metric.zero_or_less);
        mopcollect::PutU32(&payload, static_cast<uint32_t>(metric.buckets.size()));
        for (const auto& [idx, count] : metric.buckets) {
          mopcollect::PutU32(&payload, std::bit_cast<uint32_t>(idx));
          mopcollect::PutU64(&payload, count);
        }
        break;
    }
  }
  mopcollect::PutU32(&payload, static_cast<uint32_t>(state.health.devices().size()));
  for (uint32_t device : state.health.devices()) {
    mopcollect::PutU32(&payload, device);
  }
  mopcollect::PutU64(&payload, state.health.folds());
  mopcollect::PutU64(&payload, state.health.conflicts());

  std::vector<uint8_t> out;
  out.reserve(11 + payload.size());
  mopcollect::PutU16(&out, kSnapshotMagic);
  mopcollect::PutU8(&out, kSnapshotVersion);
  mopcollect::PutU32(&out, static_cast<uint32_t>(payload.size()));
  out.insert(out.end(), payload.begin(), payload.end());
  mopcollect::PutU32(&out, Crc32(payload));
  return out;
}

moputil::Result<CollectorState> DecodeSnapshot(std::span<const uint8_t> bytes) {
  ByteReader header(bytes);
  uint16_t magic = 0;
  uint8_t version = 0;
  uint32_t payload_len = 0;
  if (!header.ReadU16(&magic) || !header.ReadU8(&version) || !header.ReadU32(&payload_len)) {
    return Corrupt("truncated header");
  }
  if (magic != kSnapshotMagic) {
    return Corrupt("bad magic");
  }
  if (version == 0 || version > kSnapshotVersion) {
    return moputil::InvalidArgument(
        moputil::StrFormat("unsupported snapshot version %u", static_cast<unsigned>(version)));
  }
  if (payload_len > kMaxSnapshotPayload) {
    return Corrupt("payload length exceeds limit");
  }
  // The frame must be exact: payload + trailing CRC and nothing else, so
  // every truncation (and any appended garbage) is rejected.
  if (bytes.size() != 7u + payload_len + 4u) {
    return Corrupt("frame length mismatch");
  }
  std::span<const uint8_t> payload = bytes.subspan(7, payload_len);
  ByteReader crc_reader(bytes.subspan(7 + payload_len));
  uint32_t crc = 0;
  (void)crc_reader.ReadU32(&crc);
  if (crc != Crc32(payload)) {
    return Corrupt("CRC mismatch");
  }

  ByteReader r(payload);
  CollectorState state;

  std::vector<std::string> apps, isps, countries;
  if (auto st = mopcollect::DecodeStringTable(&r, "app", &apps); !st.ok()) {
    return st;
  }
  if (auto st = mopcollect::DecodeStringTable(&r, "isp", &isps); !st.ok()) {
    return st;
  }
  if (auto st = mopcollect::DecodeStringTable(&r, "country", &countries); !st.ok()) {
    return st;
  }
  state.apps = mopcollect::Interner::FromNames(apps);
  state.isps = mopcollect::Interner::FromNames(isps);
  state.countries = mopcollect::Interner::FromNames(countries);
  if (state.apps.size() != apps.size() || state.isps.size() != isps.size() ||
      state.countries.size() != countries.size()) {
    return Corrupt("duplicate interner names");
  }

  if (!r.ReadU64(&state.connections) || !r.ReadU64(&state.frames) ||
      !r.ReadU64(&state.batches_ok) || !r.ReadU64(&state.batches_rejected) ||
      !r.ReadU64(&state.batches_duplicate) || !r.ReadU64(&state.records_ingested) ||
      !r.ReadU64(&state.stream_errors)) {
    return Corrupt("truncated counters");
  }

  uint32_t device_count = 0;
  if (!r.ReadU32(&device_count)) {
    return Corrupt("truncated dedup section");
  }
  if (device_count > CollectorServer::kMaxTrackedDevices) {
    return Corrupt("dedup device count exceeds limit");
  }
  state.seen_batches.reserve(device_count);
  for (uint32_t d = 0; d < device_count; ++d) {
    uint32_t device = 0, seq_count = 0;
    if (!r.ReadU32(&device) || !r.ReadU32(&seq_count)) {
      return Corrupt("truncated dedup device");
    }
    if (seq_count > CollectorServer::kSeenBatchWindow) {
      return Corrupt("dedup window exceeds limit");
    }
    std::vector<uint32_t> seqs(seq_count);
    for (uint32_t& seq : seqs) {
      if (!r.ReadU32(&seq)) {
        return Corrupt("truncated dedup sequence");
      }
    }
    state.seen_batches.emplace_back(device, std::move(seqs));
  }

  // Versions 1 and 2 carry the merged flags and P² markers described in
  // snapshot.h; they are checked or skipped and never restored.
  const bool legacy = version < 3;
  const bool moments = version < 4;
  uint32_t shard_count = 0;
  uint8_t merged = 0;
  uint64_t samples_folded = 0;
  uint32_t entry_count = 0;
  if (!r.ReadU32(&shard_count) || (legacy && !r.ReadU8(&merged)) ||
      !r.ReadU64(&samples_folded) || !r.ReadU32(&entry_count)) {
    return Corrupt("truncated store header");
  }
  // Ignored on load (see snapshot.h), but still outside input to validate.
  if (shard_count == 0 || shard_count > 65536) {
    return Corrupt("bad shard count");
  }
  if (merged > 1) {
    return Corrupt("bad merged flag");
  }
  if (entry_count > r.remaining() / MinEntryBytes(version)) {
    return Corrupt("entry count exceeds payload");
  }

  const auto entry_range =
      *moputil::LogQuantile::LegalIndexRange(AggregateEntry::kRelErr, kMaxLogBuckets);
  std::unordered_set<uint64_t> legacy_rollups;
  AggregateEntry rollup_entry;  // checked like any entry, then dropped
  for (uint32_t i = 0; i < entry_count; ++i) {
    uint64_t packed = 0;
    uint8_t entry_merged = 0;
    if (!r.ReadU64(&packed) || (legacy && !r.ReadU8(&entry_merged))) {
      return Corrupt("truncated entry");
    }
    if (entry_merged > 1) {
      return Corrupt("bad entry merged flag");
    }
    const AggregateKey key = AggregateKey::Unpack(packed);
    const bool rollup = IsLegacyRollup(key);
    if (rollup && !moments) {
      return Corrupt("legacy rollup key in a version-4 file");
    }
    if (rollup ? !legacy_rollups.insert(packed).second : state.store.Find(key) != nullptr) {
      return Corrupt("duplicate entry key");
    }
    // Every restored key is one a record could have folded into.
    if (!rollup && (!ValidId(key.app_id, state.apps) || !ValidId(key.isp_id, state.isps) ||
                    !ValidId(key.country_id, state.countries) ||
                    !mopcollect::ValidRecordEnums(key.kind, key.net_type))) {
      return Corrupt("entry key out of range");
    }
    AggregateEntry& entry = rollup ? rollup_entry : state.store.MutableEntry(key);

    uint64_t moment_count = 0;  // moplint-allow: raw-counter (decoded field)
    if (moments) {
      // Versions 1 to 3: the sum is mean x count; m2, min and max are
      // skipped.
      double mean = 0;
      if (!r.ReadU64(&moment_count) || !r.ReadF64(&mean) || !r.Skip(3 * 8)) {
        return Corrupt("truncated entry moments");
      }
      entry.sum_ms = mean * static_cast<double>(moment_count);
    } else if (!r.ReadF64(&entry.sum_ms)) {
      return Corrupt("truncated entry sum");
    }
    // Every fold adds a finite, non-negative RTT (the wire decoder admits
    // no other), so no fold produces any other sum.
    if (!std::isfinite(entry.sum_ms) || entry.sum_ms < 0) {
      return Corrupt("entry sum negative or not finite");
    }

    if (legacy && !r.Skip(kLegacyP2Bytes)) {
      return Corrupt("truncated entry P2 markers");
    }

    moputil::LogQuantile::State log;
    uint32_t lo_bits = 0, bucket_count = 0;
    if (!r.ReadU64(&log.total) || !r.ReadU64(&log.zero_or_less) || !r.ReadU32(&lo_bits) ||
        !r.ReadU32(&bucket_count)) {
      return Corrupt("truncated entry log sketch");
    }
    log.lo_index = std::bit_cast<int32_t>(lo_bits);
    // Buckets outside the clamp span cannot come from LogQuantile::Add(), and
    // a far-off lo_index would make a later MergeFrom() resize by the gap.
    if (bucket_count > 0 &&
        !(entry_range.Contains(log.lo_index) &&
          entry_range.Contains(int64_t{log.lo_index} + bucket_count - 1))) {
      return Corrupt("log buckets out of range");
    }
    log.counts.resize(bucket_count);
    if (!r.ReadU32s(log.counts)) {
      return Corrupt("truncated log buckets");
    }
    uint64_t bucket_sum = 0;
    for (uint32_t c : log.counts) {
      bucket_sum += c;
    }
    // Internal consistency: the sketch's buckets add up to its total, and in
    // versions 1 to 3 the moments were fed the same stream.
    if (bucket_sum + log.zero_or_less != log.total || (moments && log.total != moment_count)) {
      return Corrupt("entry sketch counts disagree");
    }
    entry.quantiles.Restore(std::move(log));
    if (rollup) {
      // A legacy rollup's folds were counted in samples_folded too.
      if (entry.count() > samples_folded) {
        return Corrupt("rollup counts exceed samples_folded");
      }
      samples_folded -= entry.count();
    }
  }
  state.store.set_samples_folded(samples_folded);

  if (version == 1) {
    // A pre-health snapshot: its payload ends here. The health sections stay
    // default-empty, exactly the state such a collector had.
    if (r.remaining() != 0) {
      return Corrupt("trailing bytes in payload");
    }
    return state;
  }

  // ---- Sections added in version 2 ----
  uint32_t telemetry_device_count = 0;
  if (!r.ReadU32(&telemetry_device_count)) {
    return Corrupt("truncated telemetry dedup section");
  }
  if (telemetry_device_count > CollectorServer::kMaxTrackedDevices) {
    return Corrupt("telemetry dedup device count exceeds limit");
  }
  state.seen_telemetry.reserve(telemetry_device_count);
  for (uint32_t d = 0; d < telemetry_device_count; ++d) {
    uint32_t device = 0, seq_count = 0;
    if (!r.ReadU32(&device) || !r.ReadU32(&seq_count)) {
      return Corrupt("truncated telemetry dedup device");
    }
    if (seq_count > CollectorServer::kSeenBatchWindow) {
      return Corrupt("telemetry dedup window exceeds limit");
    }
    std::vector<uint32_t> seqs(seq_count);
    for (uint32_t& seq : seqs) {
      if (!r.ReadU32(&seq)) {
        return Corrupt("truncated telemetry dedup sequence");
      }
    }
    state.seen_telemetry.emplace_back(device, std::move(seqs));
  }

  if (!r.ReadU64(&state.telemetry_frames) || !r.ReadU64(&state.telemetry_duplicate) ||
      !r.ReadU64(&state.telemetry_rejected) || !r.ReadU64(&state.frames_skipped)) {
    return Corrupt("truncated telemetry counters");
  }

  uint32_t metric_count = 0;
  if (!r.ReadU32(&metric_count)) {
    return Corrupt("truncated health section");
  }
  // Smallest metric is name_len + kind + merge + a u64: forged counts cannot
  // out-reserve the payload.
  if (metric_count > r.remaining() / 12) {
    return Corrupt("health metric count exceeds payload");
  }
  for (uint32_t i = 0; i < metric_count; ++i) {
    uint16_t name_len = 0;
    std::string name;
    if (!r.ReadU16(&name_len) || !r.ReadString(name_len, &name)) {
      return Corrupt("truncated health metric name");
    }
    mopcollect::HealthStore::Metric m;
    if (!r.ReadU8(&m.kind) || !r.ReadU8(&m.merge)) {
      return Corrupt("truncated health metric header");
    }
    switch (m.kind) {
      case 0:
        if (!r.ReadU64(&m.counter)) {
          return Corrupt("truncated health counter");
        }
        break;
      case 1: {
        uint32_t gauge_count = 0;
        if (!r.ReadU32(&gauge_count)) {
          return Corrupt("truncated health gauge header");
        }
        if (gauge_count > r.remaining() / 16) {
          return Corrupt("health gauge count exceeds payload");
        }
        for (uint32_t g = 0; g < gauge_count; ++g) {
          uint32_t device = 0;
          mopcollect::HealthStore::GaugeCell cell;
          if (!r.ReadU32(&device) || !r.ReadU32(&cell.seq) || !r.ReadU64(&cell.value)) {
            return Corrupt("truncated health gauge cell");
          }
          m.gauges.emplace(device, cell);
        }
        break;
      }
      case 2: {
        uint32_t bucket_count = 0;
        if (!r.ReadF64(&m.rel_err) || !r.ReadF64(&m.sum) || !r.ReadU64(&m.zero_or_less) ||
            !r.ReadU32(&bucket_count)) {
          return Corrupt("truncated health histogram header");
        }
        // The geometries and indexes the wire decoder admits, no others.
        auto range =
            moputil::LogQuantile::LegalIndexRange(m.rel_err, mopcollect::kMaxHealthBuckets);
        if (!range) {
          return Corrupt("bad health histogram geometry");
        }
        if (bucket_count > range->span()) {
          return Corrupt("health bucket count exceeds limit");
        }
        for (uint32_t b = 0; b < bucket_count; ++b) {
          uint32_t idx_bits = 0;
          uint64_t count = 0;
          if (!r.ReadU32(&idx_bits) || !r.ReadU64(&count)) {
            return Corrupt("truncated health bucket");
          }
          if (!range->Contains(std::bit_cast<int32_t>(idx_bits))) {
            return Corrupt("health bucket index out of range");
          }
          m.buckets[std::bit_cast<int32_t>(idx_bits)] += count;
        }
        break;
      }
      default:
        return Corrupt("bad health metric kind");
    }
    state.health.RestoreMetric(name, std::move(m));
  }
  if (state.health.metric_count() != metric_count) {
    return Corrupt("duplicate health metric names");
  }

  uint32_t health_device_count = 0;
  if (!r.ReadU32(&health_device_count)) {
    return Corrupt("truncated health device section");
  }
  if (health_device_count > r.remaining() / 4) {
    return Corrupt("health device count exceeds payload");
  }
  for (uint32_t d = 0; d < health_device_count; ++d) {
    uint32_t device = 0;
    if (!r.ReadU32(&device)) {
      return Corrupt("truncated health device");
    }
    state.health.NoteDevice(device);
  }
  uint64_t health_folds = 0, health_conflicts = 0;
  if (!r.ReadU64(&health_folds) || !r.ReadU64(&health_conflicts)) {
    return Corrupt("truncated health tallies");
  }
  state.health.set_tallies(health_folds, health_conflicts);

  if (r.remaining() != 0) {
    return Corrupt("trailing bytes in payload");
  }
  return state;
}

namespace {

// Write-then-rename: a crash mid-write leaves the previous snapshot intact.
moputil::Status WriteBytesAtomic(const std::string& path, std::span<const uint8_t> bytes) {
  std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return moputil::Unavailable("cannot open " + tmp);
  }
  size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  bool flushed = std::fflush(f) == 0;
  std::fclose(f);
  if (written != bytes.size() || !flushed) {
    std::remove(tmp.c_str());
    return moputil::Unavailable("short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return moputil::Unavailable("rename to " + path + " failed");
  }
  return moputil::OkStatus();
}

}  // namespace

moputil::Status WriteSnapshotFile(const std::string& path, const CollectorState& state) {
  return WriteBytesAtomic(path, EncodeSnapshot(state));
}

moputil::Result<CollectorState> ReadSnapshotFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return moputil::NotFound("no snapshot at " + path);
  }
  std::fseek(f, 0, SEEK_END);
  long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  if (size < 0 || static_cast<size_t>(size) > 11u + kMaxSnapshotPayload) {
    std::fclose(f);
    return Corrupt("file size out of range");
  }
  std::vector<uint8_t> bytes(static_cast<size_t>(size));
  size_t got = std::fread(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
  if (got != bytes.size()) {
    return moputil::Unavailable("short read from " + path);
  }
  return DecodeSnapshot(bytes);
}

Snapshotter::Snapshotter(mopsim::EventLoop* loop, mopcollect::CollectorServer* server,
                         std::string path, moputil::SimDuration interval)
    : loop_(loop), server_(server), path_(std::move(path)), interval_(interval) {}

Snapshotter::~Snapshotter() { Stop(); }

void Snapshotter::Start() {
  if (running_) {
    return;
  }
  running_ = true;
  Schedule();
}

void Snapshotter::Stop() {
  running_ = false;
  if (timer_ != mopsim::kInvalidTimer) {
    loop_->Cancel(timer_);
    timer_ = mopsim::kInvalidTimer;
  }
}

moputil::Status Snapshotter::SnapshotNow() {
  // Export and write run atomically w.r.t. the event loop (one callback), so
  // the durability notification below covers exactly the folds the file
  // holds — no ack can sneak in between.
  std::vector<uint8_t> bytes = EncodeSnapshot(server_->ExportState());
  counters_.last_bytes = bytes.size();
  moputil::Status st = WriteBytesAtomic(path_, bytes);
  if (st.ok()) {
    ++counters_.snapshots_written;
    server_->NotifyDurable();
  } else {
    ++counters_.write_failures;
  }
  return st;
}

void Snapshotter::Schedule() {
  if (!running_) {
    return;
  }
  timer_ = loop_->Schedule(interval_, [this] {
    timer_ = mopsim::kInvalidTimer;
    (void)SnapshotNow();
    Schedule();
  });
}

}  // namespace mopfleet
