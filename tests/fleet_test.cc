// Fleet subsystem tests: device->shard routing, fold-once ingest and
// query-time merging against generated records, snapshot codec durability
// (round-trip equality, truncation/corruption rejection, golden version-1
// to version-3 files, legacy rollup entries dropped on load, hostile bucket
// indexes, entry keys and sums, atomic file replacement), restart recovery
// with dedup preserved, uploader failover with possibly-delivered pinning,
// and the merged FleetView query plane.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <unistd.h>

#include "collector/aggregate_store.h"
#include "collector/server.h"
#include "collector/uploader.h"
#include "collector/wire.h"
#include "core/measurement.h"
#include "fleet/router.h"
#include "fleet/snapshot.h"
#include "fleet/view.h"
#include "net/net_context.h"
#include "net/server.h"
#include "sim/event_loop.h"
#include "util/rng.h"
#include "util/stats.h"

namespace {

using moppkt::IpAddr;
using moppkt::SocketAddr;
using moputil::Millis;
using moputil::Seconds;

mopeye::Measurement MakeMeasurement(const std::string& app, const std::string& domain,
                                    double rtt_ms, moputil::SimTime time = 0,
                                    mopeye::MeasureKind kind = mopeye::MeasureKind::kTcpConnect,
                                    mopnet::NetType net = mopnet::NetType::kWifi) {
  mopeye::Measurement m;
  m.time = time;
  m.kind = kind;
  m.uid = 10100;
  m.app = app;
  m.domain = domain;
  m.server = SocketAddr{IpAddr(93, 184, 216, 34), 443};
  m.rtt = Millis(rtt_ms);
  m.net_type = net;
  m.isp = "TestNet";
  m.country = "US";
  m.device_id = "Nexus 6";
  return m;
}

std::string TmpPath(const std::string& name) {
  return "/tmp/mopeye_fleet_test_" + std::to_string(getpid()) + "_" + name + ".snap";
}

// Feeds `records` measurements for `app` into `server` as one wire batch.
void IngestRecords(mopcollect::CollectorServer* server, uint32_t device, uint32_t seq,
                   const std::string& app, const std::vector<double>& rtts,
                   const std::string& isp = "TestNet") {
  mopcollect::BatchBuilder builder(device, seq);
  for (double rtt : rtts) {
    auto m = MakeMeasurement(app, "d.com", rtt);
    m.isp = isp;
    builder.Add(m);
  }
  auto frame = mopcollect::EncodeBatchFrame(builder.TakeBatch());
  auto accepted = server->IngestPayload({frame.data() + 4, frame.size() - 4});
  ASSERT_TRUE(accepted.ok()) << accepted.status().ToString();
}

// Folds one telemetry frame carrying a counter delta and a gauge reading
// into `server`, as if a device's health export arrived on the wire.
void IngestHealth(mopcollect::CollectorServer* server, uint32_t device, uint32_t seq,
                  uint64_t counter_delta, uint64_t gauge_value) {
  mopcollect::WireTelemetry t;
  t.device_id = device;
  t.seq = seq;
  mopcollect::WireHealthEntry c;
  c.name = "mopeye_device_made_total";
  c.kind = 0;
  c.value = counter_delta;
  mopcollect::WireHealthEntry g;
  g.name = "mopeye_device_battery_permille";
  g.kind = 1;
  g.merge = 0;
  g.value = gauge_value;
  t.health = {c, g};
  auto frame = mopcollect::EncodeTelemetryFrame(t);
  auto st = server->IngestTelemetry({frame.data() + 4, frame.size() - 4}, nullptr);
  ASSERT_TRUE(st.ok()) << st.ToString();
}

// Feeds `batches` seeded random upload batches into `server`, over several
// apps, ISPs, countries and net types, both kinds, and unattributed strings.
// Returns the measurements in arrival order. RTTs are whole quarter
// milliseconds, which cross the wire's f32 exactly.
std::vector<mopeye::Measurement> IngestRandomRecords(mopcollect::CollectorServer* server,
                                                     uint64_t seed, uint32_t batches) {
  const std::vector<std::string> apps = {"Whatsapp", "Youtube", "Chrome", "Facebook", ""};
  const std::vector<std::string> isps = {"JioNet", "Airtel", "TestNet", ""};
  const std::vector<std::string> countries = {"IN", "US", ""};
  moputil::Rng rng(seed);
  auto pick = [&rng](const std::vector<std::string>& from) {
    return from[rng.UniformInt(0, static_cast<int64_t>(from.size()) - 1)];
  };
  std::vector<mopeye::Measurement> all;
  for (uint32_t seq = 0; seq < batches; ++seq) {
    mopcollect::BatchBuilder builder(/*device_id=*/seq % 7, seq);
    for (int64_t n = rng.UniformInt(1, 150); n > 0; --n) {
      const double rtt = std::max(0.25, std::round(rng.LogNormalMedian(80.0, 0.8) * 4) / 4);
      const bool dns = rng.Bernoulli(0.3);
      auto m = MakeMeasurement(pick(apps), "d.com", rtt, 0,
                               dns ? mopeye::MeasureKind::kDns : mopeye::MeasureKind::kTcpConnect,
                               static_cast<mopnet::NetType>(rng.UniformInt(0, 3)));
      m.isp = pick(isps);
      m.country = pick(countries);
      builder.Add(m);
      all.push_back(m);
    }
    auto frame = mopcollect::EncodeBatchFrame(builder.TakeBatch());
    EXPECT_TRUE(server->IngestPayload({frame.data() + 4, frame.size() - 4}).ok());
  }
  return all;
}

// ---- FleetRouter ----

TEST(FleetRouter, StableAssignmentAndFailoverPlan) {
  std::vector<SocketAddr> fleet;
  for (int i = 0; i < 4; ++i) {
    fleet.push_back({IpAddr(10, 99, 0, static_cast<uint8_t>(i + 1)), 9000});
  }
  mopfleet::FleetRouter router(fleet);
  ASSERT_EQ(router.shard_count(), 4u);
  for (uint32_t device : {0u, 1u, 77u, 0xffffffffu}) {
    size_t home = router.ShardOf(device);
    EXPECT_EQ(router.ShardOf(device), home);  // stable
    EXPECT_EQ(router.PrimaryFor(device), fleet[home]);
    auto plan = router.PlanFor(device);
    ASSERT_EQ(plan.size(), 4u);
    EXPECT_EQ(plan[0], fleet[home]);
    // The plan visits every collector exactly once, wrapping in shard order.
    std::set<uint16_t> seen;
    for (size_t i = 0; i < plan.size(); ++i) {
      EXPECT_EQ(plan[i], fleet[(home + i) % fleet.size()]);
      seen.insert(static_cast<uint16_t>(plan[i].ip.value() & 0xff));
    }
    EXPECT_EQ(seen.size(), 4u);
  }
}

TEST(FleetRouter, SpreadsSequentialDeviceIdsAcrossShards) {
  std::vector<SocketAddr> fleet(8, SocketAddr{IpAddr(10, 0, 0, 1), 9000});
  mopfleet::FleetRouter router(fleet);
  std::vector<size_t> counts(8, 0);
  for (uint32_t device = 0; device < 8000; ++device) {
    ++counts[router.ShardOf(device)];
  }
  for (size_t shard = 0; shard < counts.size(); ++shard) {
    // Uniform expectation 1000 per shard; 20% tolerance catches clustering.
    EXPECT_GT(counts[shard], 800u) << "shard " << shard;
    EXPECT_LT(counts[shard], 1200u) << "shard " << shard;
  }
}

// ---- Fold once, merge at query time ----

// Each record folds once, and every query row equals one entry fed the
// whole stream of its group.
TEST(GeneratedRecords, QueryRowsEqualOneEntryFedTheirGroup) {
  mopcollect::CollectorServer server;
  const auto records = IngestRandomRecords(&server, /*seed=*/2017, /*batches=*/40);
  auto name = [](const std::string& s) { return s.empty() ? std::string("(none)") : s; };
  std::map<std::string, mopcollect::AggregateEntry> by_app;
  std::map<std::pair<std::string, uint8_t>, mopcollect::AggregateEntry> by_isp_net;
  std::set<std::tuple<std::string, std::string, std::string, mopnet::NetType,
                      mopeye::MeasureKind>>
      fine_keys;
  for (const auto& m : records) {
    fine_keys.emplace(m.app, m.isp, m.country, m.net_type, m.kind);
    if (m.kind == mopeye::MeasureKind::kDns) {
      by_isp_net[{name(m.isp), static_cast<uint8_t>(m.net_type)}].Add(moputil::ToMillis(m.rtt));
    } else {
      by_app[name(m.app)].Add(moputil::ToMillis(m.rtt));
    }
  }
  EXPECT_EQ(server.counters().records_ingested, records.size());
  EXPECT_EQ(server.store().samples_folded(), records.size());
  EXPECT_EQ(server.store().key_count(), fine_keys.size());

  auto apps = server.TcpAppStats();
  ASSERT_EQ(apps.size(), by_app.size());
  for (const auto& row : apps) {
    const auto& want = by_app.at(row.app);
    EXPECT_EQ(row.count, want.count()) << row.app;
    EXPECT_DOUBLE_EQ(row.median_ms, want.median_ms()) << row.app;
    EXPECT_DOUBLE_EQ(row.p95_ms, want.p95_ms()) << row.app;
    EXPECT_NEAR(row.mean_ms, want.mean_ms(), 1e-9) << row.app;
  }
  EXPECT_TRUE(std::is_sorted(apps.begin(), apps.end(), [](const auto& a, const auto& b) {
    return a.count != b.count ? a.count > b.count : a.app < b.app;
  }));
  const size_t min_count = apps[apps.size() / 2].count;
  EXPECT_EQ(server.TcpAppStats(min_count).size(),
            static_cast<size_t>(std::count_if(apps.begin(), apps.end(), [&](const auto& row) {
              return row.count >= min_count;
            })));

  auto isps = server.IspDnsStats();
  ASSERT_EQ(isps.size(), by_isp_net.size());
  for (const auto& row : isps) {
    const auto& want = by_isp_net.at({row.isp, row.net_type});
    EXPECT_EQ(row.count, want.count()) << row.isp;
    EXPECT_DOUBLE_EQ(row.median_ms, want.median_ms()) << row.isp;
    EXPECT_DOUBLE_EQ(row.p95_ms, want.p95_ms()) << row.isp;
  }
  EXPECT_TRUE(std::is_sorted(isps.begin(), isps.end(), [](const auto& a, const auto& b) {
    return std::tie(b.count, a.isp, a.net_type) < std::tie(a.count, b.isp, b.net_type);
  }));
}

// ---- Snapshot codec ----

// A collector with aggregate, interner, counter, and dedup state.
std::unique_ptr<mopcollect::CollectorServer> PopulatedCollector() {
  auto server = std::make_unique<mopcollect::CollectorServer>();
  moputil::Rng rng(17);
  std::vector<double> whatsapp, youtube;
  for (int i = 0; i < 800; ++i) {
    whatsapp.push_back(rng.LogNormalMedian(240.0, 0.5));
    youtube.push_back(rng.LogNormalMedian(80.0, 0.4));
  }
  IngestRecords(server.get(), /*device=*/1, /*seq=*/100, "Whatsapp", whatsapp);
  IngestRecords(server.get(), /*device=*/2, /*seq=*/7, "Youtube", youtube, "JioNet");
  IngestRecords(server.get(), /*device=*/1, /*seq=*/101, "Whatsapp", {10, 20, 30});
  return server;
}

TEST(Snapshot, RoundTripPreservesEverything) {
  auto server = PopulatedCollector();
  auto state = server->ExportState();
  auto bytes = mopfleet::EncodeSnapshot(state);
  auto decoded = mopfleet::DecodeSnapshot(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const auto& got = decoded.value();

  EXPECT_EQ(got.records_ingested, state.records_ingested);
  EXPECT_EQ(got.batches_ok, state.batches_ok);
  EXPECT_EQ(got.seen_batches, state.seen_batches);
  EXPECT_EQ(got.apps.names(), state.apps.names());
  EXPECT_EQ(got.isps.names(), state.isps.names());
  EXPECT_EQ(got.countries.names(), state.countries.names());
  EXPECT_EQ(got.store.key_count(), state.store.key_count());
  EXPECT_EQ(got.store.samples_folded(), state.store.samples_folded());
  for (const auto& [packed, entry] : state.store.entries()) {
    const auto* restored = got.store.Find(mopcollect::AggregateKey::Unpack(packed));
    ASSERT_NE(restored, nullptr);
    EXPECT_EQ(restored->count(), entry.count());
    EXPECT_DOUBLE_EQ(restored->median_ms(), entry.median_ms());
    EXPECT_DOUBLE_EQ(restored->p95_ms(), entry.p95_ms());
    EXPECT_EQ(restored->sum_ms, entry.sum_ms);
  }

  // Canonical bytes: re-encoding the decoded state reproduces the file.
  EXPECT_EQ(bytes[2], mopfleet::kSnapshotVersion);
  EXPECT_EQ(mopfleet::EncodeSnapshot(got), bytes);
}

TEST(Snapshot, RejectsTruncationAtEveryOffset) {
  auto server = PopulatedCollector();
  auto bytes = mopfleet::EncodeSnapshot(server->ExportState());
  ASSERT_GT(bytes.size(), 100u);
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    auto r = mopfleet::DecodeSnapshot({bytes.data(), cut});
    EXPECT_FALSE(r.ok()) << "decode succeeded on a " << cut << "-byte prefix";
  }
  // Appended garbage is rejected too (exact frame length).
  auto extended = bytes;
  extended.push_back(0);
  EXPECT_FALSE(mopfleet::DecodeSnapshot(extended).ok());
  // The untouched image still decodes.
  EXPECT_TRUE(mopfleet::DecodeSnapshot(bytes).ok());
}

TEST(Snapshot, RejectsCorruptionAndBadHeader) {
  auto server = PopulatedCollector();
  auto bytes = mopfleet::EncodeSnapshot(server->ExportState());

  // Any payload byte flip breaks the CRC.
  for (size_t at : {size_t{7}, bytes.size() / 2, bytes.size() - 5}) {
    auto corrupted = bytes;
    corrupted[at] ^= 0x01;
    EXPECT_FALSE(mopfleet::DecodeSnapshot(corrupted).ok()) << "flip at " << at;
  }
  auto bad_magic = bytes;
  bad_magic[0] ^= 0xff;
  auto r = mopfleet::DecodeSnapshot(bad_magic);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("magic"), std::string::npos);
  auto bad_version = bytes;
  bad_version[2] = 99;
  r = mopfleet::DecodeSnapshot(bad_version);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("version"), std::string::npos);
}

TEST(Snapshot, FileWriteIsAtomicAndReadable) {
  auto server = PopulatedCollector();
  std::string path = TmpPath("atomic");
  auto state = server->ExportState();
  ASSERT_TRUE(mopfleet::WriteSnapshotFile(path, state).ok());
  // No temp file left behind.
  std::FILE* tmp = std::fopen((path + ".tmp").c_str(), "rb");
  EXPECT_EQ(tmp, nullptr);
  if (tmp != nullptr) {
    std::fclose(tmp);
  }
  auto loaded = mopfleet::ReadSnapshotFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().records_ingested, state.records_ingested);

  // Overwrite with newer state: the file is replaced, not appended.
  IngestRecords(server.get(), 3, 1, "Instagram", {50, 60});
  ASSERT_TRUE(mopfleet::WriteSnapshotFile(path, server->ExportState()).ok());
  auto reloaded = mopfleet::ReadSnapshotFile(path);
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(reloaded.value().records_ingested, state.records_ingested + 2);

  EXPECT_FALSE(mopfleet::ReadSnapshotFile(path + ".does_not_exist").ok());
  std::remove(path.c_str());
}

// The crowd-health store, the telemetry dedup window, and the telemetry
// counters all survive the snapshot byte-exactly — and the re-encoding stays
// canonical.
TEST(Snapshot, RoundTripPreservesHealthAndTelemetryDedup) {
  auto server = PopulatedCollector();
  IngestHealth(server.get(), /*device=*/1, /*seq=*/100, /*counter=*/55, /*gauge=*/870);
  IngestHealth(server.get(), /*device=*/2, /*seq=*/7, /*counter=*/11, /*gauge=*/430);
  auto state = server->ExportState();
  auto bytes = mopfleet::EncodeSnapshot(state);
  auto decoded = mopfleet::DecodeSnapshot(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const auto& got = decoded.value();

  EXPECT_EQ(got.health, state.health);  // value-semantic deep equality
  EXPECT_EQ(got.seen_telemetry, state.seen_telemetry);
  EXPECT_EQ(got.telemetry_frames, state.telemetry_frames);
  uint64_t folded = 0;
  ASSERT_TRUE(got.health.CounterValue("mopeye_device_made_total", &folded));
  EXPECT_EQ(folded, 66u);
  uint64_t battery = 0;
  ASSERT_TRUE(got.health.GaugeValue("mopeye_device_battery_permille", &battery));
  EXPECT_EQ(battery, 1300u);  // sum-merge across the two devices
  EXPECT_EQ(got.health.device_count(), 2u);
  EXPECT_EQ(mopfleet::EncodeSnapshot(got), bytes);

  // The restored telemetry dedup window still recognizes the re-delivery.
  mopcollect::CollectorServer restarted;
  restarted.ImportState(mopfleet::DecodeSnapshot(bytes).value());
  IngestHealth(&restarted, 1, 100, 55, 870);  // identical retry
  ASSERT_TRUE(restarted.health().CounterValue("mopeye_device_made_total", &folded));
  EXPECT_EQ(folded, 66u);  // not double-folded
  EXPECT_EQ(restarted.counters().telemetry_duplicate, 1u);
}

// ---- Golden legacy snapshots ----
//
// tests/data/snapshot_v1.bin and snapshot_v2.bin were written by the
// version-2 encoder (which wrote a version-1 frame while no health state
// existed) from one collector with 4 hash shards, so their shard_count field
// reads 4. Device 7 uploaded batch 41 {Whatsapp/Wi-Fi 120.5 ms,
// Whatsapp/Wi-Fi 80.25 ms, Youtube/LTE 45 ms} and batch 42 {Chrome/LTE DNS
// 30 ms}, all over ISP JioNet in country IN. The version-2 image adds one
// telemetry frame (device 7, seq 43) carrying a counter, a gauge and a
// histogram. The values below are what that encoder's state held.
//
// tests/data/snapshot_v3.bin was written by the version-3 encoder from the
// version-2 file's decoded state, with its six rollup entries restored (each
// fine entry MergeFrom()ed into its per-app and per-ISP wildcard key, as the
// encoders before version 4 kept them) and samples_folded set back to 12.

std::vector<uint8_t> ReadFixture(const std::string& name) {
  std::ifstream in(std::string(MOPEYE_TEST_DATA_DIR) + "/" + name, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

constexpr const char* kGoldenFiles[] = {"snapshot_v1.bin", "snapshot_v2.bin",
                                        "snapshot_v3.bin"};

uint32_t U32At(const std::vector<uint8_t>& image, size_t at) {
  uint32_t v = 0;
  for (size_t i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(image[at + i]) << (8 * i);
  }
  return v;
}

// Overwrites the u32 at `at` and re-seals the CRC, so only the decoder's
// semantic checks stand between the patched image and a restored state.
void PatchU32(std::vector<uint8_t>* image, size_t at, uint32_t v) {
  auto put = [image](size_t pos, uint32_t x) {
    for (size_t i = 0; i < 4; ++i) {
      (*image)[pos + i] = static_cast<uint8_t>(x >> (8 * i));
    }
  };
  put(at, v);
  put(image->size() - 4, mopfleet::Crc32({image->data() + 7, image->size() - 11}));
}

struct GoldenEntry {
  mopcollect::AggregateKey key;
  uint64_t count;
  double mean, median, p95;
};

void ExpectGoldenAggregates(const mopcollect::CollectorState& got) {
  // The fine entries. The files also hold six per-app and per-ISP rollup
  // entries, which the decoder drops along with their 8 folds.
  const GoldenEntry kEntries[] = {
      {{0, 0, 0, 0, 0}, 2, 100.375, 99.532492640417175, 117.21552074646188},
      {{1, 0, 0, 3, 0}, 1, 45, 45.627447559716344, 45.627447559716344},
      {{2, 0, 0, 3, 1}, 1, 30, 30.583361201023472, 30.583361201023472},
  };
  EXPECT_EQ(got.apps.names(), (std::vector<std::string>{"Whatsapp", "Youtube", "Chrome"}));
  EXPECT_EQ(got.isps.names(), std::vector<std::string>{"JioNet"});
  EXPECT_EQ(got.countries.names(), std::vector<std::string>{"IN"});
  EXPECT_EQ(got.batches_ok, 2u);
  EXPECT_EQ(got.records_ingested, 4u);
  EXPECT_EQ(got.connections + got.frames + got.batches_rejected + got.batches_duplicate +
                got.stream_errors,
            0u);
  EXPECT_EQ(got.seen_batches,
            (std::vector<std::pair<uint32_t, std::vector<uint32_t>>>{{7, {41, 42}}}));
  EXPECT_EQ(got.store.samples_folded(), 4u);
  EXPECT_EQ(got.store.key_count(), std::size(kEntries));
  for (const GoldenEntry& want : kEntries) {
    const auto* entry = got.store.Find(want.key);
    ASSERT_NE(entry, nullptr) << want.key.Packed();
    EXPECT_EQ(entry->count(), want.count);
    EXPECT_EQ(entry->mean_ms(), want.mean);
    EXPECT_DOUBLE_EQ(entry->median_ms(), want.median);
    EXPECT_DOUBLE_EQ(entry->p95_ms(), want.p95);
  }

  // The queries merge fine entries at query time and reproduce, bit for bit,
  // the values the rollup entries they read stored: per-app TCP
  // (Whatsapp, Youtube) and per-(ISP, net type) DNS (JioNet over LTE).
  auto apps = mopcollect::TcpAppStatsOf(got.store, got.apps);
  ASSERT_EQ(apps.size(), 2u);
  EXPECT_EQ(apps[0].app, "Whatsapp");
  EXPECT_EQ(apps[0].count, 2u);
  EXPECT_EQ(apps[0].median_ms, 99.532492640417175);
  EXPECT_EQ(apps[0].p95_ms, 117.21552074646188);
  EXPECT_EQ(apps[0].mean_ms, 100.375);
  EXPECT_EQ(apps[1].app, "Youtube");
  EXPECT_EQ(apps[1].count, 1u);
  EXPECT_EQ(apps[1].median_ms, 45.627447559716344);
  EXPECT_EQ(apps[1].p95_ms, 45.627447559716344);
  EXPECT_EQ(apps[1].mean_ms, 45.0);
  auto isps = mopcollect::IspDnsStatsOf(got.store, got.isps);
  ASSERT_EQ(isps.size(), 1u);
  EXPECT_EQ(isps[0].isp, "JioNet");
  EXPECT_EQ(isps[0].net_type, 3u);
  EXPECT_EQ(isps[0].count, 1u);
  EXPECT_EQ(isps[0].median_ms, 30.583361201023472);
  EXPECT_EQ(isps[0].p95_ms, 30.583361201023472);
}

TEST(Snapshot, GoldenVersion1DecodesToRecordedValues) {
  auto v1 = ReadFixture("snapshot_v1.bin");
  ASSERT_EQ(v1.size(), 3266u);
  EXPECT_EQ(v1[2], 1u);
  auto decoded = mopfleet::DecodeSnapshot(v1);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ExpectGoldenAggregates(decoded.value());
  // A version-1 collector had no health state: it restores empty.
  EXPECT_TRUE(decoded.value().seen_telemetry.empty());
  EXPECT_EQ(decoded.value().telemetry_frames, 0u);
  EXPECT_EQ(decoded.value().health, mopcollect::HealthStore());
}

// The telemetry state of the version-2 image (and of the version-3 image
// written from it).
void ExpectGoldenHealth(const mopcollect::CollectorState& got) {
  EXPECT_EQ(got.seen_telemetry,
            (std::vector<std::pair<uint32_t, std::vector<uint32_t>>>{{7, {43}}}));
  EXPECT_EQ(got.telemetry_frames, 1u);
  EXPECT_EQ(got.telemetry_duplicate + got.telemetry_rejected + got.frames_skipped, 0u);

  const auto& health = got.health;
  EXPECT_EQ(health.metric_count(), 3u);
  uint64_t v = 0;
  ASSERT_TRUE(health.CounterValue("mopeye_device_records_generated_total", &v));
  EXPECT_EQ(v, 4u);
  const auto* gauge = health.Find("mopeye_device_battery_permille");
  ASSERT_NE(gauge, nullptr);
  EXPECT_EQ(gauge->gauges, (std::map<uint32_t, mopcollect::HealthStore::GaugeCell>{
                               {7, {.seq = 43, .value = 874}}}));
  const auto* hist = health.Find("mopeye_device_rtt_ms");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->kind, 2u);
  EXPECT_DOUBLE_EQ(hist->rel_err, 0.02);
  EXPECT_DOUBLE_EQ(hist->sum, 275.75);
  EXPECT_EQ(hist->zero_or_less, 0u);
  EXPECT_EQ(hist->buckets, (std::map<int32_t, uint64_t>{{85, 1}, {95, 1}, {109, 1}, {119, 1}}));
  EXPECT_EQ(health.devices(), std::set<uint32_t>{7});
  EXPECT_EQ(health.folds(), 1u);
  EXPECT_EQ(health.conflicts(), 0u);
}

TEST(Snapshot, GoldenVersion2DecodesToRecordedValues) {
  auto v2 = ReadFixture("snapshot_v2.bin");
  ASSERT_EQ(v2.size(), 3545u);
  EXPECT_EQ(v2[2], 2u);
  auto decoded = mopfleet::DecodeSnapshot(v2);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ExpectGoldenAggregates(decoded.value());
  ExpectGoldenHealth(decoded.value());
}

TEST(Snapshot, GoldenVersion3DecodesToRecordedValues) {
  auto v3 = ReadFixture("snapshot_v3.bin");
  ASSERT_EQ(v3.size(), 1231u);
  EXPECT_EQ(v3[2], 3u);
  auto decoded = mopfleet::DecodeSnapshot(v3);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ExpectGoldenAggregates(decoded.value());
  ExpectGoldenHealth(decoded.value());
}

TEST(Snapshot, GoldenFilesRejectEveryTruncationAndATrailingByte) {
  for (const char* name : kGoldenFiles) {
    auto bytes = ReadFixture(name);
    ASSERT_FALSE(bytes.empty()) << name;
    for (size_t cut = 0; cut < bytes.size(); ++cut) {
      EXPECT_FALSE(mopfleet::DecodeSnapshot({bytes.data(), cut}).ok())
          << name << " decoded from a " << cut << "-byte prefix";
    }
    bytes.push_back(0);
    EXPECT_FALSE(mopfleet::DecodeSnapshot(bytes).ok()) << name;
    // A payload one byte longer, with its length and CRC re-sealed: each
    // version's last section must end exactly at the payload end.
    bytes.pop_back();
    bytes.insert(bytes.end() - 4, 0);
    PatchU32(&bytes, 3, U32At(bytes, 3) + 1);
    EXPECT_FALSE(mopfleet::DecodeSnapshot(bytes).ok()) << name;
  }
}

// Re-encoding a legacy file writes the current layout, which round-trips
// byte-identically and restores the same state.
TEST(Snapshot, GoldenFilesReencodeAsTheCurrentVersion) {
  for (const char* name : kGoldenFiles) {
    auto legacy = mopfleet::DecodeSnapshot(ReadFixture(name));
    ASSERT_TRUE(legacy.ok()) << name << ": " << legacy.status().ToString();
    auto current = mopfleet::EncodeSnapshot(legacy.value());
    ASSERT_GT(current.size(), 3u);
    EXPECT_EQ(current[2], mopfleet::kSnapshotVersion) << name;
    auto decoded = mopfleet::DecodeSnapshot(current);
    ASSERT_TRUE(decoded.ok()) << name << ": " << decoded.status().ToString();
    ExpectGoldenAggregates(decoded.value());
    EXPECT_EQ(decoded.value().health, legacy.value().health) << name;
    EXPECT_EQ(decoded.value().seen_telemetry, legacy.value().seen_telemetry) << name;
    EXPECT_EQ(mopfleet::EncodeSnapshot(decoded.value()), current) << name;
  }
}

// A bucket index outside the span the input clamps allow cannot come from a
// sketch. Restored, a far-off entry lo_index would make FleetView's merge
// resize by the gap, and a far-off health bucket would make every crowd
// scrape rebuild a dense sketch over it; both are refused as corrupt. So is
// an entry key no record could carry (an id past its string table, a kind
// or net type outside the wire's enums), which would otherwise be served as
// an unattributed row.
TEST(Snapshot, RejectsOutOfRangeBucketIndexesAndEntryKeys) {
  auto v1 = ReadFixture("snapshot_v1.bin");
  auto v2 = ReadFixture("snapshot_v2.bin");
  auto v3 = ReadFixture("snapshot_v3.bin");
  auto decoded_v2 = mopfleet::DecodeSnapshot(v2);
  ASSERT_TRUE(decoded_v2.ok()) << decoded_v2.status().ToString();
  auto v4 = mopfleet::EncodeSnapshot(decoded_v2.value());
  EXPECT_EQ(v4[2], 4u);

  // The first entry (Whatsapp over Wi-Fi) has lo_index 109. In versions 1
  // to 3 it sits after the entry's 40 moment bytes, in versions 1 and 2
  // also after its merged flag and P² markers; in version 4 after its sum.
  struct Patch {
    const char* what;
    std::vector<uint8_t> image;
    size_t at;
    uint32_t original;
    uint32_t forged;
  };
  const Patch patches[] = {
      {"v1 entry lo_index", v1, 466, 109, 0x40000000},
      {"v2 entry lo_index", v2, 466, 109, 0x40000000},
      {"v3 entry lo_index", v3, 208, 109, 0x40000000},
      {"v3 entry lo_index below the floor", v3, 208, 109, static_cast<uint32_t>(-249)},
      {"v4 entry lo_index", v4, 176, 109, 0x40000000},
      {"v4 entry lo_index below the floor", v4, 176, 109, static_cast<uint32_t>(-249)},
      // The health histogram's last bucket index (119) sits 40 bytes before
      // the end, followed by its count (8), the health device section (8),
      // the tallies (16) and the CRC (4).
      {"v2 health bucket", v2, v2.size() - 40, 119, 2147483000},
      {"v3 health bucket", v3, v3.size() - 40, 119, 2147483000},
      {"v4 health bucket", v4, v4.size() - 40, 119, 2147483000},
      // The same entry's key (0: Whatsapp/JioNet/IN, Wi-Fi, TCP) sits at 144
      // in versions 3 and 4: low word country << 16 | net_type << 8 | kind,
      // high word app << 16 | isp. The tables hold 3 apps, 1 ISP and 1
      // country.
      {"v3 entry app id past the table", v3, 148, 0, 3u << 16},
      {"v3 entry isp id past the table", v3, 148, 0, 1},
      {"v3 entry country id past the table", v3, 144, 0, 1u << 16},
      {"v3 entry net type past kLte", v3, 144, 0, 4u << 8},
      {"v3 entry kind past kDns", v3, 144, 0, 2},
      {"v4 entry app id past the table", v4, 148, 0, 3u << 16},
      {"v4 entry isp id past the table", v4, 148, 0, 1},
      {"v4 entry country id past the table", v4, 144, 0, 1u << 16},
      {"v4 entry net type past kLte", v4, 144, 0, 4u << 8},
      {"v4 entry kind past kDns", v4, 144, 0, 2},
  };
  for (const Patch& p : patches) {
    ASSERT_EQ(U32At(p.image, p.at), p.original) << p.what;
    auto image = p.image;
    PatchU32(&image, p.at, p.forged);
    auto r = mopfleet::DecodeSnapshot(image);
    ASSERT_FALSE(r.ok()) << p.what;
    EXPECT_NE(r.status().message().find("out of range"), std::string::npos)
        << p.what << ": " << r.status().ToString();
  }

  // The top of the span is still legal: the 11 buckets may end on it.
  auto range = moputil::LogQuantile::LegalIndexRange(mopcollect::AggregateEntry::kRelErr,
                                                     mopfleet::kMaxLogBuckets);
  ASSERT_TRUE(range.has_value());
  auto edge = v4;
  PatchU32(&edge, 176, static_cast<uint32_t>(range->hi - 10));
  EXPECT_TRUE(mopfleet::DecodeSnapshot(edge).ok());
  PatchU32(&edge, 176, static_cast<uint32_t>(range->hi - 9));
  EXPECT_FALSE(mopfleet::DecodeSnapshot(edge).ok());
}

// Only a version-1 to version-3 file may hold a wildcard rollup key, and no
// fold produces an entry sum that is negative or not finite (the wire admits
// only finite, non-negative RTTs), nor a moment count other than the sketch
// total. Each forgery is refused as corrupt. The store header's shard_count
// is ignored on load but still range-checked.
TEST(Snapshot, RejectsRollupKeysInVersion4AndImpossibleSums) {
  auto v3 = ReadFixture("snapshot_v3.bin");
  auto decoded_v3 = mopfleet::DecodeSnapshot(v3);
  ASSERT_TRUE(decoded_v3.ok()) << decoded_v3.status().ToString();
  auto v4 = mopfleet::EncodeSnapshot(decoded_v3.value());

  // shard_count sits at 128: the encoder writes 1, the golden files hold 4.
  // The first entry's key sits at 144 (high word app << 16 | isp at 148);
  // its sum, 200.75 = 0x4069180000000000, follows at 152 (high word at 156).
  // In version 3 the entry's moment count follows the key at 152 and its
  // mean, 100.375 = 0x4059180000000000, at 160 (high word at 164).
  struct Patch {
    const char* what;
    std::vector<uint8_t> image;
    size_t at;
    uint32_t original;
    uint32_t forged;
    const char* error;
  };
  const Patch patches[] = {
      {"v4 zero shard count", v4, 128, 1, 0, "bad shard count"},
      {"v4 shard count past 65,536", v4, 128, 1, 65537, "bad shard count"},
      {"v4 wildcard rollup key", v4, 148, 0, 0xfffe, "legacy rollup key"},
      {"v4 NaN sum", v4, 156, 0x40691800, 0x7ff80000, "sum negative or not finite"},
      {"v4 infinite sum", v4, 156, 0x40691800, 0x7ff00000, "sum negative or not finite"},
      {"v4 negative sum", v4, 156, 0x40691800, 0xc0691800, "sum negative or not finite"},
      {"v3 negative mean", v3, 164, 0x40591800, 0xc0591800, "sum negative or not finite"},
      {"v3 moment count past the sketch total", v3, 152, 2, 3, "sketch counts disagree"},
  };
  for (const Patch& p : patches) {
    ASSERT_EQ(U32At(p.image, p.at), p.original) << p.what;
    auto image = p.image;
    PatchU32(&image, p.at, p.forged);
    auto r = mopfleet::DecodeSnapshot(image);
    ASSERT_FALSE(r.ok()) << p.what;
    EXPECT_NE(r.status().message().find(p.error), std::string::npos)
        << p.what << ": " << r.status().ToString();
  }
  // The same key is a legacy rollup in version 3, which loads.
  auto rollup_v3 = v3;
  PatchU32(&rollup_v3, 148, 0xfffe);
  EXPECT_TRUE(mopfleet::DecodeSnapshot(rollup_v3).ok());
  ASSERT_EQ(U32At(v3, 128), 4u);
  // Any other shard count loads, as 16 (what encoders with a sharded store
  // wrote) shows: the value is dropped, so re-encoding writes 1 again.
  auto sharded = v4;
  PatchU32(&sharded, 128, 16);
  auto from_sharded = mopfleet::DecodeSnapshot(sharded);
  ASSERT_TRUE(from_sharded.ok()) << from_sharded.status().ToString();
  EXPECT_EQ(mopfleet::EncodeSnapshot(from_sharded.value()), v4);
}

// Encoders before version 4 also wrote, per fine key, a per-app and a
// per-ISP rollup entry with wildcard components, and counted their folds in
// samples_folded. The version-3 golden file is of that shape; it loads into
// the state a fresh ingest of its records builds (the version-2 file's, whose
// rollups are dropped too).
TEST(Snapshot, LegacyRollupEntriesAreDroppedOnLoad) {
  auto image = ReadFixture("snapshot_v3.bin");
  ASSERT_EQ(image[2], 3u);
  // samples_folded (a u64) sits at 132: 4 fine folds plus 8 rollup folds.
  ASSERT_EQ(U32At(image, 132), 12u);
  ASSERT_EQ(U32At(image, 136), 0u);
  auto fresh = mopfleet::DecodeSnapshot(ReadFixture("snapshot_v2.bin"));
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();

  auto decoded = mopfleet::DecodeSnapshot(image);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const auto& got = decoded.value();
  EXPECT_EQ(got.store.samples_folded(), 4u);
  EXPECT_EQ(got.store.key_count(), 3u);
  // Byte for byte the state of the file without rollups.
  EXPECT_EQ(mopfleet::EncodeSnapshot(got), mopfleet::EncodeSnapshot(fresh.value()));

  // The rollups hold two folds per record: below that, samples_folded would
  // go negative.
  auto patched = image;
  PatchU32(&patched, 132, 8);
  auto at_floor = mopfleet::DecodeSnapshot(patched);
  ASSERT_TRUE(at_floor.ok()) << at_floor.status().ToString();
  EXPECT_EQ(at_floor.value().store.samples_folded(), 0u);
  PatchU32(&patched, 132, 7);
  auto r = mopfleet::DecodeSnapshot(patched);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("rollup counts exceed samples_folded"), std::string::npos)
      << r.status().ToString();
}

// Restart recovery: a restored collector recognizes re-deliveries of batches
// it ingested before the snapshot — the at-least-once contract survives the
// restart instead of double-counting.
TEST(Snapshot, ImportRestoresDedupAcrossRestart) {
  mopcollect::CollectorServer first;
  mopcollect::BatchBuilder builder(/*device=*/9, /*seq=*/1234);
  builder.Add(MakeMeasurement("App", "a.com", 10));
  auto frame = mopcollect::EncodeBatchFrame(builder.TakeBatch());
  std::span<const uint8_t> payload{frame.data() + 4, frame.size() - 4};
  ASSERT_TRUE(first.IngestPayload(payload).ok());
  auto bytes = mopfleet::EncodeSnapshot(first.ExportState());

  mopcollect::CollectorServer restarted;
  auto state = mopfleet::DecodeSnapshot(bytes);
  ASSERT_TRUE(state.ok());
  restarted.ImportState(std::move(state).value());
  EXPECT_EQ(restarted.counters().records_ingested, 1u);

  // The lost-ack re-delivery after restart: acked as received, not refolded.
  auto second = restarted.IngestPayload(payload);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(restarted.counters().records_ingested, 1u);
  EXPECT_EQ(restarted.counters().batches_duplicate, 1u);
  // A genuinely new batch still folds.
  mopcollect::BatchBuilder fresh(9, 1235);
  fresh.Add(MakeMeasurement("App", "a.com", 20));
  auto frame2 = mopcollect::EncodeBatchFrame(fresh.TakeBatch());
  ASSERT_TRUE(restarted.IngestPayload({frame2.data() + 4, frame2.size() - 4}).ok());
  EXPECT_EQ(restarted.counters().records_ingested, 2u);
}

// ---- Merged view ----

TEST(FleetView, MergesStoresAcrossDifferentInternerIdSpaces) {
  // Two collectors see overlapping apps in different orders, so the same
  // app gets different ids on each — the view must unify by name.
  mopcollect::CollectorServer a, b;
  moputil::Rng rng(5);
  std::vector<double> wa_a, wa_b, yt_b;
  for (int i = 0; i < 500; ++i) {
    wa_a.push_back(rng.LogNormalMedian(200.0, 0.5));
    wa_b.push_back(rng.LogNormalMedian(200.0, 0.5));
    yt_b.push_back(rng.LogNormalMedian(60.0, 0.3));
  }
  IngestRecords(&a, 1, 1, "Whatsapp", wa_a);
  IngestRecords(&b, 2, 1, "Youtube", yt_b);  // Youtube is id 0 on b
  IngestRecords(&b, 3, 1, "Whatsapp", wa_b);

  // Reference: one collector that saw everything.
  mopcollect::CollectorServer all;
  IngestRecords(&all, 1, 1, "Whatsapp", wa_a);
  IngestRecords(&all, 2, 1, "Youtube", yt_b);
  IngestRecords(&all, 3, 1, "Whatsapp", wa_b);

  mopfleet::FleetView view;
  view.AttachCollector(&a);
  view.AttachCollector(&b);
  view.Refresh();
  EXPECT_EQ(view.source_count(), 2u);
  EXPECT_EQ(view.records_ingested(), 1500u);

  auto merged_stats = view.TcpAppStats();
  auto reference_stats = all.TcpAppStats();
  ASSERT_EQ(merged_stats.size(), reference_stats.size());
  for (size_t i = 0; i < merged_stats.size(); ++i) {
    EXPECT_EQ(merged_stats[i].app, reference_stats[i].app);
    EXPECT_EQ(merged_stats[i].count, reference_stats[i].count);
    // Log buckets merge by addition: the merged sketch is *identical* to
    // one fed the union stream, so the quantiles agree exactly.
    EXPECT_DOUBLE_EQ(merged_stats[i].median_ms, reference_stats[i].median_ms);
    EXPECT_DOUBLE_EQ(merged_stats[i].p95_ms, reference_stats[i].p95_ms);
    EXPECT_NEAR(merged_stats[i].mean_ms, reference_stats[i].mean_ms, 1e-9);
  }

  // Refresh is idempotent (rebuilds, never double-folds).
  view.Refresh();
  EXPECT_EQ(view.records_ingested(), 1500u);
  EXPECT_EQ(view.TcpAppStats()[0].count, reference_stats[0].count);
}

// Crowd rollup across the fleet: live collectors and snapshot files merge
// into one HealthStore — counters add, gauges resolve per device by frame
// seq, and a device seen by two collectors (failover) counts once.
TEST(FleetView, MergesHealthAcrossLiveAndSnapshotSources) {
  mopcollect::CollectorServer a, b;
  IngestHealth(&a, /*device=*/1, /*seq=*/10, /*counter=*/5, /*gauge=*/900);
  IngestHealth(&b, /*device=*/2, /*seq=*/3, /*counter=*/7, /*gauge=*/700);
  // Device 1 failed over to collector b and reported a fresher gauge there.
  IngestHealth(&b, /*device=*/1, /*seq=*/11, /*counter=*/2, /*gauge=*/880);

  mopfleet::FleetView view;
  view.AttachCollector(&a);
  view.AttachState(b.ExportState());  // one live, one offline source
  view.Refresh();

  uint64_t made = 0;
  ASSERT_TRUE(view.health().CounterValue("mopeye_device_made_total", &made));
  EXPECT_EQ(made, 14u);  // 5 + 7 + 2: deltas add across sources
  uint64_t battery = 0;
  ASSERT_TRUE(view.health().GaugeValue("mopeye_device_battery_permille", &battery));
  // Device 1 contributes its seq-11 reading (880), not 900 + 880.
  EXPECT_EQ(battery, 880u + 700u);
  EXPECT_EQ(view.health().device_count(), 2u);  // device 1 counted once
  // Refresh is idempotent: re-merging does not double anything.
  view.Refresh();
  ASSERT_TRUE(view.health().CounterValue("mopeye_device_made_total", &made));
  EXPECT_EQ(made, 14u);
}

// The gauge freshness rule in isolation, including seq wrap: MergeFrom takes
// the wrap-aware-newer reading per device rather than summing readings.
TEST(HealthStore, MergeFromResolvesGaugesBySeqWrapAware) {
  mopcollect::WireHealthEntry g;
  g.name = "mopeye_device_queue_depth";
  g.kind = 1;
  g.merge = 0;

  mopcollect::HealthStore older, newer;
  g.value = 500;
  older.FoldEntry(/*device=*/1, /*seq=*/0xfffffffe, g);  // pre-wrap
  g.value = 100;
  newer.FoldEntry(/*device=*/1, /*seq=*/2, g);  // post-wrap: newer
  older.MergeFrom(newer);
  uint64_t v = 0;
  ASSERT_TRUE(older.GaugeValue("mopeye_device_queue_depth", &v));
  EXPECT_EQ(v, 100u);  // the wrapped seq wins; a plain compare would keep 500

  // Merging the stale reading back in does not regress the gauge.
  mopcollect::HealthStore stale;
  g.value = 500;
  stale.FoldEntry(1, 0xfffffffe, g);
  older.MergeFrom(stale);
  ASSERT_TRUE(older.GaugeValue("mopeye_device_queue_depth", &v));
  EXPECT_EQ(v, 100u);

  // Counters have no freshness: deltas always add.
  mopcollect::WireHealthEntry c;
  c.name = "mopeye_device_made_total";
  c.kind = 0;
  c.value = 3;
  mopcollect::HealthStore x, y;
  x.FoldEntry(1, 1, c);
  y.FoldEntry(2, 1, c);
  x.MergeFrom(y);
  ASSERT_TRUE(x.CounterValue("mopeye_device_made_total", &v));
  EXPECT_EQ(v, 6u);
  EXPECT_EQ(x.device_count(), 2u);
}

// MergeFrom applies FoldEntry's shape rule: merging two stores gives the
// conflicts and values folding both streams into one store gives.
TEST(HealthStore, MergeFromRefusesShapesFoldEntryRefuses) {
  mopcollect::WireHealthEntry h;
  h.name = "mopeye_device_rtt_ms";
  h.kind = 2;
  auto hist = [&h](double rel_err, uint64_t count) {
    h.rel_err = rel_err;
    h.buckets = {{100, count}};
    return h;
  };
  mopcollect::WireHealthEntry g;
  g.name = "mopeye_device_queue_depth";
  g.kind = 1;
  auto gauge = [&g](uint8_t merge, uint64_t value) {
    g.merge = merge;
    g.value = value;
    return g;
  };

  mopcollect::HealthStore folded;
  folded.FoldEntry(1, 1, hist(0.02, 5));
  folded.FoldEntry(2, 1, hist(0.01, 7));
  folded.FoldEntry(1, 1, gauge(0, 10));
  folded.FoldEntry(2, 1, gauge(1, 20));
  ASSERT_EQ(folded.conflicts(), 2u);

  mopcollect::HealthStore first, second;
  first.FoldEntry(1, 1, hist(0.02, 5));
  first.FoldEntry(1, 1, gauge(0, 10));
  second.FoldEntry(2, 1, hist(0.01, 7));
  second.FoldEntry(2, 1, gauge(1, 20));
  first.MergeFrom(second);
  EXPECT_EQ(first.conflicts(), 2u);
  const auto* merged_hist = first.Find("mopeye_device_rtt_ms");
  ASSERT_NE(merged_hist, nullptr);
  EXPECT_EQ(merged_hist->HistCount(), 5u);
  EXPECT_EQ(merged_hist->rel_err, 0.02);
  uint64_t v = 0;
  ASSERT_TRUE(first.GaugeValue("mopeye_device_queue_depth", &v));
  EXPECT_EQ(v, 10u);
  EXPECT_EQ(first.metrics(), folded.metrics());

  // A histogram with no geometry yet takes the other's; equal shapes add.
  mopcollect::HealthStore unset, set;
  unset.FoldEntry(1, 1, hist(0, 3));
  set.FoldEntry(2, 1, hist(0.02, 4));
  unset.MergeFrom(set);
  EXPECT_EQ(unset.conflicts(), 0u);
  EXPECT_EQ(unset.Find("mopeye_device_rtt_ms")->HistCount(), 7u);
  EXPECT_EQ(unset.Find("mopeye_device_rtt_ms")->rel_err, 0.02);
}

// ---- Crc32 ----

uint32_t ByteWiseCrc32(std::span<const uint8_t> data) {
  uint32_t crc = 0xffffffffu;
  for (uint8_t b : data) {
    crc ^= b;
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1) ? 0xedb88320u ^ (crc >> 1) : crc >> 1;
    }
  }
  return crc ^ 0xffffffffu;
}

TEST(Crc32, KnownAnswersAndAgreementWithAByteWiseReference) {
  const std::string check = "123456789";
  EXPECT_EQ(mopfleet::Crc32({reinterpret_cast<const uint8_t*>(check.data()), check.size()}),
            0xCBF43926u);
  EXPECT_EQ(mopfleet::Crc32({}), 0u);

  moputil::Rng rng(2017);
  std::vector<uint8_t> buf(1u << 20);
  for (uint8_t& b : buf) {
    b = static_cast<uint8_t>(rng.NextU32());
  }
  // Every tail length at every alignment of an 8-byte block.
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 64; ++len) {
      std::span<const uint8_t> s(buf.data() + offset, len);
      ASSERT_EQ(mopfleet::Crc32(s), ByteWiseCrc32(s)) << "offset " << offset << " len " << len;
    }
  }
  EXPECT_EQ(mopfleet::Crc32(buf), ByteWiseCrc32(buf));
}

// ---- Uploader failover ----

struct TwoCollectorFixture {
  mopsim::EventLoop loop;
  mopnet::PathTable paths;
  mopnet::ServerFarm farm;
  mopnet::NetContext ctx;
  mopcollect::CollectorServer primary, secondary;
  SocketAddr primary_addr{IpAddr(10, 99, 0, 1), 9000};
  SocketAddr secondary_addr{IpAddr(10, 99, 0, 2), 9000};

  TwoCollectorFixture() : ctx(&loop, MakeProfile(), &paths, &farm, moputil::Rng(7)) {
    paths.SetDefault(std::make_shared<moputil::FixedDelay>(Millis(10)));
  }

  static mopnet::NetworkProfile MakeProfile() {
    mopnet::NetworkProfile p;
    p.first_hop_one_way = std::make_shared<moputil::FixedDelay>(Millis(1));
    return p;
  }

  mopcollect::UploaderPolicy FastPolicy() {
    mopcollect::UploaderPolicy policy;
    policy.min_batch_records = 5;
    policy.poll_interval = Seconds(1);
    policy.initial_backoff = Seconds(1);
    policy.max_backoff = Seconds(2);
    policy.ack_timeout = Seconds(5);
    return policy;
  }
};

TEST(UploaderFailover, RotatesToNextShardOnConnectBackoffExhaustion) {
  TwoCollectorFixture f;
  // Home shard down; failover shard up.
  f.secondary.RegisterWith(&f.farm, f.secondary_addr);

  mopeye::MeasurementStore store;
  mopcollect::Uploader up(&f.ctx, &store, {f.primary_addr, f.secondary_addr},
                          /*device_id=*/3, f.FastPolicy());
  up.Start();
  EXPECT_EQ(up.current_collector(), f.primary_addr);
  for (int i = 0; i < 8; ++i) {
    store.Add(MakeMeasurement("App", "a.com", 10.0, f.loop.Now()));
  }
  f.loop.RunFor(Seconds(30));

  // Backoff against the dead home shard exhausted -> rotated -> delivered.
  EXPECT_GE(up.counters().failovers, 1u);
  EXPECT_EQ(up.counters().records_sent, 8u);
  EXPECT_EQ(f.secondary.counters().records_ingested, 8u);
  EXPECT_EQ(f.primary.counters().records_ingested, 0u);
  EXPECT_EQ(up.pending_records(), 0u);
  up.Stop();
}

// The dedup contract across failover: a frame that may have reached the
// home collector is never re-sent elsewhere. Here the home collector folds
// but withholds acks (durable_acks with no snapshotter), so the uploader
// times out repeatedly — yet never fails over, because only the home shard
// can recognize the re-delivery.
TEST(UploaderFailover, PossiblyDeliveredFramesStayPinnedToTheirCollector) {
  TwoCollectorFixture f;
  mopcollect::CollectorServer durable({.durable_acks = true});
  durable.RegisterWith(&f.farm, f.primary_addr);
  f.secondary.RegisterWith(&f.farm, f.secondary_addr);

  mopeye::MeasurementStore store;
  auto policy = f.FastPolicy();
  policy.ack_timeout = Seconds(2);
  mopcollect::Uploader up(&f.ctx, &store, {f.primary_addr, f.secondary_addr}, 3, policy);
  up.Start();
  for (int i = 0; i < 8; ++i) {
    store.Add(MakeMeasurement("App", "a.com", 10.0, f.loop.Now()));
  }
  f.loop.RunFor(Seconds(25));

  // Folded once at the home shard, re-delivered several times (all deduped),
  // never sent to the healthy failover shard, never acked.
  EXPECT_EQ(durable.counters().records_ingested, 8u);
  EXPECT_GE(durable.counters().batches_duplicate, 1u);
  EXPECT_EQ(f.secondary.counters().records_ingested, 0u);
  EXPECT_EQ(up.counters().failovers, 0u);
  EXPECT_GE(up.counters().upload_failures, 2u);
  EXPECT_EQ(up.counters().records_sent, 0u);
  EXPECT_EQ(up.current_collector(), f.primary_addr);

  // Durability arrives: a Snapshotter starts writing (and notifying) on a
  // cadence shorter than the ack timeout, so the next re-delivery's withheld
  // ack flushes while its connection is still alive and the pinned batch
  // finally completes — exactly once.
  std::string path = TmpPath("pinned");
  mopfleet::Snapshotter snap(&f.loop, &durable, path, Seconds(1));
  snap.Start();
  f.loop.RunFor(Seconds(30));
  EXPECT_GE(snap.counters().snapshots_written, 1u);
  EXPECT_EQ(durable.counters().records_ingested, 8u);
  EXPECT_EQ(up.counters().records_sent, 8u);
  EXPECT_EQ(up.pending_records(), 0u);
  up.Stop();
  snap.Stop();
  std::remove(path.c_str());
}

// ---- Crash + restart from snapshot, end to end over sockets ----

TEST(CrashRecovery, CollectorRestartsFromSnapshotWithoutLossOrDoubleCount) {
  TwoCollectorFixture f;
  std::string path = TmpPath("crash");
  const int kRecords = 200;

  auto opts = mopcollect::CollectorOptions{.durable_acks = true};
  auto server = std::make_unique<mopcollect::CollectorServer>(opts);
  server->RegisterWith(&f.farm, f.primary_addr);
  auto snapshotter = std::make_unique<mopfleet::Snapshotter>(&f.loop, server.get(), path,
                                                             Seconds(2));
  snapshotter->Start();

  mopeye::MeasurementStore store;
  auto policy = f.FastPolicy();
  policy.min_batch_records = 20;
  mopcollect::Uploader up(&f.ctx, &store, f.primary_addr, /*device_id=*/4, policy);
  up.Start();

  // Steady generation: 10 records/sim-second for 20 seconds.
  int generated = 0;
  std::function<void()> generate = [&] {
    for (int i = 0; i < 10 && generated < kRecords; ++i, ++generated) {
      store.Add(MakeMeasurement("App", "a.com", 10.0 + generated % 7, f.loop.Now()));
    }
    if (generated < kRecords) {
      f.loop.Schedule(Seconds(1), generate);
    }
  };
  f.loop.Schedule(0, generate);

  // Crash mid-ingest at t=9s: no farewell snapshot, pending acks vanish,
  // connections reset.
  f.loop.Schedule(Seconds(9), [&] {
    f.farm.RemoveTcpServer(f.primary_addr);
    snapshotter->Stop();
    server->Shutdown();
  });

  // Restart at t=14s from whatever the last completed snapshot holds.
  std::unique_ptr<mopcollect::CollectorServer> restarted;
  std::unique_ptr<mopfleet::Snapshotter> snapshotter2;
  f.loop.Schedule(Seconds(14), [&] {
    auto state = mopfleet::ReadSnapshotFile(path);
    ASSERT_TRUE(state.ok()) << state.status().ToString();
    restarted = std::make_unique<mopcollect::CollectorServer>(opts);
    restarted->ImportState(std::move(state).value());
    EXPECT_GT(restarted->counters().records_ingested, 0u);
    EXPECT_LT(restarted->counters().records_ingested, static_cast<uint64_t>(kRecords));
    restarted->RegisterWith(&f.farm, f.primary_addr);
    snapshotter2 = std::make_unique<mopfleet::Snapshotter>(&f.loop, restarted.get(), path,
                                                           Seconds(2));
    snapshotter2->Start();
  });

  f.loop.RunFor(Seconds(40));
  up.FlushNow();
  f.loop.RunFor(Seconds(120));

  ASSERT_NE(restarted, nullptr);
  // Exactness across the crash: every generated record counted exactly once
  // in the restored-plus-refolded collector; the uploader drained fully.
  EXPECT_EQ(restarted->counters().records_ingested, static_cast<uint64_t>(kRecords));
  EXPECT_EQ(up.pending_records(), 0u);
  EXPECT_EQ(up.counters().records_sent, static_cast<uint64_t>(kRecords));
  auto stats = restarted->TcpAppStats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].count, static_cast<size_t>(kRecords));

  up.Stop();
  snapshotter->Stop();
  snapshotter2->Stop();
  std::remove(path.c_str());
}

}  // namespace
