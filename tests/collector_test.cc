// Collector subsystem tests: wire codec round-trip and rejection, the
// device-side uploader's size/age batching and retry/backoff, the
// aggregate store, the dedup windows' bounds, and the full socket path from
// N devices into one collector process.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "collector/aggregate_store.h"
#include "collector/server.h"
#include "collector/uploader.h"
#include "collector/wire.h"
#include "core/measurement.h"
#include "net/net_context.h"
#include "net/server.h"
#include "sim/event_loop.h"
#include "telemetry/metrics.h"
#include "tests/test_world.h"
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

// ---- MeasurementStore::TakeRecords ----

TEST(MeasurementStore, TakeRecordsDrainsAndKeepsWorking) {
  mopeye::MeasurementStore store;
  store.Add(MakeMeasurement("A", "a.com", 10));
  store.Add(MakeMeasurement("B", "b.com", 20));
  auto taken = store.TakeRecords();
  ASSERT_EQ(taken.size(), 2u);
  EXPECT_EQ(taken[0].app, "A");
  EXPECT_EQ(store.size(), 0u);
  // The store keeps accumulating and exporting after the drain.
  store.Add(MakeMeasurement("C", "c.com", 30));
  EXPECT_EQ(store.size(), 1u);
  std::string csv = store.ToCsv();
  EXPECT_NE(csv.find("C"), std::string::npos);
  EXPECT_EQ(csv.find("A,"), std::string::npos);
}

// ---- Wire codec ----

mopcollect::WireBatch RepresentativeBatch() {
  mopcollect::BatchBuilder builder(/*device_id=*/77, /*batch_seq=*/9);
  builder.Add(MakeMeasurement("Whatsapp", "e1.whatsapp.net", 243.5));
  builder.Add(MakeMeasurement("Whatsapp", "mmg.whatsapp.net", 81.25, 5,
                              mopeye::MeasureKind::kTcpConnect, mopnet::NetType::kLte));
  builder.Add(MakeMeasurement("Youtube", "youtube.com", 12.0));
  builder.Add(MakeMeasurement("(dns)", "jio.com", 59.0, 9, mopeye::MeasureKind::kDns,
                              mopnet::NetType::k3G));
  mopeye::Measurement bare;  // everything-empty record: all sentinel indices
  bare.rtt = Millis(33.0);
  builder.Add(bare);
  return builder.TakeBatch();
}

TEST(WireCodec, BuilderInternsStrings) {
  auto batch = RepresentativeBatch();
  EXPECT_EQ(batch.device_id, 77u);
  EXPECT_EQ(batch.batch_seq, 9u);
  ASSERT_EQ(batch.records.size(), 5u);
  // "Whatsapp" appears twice but is interned once.
  EXPECT_EQ(batch.apps, (std::vector<std::string>{"Whatsapp", "Youtube", "(dns)"}));
  EXPECT_EQ(batch.records[0].app_idx, batch.records[1].app_idx);
  EXPECT_EQ(batch.records[4].app_idx, mopcollect::kNoIndex);
  EXPECT_EQ(batch.records[4].domain_idx, mopcollect::kNoDomain);
}

TEST(WireCodec, RoundTripEquality) {
  auto batch = RepresentativeBatch();
  auto frame = mopcollect::EncodeBatchFrame(batch);

  // Feed the frame through the stream reassembler one byte at a time.
  mopcollect::FrameReader reader;
  std::optional<std::vector<uint8_t>> payload;
  for (size_t i = 0; i < frame.size(); ++i) {
    reader.Feed({&frame[i], 1});
    auto p = reader.Next();
    if (p) {
      EXPECT_EQ(i, frame.size() - 1) << "frame completed early";
      payload = std::move(p);
    }
  }
  ASSERT_TRUE(payload.has_value());

  auto decoded = mopcollect::DecodeBatchPayload(*payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value(), batch);
}

TEST(WireCodec, AckRoundTrip) {
  auto frame = mopcollect::EncodeAckFrame({1234, 0});
  mopcollect::FrameReader reader;
  reader.Feed(frame);
  auto payload = reader.Next();
  ASSERT_TRUE(payload.has_value());
  auto type = mopcollect::PeekFrameType(*payload);
  ASSERT_TRUE(type.ok());
  EXPECT_EQ(type.value(), mopcollect::FrameType::kAck);
  auto ack = mopcollect::DecodeAckPayload(*payload);
  ASSERT_TRUE(ack.ok());
  EXPECT_EQ(ack.value().records_accepted, 1234u);
  EXPECT_TRUE(ack.value().ok());
}

TEST(WireCodec, RejectsTruncationAtEveryLength) {
  auto frame = mopcollect::EncodeBatchFrame(RepresentativeBatch());
  std::vector<uint8_t> payload(frame.begin() + 4, frame.end());
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    auto r = mopcollect::DecodeBatchPayload({payload.data(), cut});
    EXPECT_FALSE(r.ok()) << "decode succeeded on a " << cut << "-byte prefix";
  }
  // The untruncated payload still decodes.
  EXPECT_TRUE(mopcollect::DecodeBatchPayload(payload).ok());
  // Trailing garbage is rejected too (record section length must be exact).
  payload.push_back(0);
  EXPECT_FALSE(mopcollect::DecodeBatchPayload(payload).ok());
}

TEST(WireCodec, RejectsBadMagicVersionAndType) {
  auto frame = mopcollect::EncodeBatchFrame(RepresentativeBatch());
  std::vector<uint8_t> payload(frame.begin() + 4, frame.end());

  auto corrupted = payload;
  corrupted[0] ^= 0xff;  // magic
  EXPECT_FALSE(mopcollect::DecodeBatchPayload(corrupted).ok());

  corrupted = payload;
  corrupted[2] = 99;  // version
  auto r = mopcollect::DecodeBatchPayload(corrupted);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("version"), std::string::npos);

  corrupted = payload;
  corrupted[3] = 7;  // frame type
  EXPECT_FALSE(mopcollect::DecodeBatchPayload(corrupted).ok());

  // A valid ack is not a batch.
  auto ack_frame = mopcollect::EncodeAckFrame({1, 0});
  std::vector<uint8_t> ack_payload(ack_frame.begin() + 4, ack_frame.end());
  EXPECT_FALSE(mopcollect::DecodeBatchPayload(ack_payload).ok());
  EXPECT_FALSE(mopcollect::DecodeAckPayload(payload).ok());
}

// ---- Telemetry frames + wire forward/backward compatibility ----

mopcollect::WireTelemetry RepresentativeTelemetry() {
  mopcollect::WireTelemetry t;
  t.device_id = 77;
  t.seq = 9;
  mopcollect::WireHealthEntry counter;
  counter.name = "mopeye_device_records_generated_total";
  counter.kind = 0;
  counter.value = 1234;
  mopcollect::WireHealthEntry gauge;
  gauge.name = "mopeye_device_battery_permille";
  gauge.kind = 1;
  gauge.merge = 0;
  gauge.value = 874;
  mopcollect::WireHealthEntry hist;
  hist.name = "mopeye_device_rtt_ms";
  hist.kind = 2;
  hist.rel_err = 0.02;
  hist.sum = 431.5;
  hist.zero_or_less = 1;
  hist.buckets = {{-3, 2}, {0, 10}, {17, 4}};
  t.health = {counter, gauge, hist};
  mopcollect::WireTraceEntry trace;
  trace.trace_id = 0xdeadbeefcafef00dull;
  trace.device_hash = 0x1234;
  trace.lane = 2;
  trace.hops = {{0, 1000}, {1, 2500}, {2, 2600}};
  t.traces = {trace};
  return t;
}

TEST(WireCodec, TelemetryRoundTripEquality) {
  auto t = RepresentativeTelemetry();
  auto frame = mopcollect::EncodeTelemetryFrame(t);
  mopcollect::FrameReader reader;
  reader.Feed(frame);
  auto payload = reader.Next();
  ASSERT_TRUE(payload.has_value());
  auto raw = mopcollect::PeekRawFrameType(*payload);
  ASSERT_TRUE(raw.ok());
  EXPECT_EQ(raw.value(), static_cast<uint8_t>(mopcollect::FrameType::kTelemetry));
  auto decoded = mopcollect::DecodeTelemetryPayload(*payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value(), t);
}

TEST(WireCodec, TelemetryRejectsTruncationAtEveryLength) {
  auto frame = mopcollect::EncodeTelemetryFrame(RepresentativeTelemetry());
  std::vector<uint8_t> payload(frame.begin() + 4, frame.end());
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    EXPECT_FALSE(mopcollect::DecodeTelemetryPayload({payload.data(), cut}).ok())
        << "decode succeeded on a " << cut << "-byte prefix";
  }
  EXPECT_TRUE(mopcollect::DecodeTelemetryPayload(payload).ok());
  payload.push_back(0);
  EXPECT_FALSE(mopcollect::DecodeTelemetryPayload(payload).ok());
}

// A histogram bucket index far outside the span any sketch can occupy is
// refused at decode. Folded, it would make every crowd scrape rebuild a dense
// sketch over the whole index gap (~8 GiB for this 101-byte frame).
TEST(WireCodec, TelemetryRejectsBucketIndexesOutsideTheClampSpan) {
  mopcollect::WireTelemetry t;
  t.device_id = 3;
  t.seq = 1;
  mopcollect::WireHealthEntry hist;
  hist.name = "mopeye_device_rtt_ms";
  hist.kind = 2;
  hist.rel_err = 0.02;
  hist.buckets = {{0, 1}, {2147483000, 1}};
  t.health = {hist};
  auto frame = mopcollect::EncodeTelemetryFrame(t);
  ASSERT_EQ(frame.size(), 101u);
  std::span<const uint8_t> payload{frame.data() + 4, frame.size() - 4};
  auto decoded = mopcollect::DecodeTelemetryPayload(payload);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), moputil::StatusCode::kInvalidArgument);
  mopcollect::CollectorServer server;
  EXPECT_FALSE(server.IngestTelemetry(payload, nullptr).ok());
  EXPECT_EQ(server.health().metric_count(), 0u);
  EXPECT_EQ(server.counters().telemetry_frames, 0u);

  // The ends of the legal range decode; one past either end does not.
  auto range = moputil::LogQuantile::LegalIndexRange(0.02, mopcollect::kMaxHealthBuckets);
  ASSERT_TRUE(range.has_value());
  auto decodes = [&](std::vector<std::pair<int32_t, uint64_t>> buckets, double rel_err) {
    t.health[0].buckets = std::move(buckets);
    t.health[0].rel_err = rel_err;
    auto f = mopcollect::EncodeTelemetryFrame(t);
    return mopcollect::DecodeTelemetryPayload({f.data() + 4, f.size() - 4}).ok();
  };
  EXPECT_TRUE(decodes({{range->lo, 1}, {range->hi, 1}}, 0.02));
  EXPECT_FALSE(decodes({{range->lo - 1, 1}}, 0.02));
  EXPECT_FALSE(decodes({{range->hi + 1, 1}}, 0.02));
  // A geometry so fine its legal range outgrows kMaxHealthBuckets is refused
  // whatever its indexes.
  EXPECT_FALSE(decodes({{0, 1}}, 1e-3));
}

// A device histogram fed values at and beyond both input clamps occupies
// exactly the ends of the legal range, so its export still decodes and folds.
TEST(WireCodec, HistogramAtTheClampsExportsDecodesAndFolds) {
  moptel::Registry reg(1);
  moptel::Histogram* h = reg.AddHistogram("mopeye_device_rtt_ms", "rtt");
  for (double x : {1e-300, moputil::kLogQuantileMin, moputil::kLogQuantileMin * 1.0000001,
                   moputil::kLogQuantileMax, 1e300}) {
    h->Observe(0, x);
  }
  auto samples = reg.Sample([](std::string_view) { return true; });
  ASSERT_EQ(samples.size(), 1u);
  const moptel::MetricSample& s = samples[0];
  auto range = moputil::LogQuantile::LegalIndexRange(s.rel_err, mopcollect::kMaxHealthBuckets);
  ASSERT_TRUE(range.has_value());
  EXPECT_EQ(s.zero_or_less, 2u);
  ASSERT_EQ(s.buckets.size(), 2u);
  EXPECT_EQ(s.buckets.front(), std::make_pair(range->lo, uint64_t{1}));
  EXPECT_EQ(s.buckets.back(), std::make_pair(range->hi, uint64_t{2}));

  mopcollect::WireTelemetry t;
  t.device_id = 5;
  t.seq = 1;
  mopcollect::WireHealthEntry e;
  e.name = s.name;
  e.kind = static_cast<uint8_t>(s.kind);
  e.rel_err = s.rel_err;
  e.sum = s.sum;
  e.zero_or_less = s.zero_or_less;
  e.buckets = s.buckets;
  t.health = {e};
  auto frame = mopcollect::EncodeTelemetryFrame(t);
  std::span<const uint8_t> payload{frame.data() + 4, frame.size() - 4};
  auto decoded = mopcollect::DecodeTelemetryPayload(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value(), t);

  mopcollect::CollectorServer server;
  ASSERT_TRUE(server.IngestTelemetry(payload, nullptr).ok());
  double top = 0;
  ASSERT_TRUE(server.health().HistQuantile("mopeye_device_rtt_ms", 100.0, &top));
  EXPECT_NEAR(top, moputil::kLogQuantileMax, 0.021 * moputil::kLogQuantileMax);
  EXPECT_NE(server.health().RenderText().find("mopeye_crowd_device_rtt_ms_count 5"),
            std::string::npos);
}

// Backward compat, decoder side: a telemetry frame stamped with a *newer*
// internal format version is reported as kUnimplemented — the defined "skip
// me cleanly" signal — never as a hard protocol error.
TEST(WireCodec, NewerTelemetryFormatIsUnimplementedNotCorrupt) {
  auto frame = mopcollect::EncodeTelemetryFrame(RepresentativeTelemetry());
  std::vector<uint8_t> payload(frame.begin() + 4, frame.end());
  // Header is magic(2) + wire version(1) + type(1); byte 4 is the telemetry
  // format version.
  payload[4] = mopcollect::kTelemetryFormatVersion + 1;
  auto r = mopcollect::DecodeTelemetryPayload(payload);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), moputil::StatusCode::kUnimplemented);
}

// Forward compat, dispatch side: PeekRawFrameType validates only magic +
// wire version and hands back unknown type bytes, so an old receiver can
// *skip* frame kinds added after it shipped; PeekFrameType (the strict
// variant) still bounds the enum.
TEST(WireCodec, PeekRawFrameTypePassesUnknownTypes) {
  auto frame = mopcollect::EncodeAckFrame({1, 0});
  std::vector<uint8_t> payload(frame.begin() + 4, frame.end());
  payload[3] = 9;  // a frame kind from the future
  auto raw = mopcollect::PeekRawFrameType(payload);
  ASSERT_TRUE(raw.ok());
  EXPECT_EQ(raw.value(), 9u);
  EXPECT_FALSE(mopcollect::PeekFrameType(payload).ok());
  // Bad magic / wire version are still rejected even by the raw peek.
  payload[0] ^= 0xff;
  EXPECT_FALSE(mopcollect::PeekRawFrameType(payload).ok());
  payload[0] ^= 0xff;
  payload[2] = 99;
  EXPECT_FALSE(mopcollect::PeekRawFrameType(payload).ok());
}

TEST(WireCodec, RejectsOutOfRangeStringTableIndices) {
  // One record, one app string: patch the record's table indices to point
  // past the tables. Encode layout: the record is the last 20 bytes.
  mopcollect::BatchBuilder builder(1);
  builder.Add(MakeMeasurement("App", "dom.com", 10.0));
  auto frame = mopcollect::EncodeBatchFrame(builder.TakeBatch());
  std::vector<uint8_t> payload(frame.begin() + 4, frame.end());
  size_t rec = payload.size() - mopcollect::kWireRecordBytes;

  auto patch = [&](size_t offset, uint16_t value) {
    auto p = payload;
    p[rec + offset] = static_cast<uint8_t>(value & 0xff);
    p[rec + offset + 1] = static_cast<uint8_t>(value >> 8);
    return p;
  };
  // Offsets within the record: isp@6, country@8, app@10, domain@12 (u32).
  for (size_t offset : {6u, 8u, 10u}) {
    auto p = patch(offset, 5);  // tables have one entry; index 5 is invalid
    auto r = mopcollect::DecodeBatchPayload(p);
    EXPECT_FALSE(r.ok()) << "offset " << offset;
    EXPECT_NE(r.status().message().find("out of range"), std::string::npos);
  }
  auto p = patch(16, 9);  // domain_idx low half; high half stays 0
  EXPECT_FALSE(mopcollect::DecodeBatchPayload(p).ok());
  // Sentinel indices remain valid.
  EXPECT_TRUE(mopcollect::DecodeBatchPayload(patch(10, mopcollect::kNoIndex)).ok());
}

TEST(WireCodec, RejectsBadEnumAndRtt) {
  mopcollect::BatchBuilder builder(1);
  builder.Add(MakeMeasurement("App", "dom.com", 10.0));
  auto frame = mopcollect::EncodeBatchFrame(builder.TakeBatch());
  std::vector<uint8_t> payload(frame.begin() + 4, frame.end());
  size_t rec = payload.size() - mopcollect::kWireRecordBytes;

  auto p = payload;
  p[rec + 4] = 2;  // kind
  EXPECT_FALSE(mopcollect::DecodeBatchPayload(p).ok());
  p = payload;
  p[rec + 5] = 4;  // net_type
  EXPECT_FALSE(mopcollect::DecodeBatchPayload(p).ok());
  p = payload;
  p[rec + 0] = 0;  // rtt float -> negative/NaN patterns
  p[rec + 1] = 0;
  p[rec + 2] = 0x80;
  p[rec + 3] = 0xff;  // 0xff800000 = -inf
  EXPECT_FALSE(mopcollect::DecodeBatchPayload(p).ok());
  p = payload;
  p[rec + 0] = 0xff;
  p[rec + 1] = 0xff;
  p[rec + 2] = 0x7f;
  p[rec + 3] = 0x7f;  // 0x7f7fffff = FLT_MAX: finite but absurd as an RTT
  EXPECT_FALSE(mopcollect::DecodeBatchPayload(p).ok());
  p = payload;
  p[rec + 12] ^= 0xff;  // per-record device id no longer matches the header
  auto r = mopcollect::DecodeBatchPayload(p);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("device id"), std::string::npos);
}

TEST(WireCodec, BuilderClipsPathologicalStrings) {
  mopcollect::BatchBuilder builder(1);
  mopeye::Measurement m = MakeMeasurement("App", "dom.com", 10.0);
  m.app = std::string(100000, 'a');  // 100KB label must not corrupt the frame
  builder.Add(m);
  auto batch = builder.TakeBatch();
  ASSERT_EQ(batch.apps.size(), 1u);
  EXPECT_EQ(batch.apps[0].size(), mopcollect::kMaxWireStringBytes);
  auto frame = mopcollect::EncodeBatchFrame(batch);
  auto decoded =
      mopcollect::DecodeBatchPayload({frame.data() + 4, frame.size() - 4});
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value(), batch);
}

TEST(WireCodec, FrameReaderRejectsOversizedFrame) {
  mopcollect::FrameReader reader;
  // Length prefix claiming 16 MiB.
  std::vector<uint8_t> prefix = {0x00, 0x00, 0x00, 0x01};
  reader.Feed(prefix);
  EXPECT_FALSE(reader.Next().has_value());
  EXPECT_FALSE(reader.status().ok());
  // Poisoned reader stays poisoned.
  reader.Feed(prefix);
  EXPECT_FALSE(reader.Next().has_value());
}

// ---- Aggregate store ----

TEST(AggregateStore, InternerRoundTrip) {
  mopcollect::Interner interner;
  EXPECT_EQ(interner.Intern("Whatsapp"), 0);
  EXPECT_EQ(interner.Intern("Youtube"), 1);
  EXPECT_EQ(interner.Intern("Whatsapp"), 0);
  EXPECT_EQ(interner.Name(0), "Whatsapp");
  EXPECT_EQ(interner.Name(mopcollect::kNoneId), "(none)");
  // InternAll: each name's id here, in order, interning the new ones.
  EXPECT_EQ(interner.InternAll({"Youtube", "Chrome", "Whatsapp"}),
            (std::vector<uint16_t>{1, 2, 0}));
  EXPECT_EQ(interner.Name(2), "Chrome");
}

TEST(AggregateStore, EntriesMatchExactStats) {
  mopcollect::AggregateStore store;
  moputil::Rng rng(99);
  // Three keys with distinct distributions, interleaved.
  struct KeyDist {
    mopcollect::AggregateKey key;
    double median;
    moputil::Samples exact;
  };
  std::vector<KeyDist> dists;
  for (uint16_t app = 0; app < 3; ++app) {
    dists.push_back({{app, 0, 0, 0, 0}, 20.0 + 60.0 * app, {}});
  }
  for (int i = 0; i < 30000; ++i) {
    auto& d = dists[static_cast<size_t>(i) % dists.size()];
    double v = rng.LogNormalMedian(d.median, 0.5);
    store.Add(d.key, v);
    d.exact.Add(v);
  }
  EXPECT_EQ(store.samples_folded(), 30000u);
  EXPECT_EQ(store.key_count(), 3u);
  for (const auto& d : dists) {
    const auto* entry = store.Find(d.key);
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->count(), 10000u);
    EXPECT_NEAR(entry->median_ms(), d.exact.Median(), 0.05 * d.exact.Median());
    EXPECT_NEAR(entry->p95_ms(), d.exact.Percentile(95), 0.05 * d.exact.Percentile(95));
    EXPECT_NEAR(entry->mean_ms(), d.exact.Mean(), 0.05 * d.exact.Mean());
  }
  EXPECT_EQ(store.Find({9, 9, 9, 0, 0}), nullptr);
  EXPECT_GT(store.ApproxMemoryBytes(), 0u);
}

TEST(CollectorServer, IngestFoldsEachRecordOnceAndQueriesMergeFineKeys) {
  mopcollect::CollectorServer server({.retain_records = true});
  mopcollect::BatchBuilder b1(1);
  b1.Add(MakeMeasurement("Whatsapp", "e1.whatsapp.net", 240));
  b1.Add(MakeMeasurement("Whatsapp", "e1.whatsapp.net", 260, 0,
                         mopeye::MeasureKind::kTcpConnect, mopnet::NetType::kLte));
  b1.Add(MakeMeasurement("(dns)", "x.com", 50, 0, mopeye::MeasureKind::kDns,
                         mopnet::NetType::kLte));
  server.IngestBatch(b1.TakeBatch());
  // A second device with overlapping strings in a different wire order:
  // global interning must unify them.
  mopcollect::BatchBuilder b2(2);
  b2.Add(MakeMeasurement("Youtube", "youtube.com", 12));
  b2.Add(MakeMeasurement("Whatsapp", "e2.whatsapp.net", 250));
  server.IngestBatch(b2.TakeBatch());

  EXPECT_EQ(server.counters().records_ingested, 5u);
  // One fold per record; both Whatsapp/Wi-Fi records share a fine key.
  EXPECT_EQ(server.store().samples_folded(), 5u);
  EXPECT_EQ(server.store().key_count(), 4u);
  // The Whatsapp row merges its Wi-Fi and LTE keys.
  auto apps = server.TcpAppStats();
  ASSERT_EQ(apps.size(), 2u);
  EXPECT_EQ(apps[0].app, "Whatsapp");
  EXPECT_EQ(apps[0].count, 3u);
  EXPECT_NEAR(apps[0].median_ms, 250.0, 0.021 * 250.0);  // log-bucket resolution
  EXPECT_EQ(apps[1].app, "Youtube");

  auto isps = server.IspDnsStats();
  ASSERT_EQ(isps.size(), 1u);
  EXPECT_EQ(isps[0].isp, "TestNet");
  EXPECT_EQ(isps[0].net_type, static_cast<uint8_t>(mopnet::NetType::kLte));
  EXPECT_EQ(isps[0].count, 1u);

  // Retained dataset mirrors the ingest (device roster included).
  EXPECT_EQ(server.dataset().size(), 5u);
  EXPECT_EQ(server.dataset().devices().size(), 2u);
  EXPECT_EQ(server.dataset().CountKind(mopcrowd::RecordKind::kDns), 1u);
}

TEST(CollectorServer, DuplicateBatchDeliveryIsAckedNotRefolded) {
  mopcollect::CollectorServer server;
  mopcollect::BatchBuilder b(/*device_id=*/1, /*batch_seq=*/42);
  b.Add(MakeMeasurement("App", "a.com", 10));
  auto frame = mopcollect::EncodeBatchFrame(b.TakeBatch());
  std::span<const uint8_t> payload{frame.data() + 4, frame.size() - 4};

  auto first = server.IngestPayload(payload);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value(), 1u);
  // The re-delivered frame is confirmed (positive ack) but not re-folded.
  auto second = server.IngestPayload(payload);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value(), 1u);
  EXPECT_EQ(server.counters().records_ingested, 1u);
  EXPECT_EQ(server.counters().batches_ok, 1u);
  EXPECT_EQ(server.counters().batches_duplicate, 1u);
}

// The dedup state is windowed per device: old sequence numbers age out (a
// re-delivery is always recent), keeping collector memory bounded however
// many batches — or hostile (device, seq) pairs — arrive.
TEST(CollectorServer, DedupWindowEvictsOldSequences) {
  mopcollect::CollectorServer server;
  auto frame_for_seq = [](uint32_t seq) {
    mopcollect::BatchBuilder b(/*device_id=*/1, seq);
    b.Add(MakeMeasurement("App", "a.com", 10));
    return mopcollect::EncodeBatchFrame(b.TakeBatch());
  };
  auto ingest = [&](uint32_t seq) {
    auto frame = frame_for_seq(seq);
    return server.IngestPayload({frame.data() + 4, frame.size() - 4});
  };
  const uint32_t n = static_cast<uint32_t>(mopcollect::DedupWindows::kSeenBatchWindow) + 1;
  for (uint32_t seq = 0; seq < n; ++seq) {
    ASSERT_TRUE(ingest(seq).ok());
  }
  EXPECT_EQ(server.counters().batches_duplicate, 0u);
  // seq 0 aged out of the window: re-delivering it is no longer detected
  // (bounded memory beats perfect dedup for ancient batches)...
  ASSERT_TRUE(ingest(0).ok());
  EXPECT_EQ(server.counters().batches_duplicate, 0u);
  // ...while a recent sequence still is.
  ASSERT_TRUE(ingest(n - 1).ok());
  EXPECT_EQ(server.counters().batches_duplicate, 1u);
}

// Both bounds of the dedup windows, on the type itself: a device's window
// keeps its newest kSeenBatchWindow seqs...
TEST(DedupWindows, WindowEvictsTheOldestSeq) {
  mopcollect::DedupWindows windows;
  const uint32_t n = static_cast<uint32_t>(mopcollect::DedupWindows::kSeenBatchWindow) + 1;
  for (uint32_t seq = 0; seq < n; ++seq) {
    ASSERT_FALSE(windows.CheckAndRecord(/*device=*/1, seq));
  }
  const auto& window = windows.devices().at(1);
  EXPECT_EQ(window.order.size(), mopcollect::DedupWindows::kSeenBatchWindow);
  EXPECT_EQ(window.set.size(), mopcollect::DedupWindows::kSeenBatchWindow);
  EXPECT_EQ(window.order.front(), 1u);
  EXPECT_FALSE(window.set.contains(0));
  EXPECT_TRUE(windows.CheckAndRecord(1, 1));      // the oldest seq kept
  EXPECT_TRUE(windows.CheckAndRecord(1, n - 1));  // the newest
}

// ...and past kMaxTrackedDevices devices a new device evicts exactly one
// other, the lowest id.
TEST(DedupWindows, DeviceCapEvictsTheLowestId) {
  mopcollect::DedupWindows windows;
  const uint32_t cap = static_cast<uint32_t>(mopcollect::DedupWindows::kMaxTrackedDevices);
  for (uint32_t device = 1; device <= cap; ++device) {
    ASSERT_FALSE(windows.CheckAndRecord(device, 0));
  }
  ASSERT_EQ(windows.devices().size(), cap);
  EXPECT_FALSE(windows.CheckAndRecord(cap + 1, 0));
  EXPECT_EQ(windows.devices().size(), cap);
  EXPECT_FALSE(windows.devices().contains(1));
  EXPECT_TRUE(windows.devices().contains(2));
  EXPECT_TRUE(windows.devices().contains(cap + 1));
  // A tracked device evicts nothing.
  EXPECT_TRUE(windows.CheckAndRecord(2, 0));
  EXPECT_EQ(windows.devices().size(), cap);
  // The evicted device's re-delivery is a double count, not OOM, and its
  // return evicts the lowest other id.
  EXPECT_FALSE(windows.CheckAndRecord(1, 0));
  EXPECT_EQ(windows.devices().size(), cap);
  EXPECT_TRUE(windows.devices().contains(1));
  EXPECT_FALSE(windows.devices().contains(2));
}

// The telemetry dedup window is separate from the batch window but has the
// same exactly-once discipline: a re-delivered frame (identical bytes, as
// the uploader re-sends on a lost ack) is recognized by (device_id, seq) and
// never folds its health deltas twice.
TEST(CollectorServer, DuplicateTelemetryIsNotRefolded) {
  mopcollect::CollectorServer server;
  auto frame = mopcollect::EncodeTelemetryFrame(RepresentativeTelemetry());
  std::span<const uint8_t> payload{frame.data() + 4, frame.size() - 4};

  ASSERT_TRUE(server.IngestTelemetry(payload, nullptr).ok());
  uint64_t folded = 0;
  ASSERT_TRUE(
      server.health().CounterValue("mopeye_device_records_generated_total", &folded));
  EXPECT_EQ(folded, 1234u);

  ASSERT_TRUE(server.IngestTelemetry(payload, nullptr).ok());
  ASSERT_TRUE(
      server.health().CounterValue("mopeye_device_records_generated_total", &folded));
  EXPECT_EQ(folded, 1234u);  // unchanged: the delta folded exactly once
  EXPECT_EQ(server.counters().telemetry_frames, 2u);  // received twice...
  EXPECT_EQ(server.counters().telemetry_duplicate, 1u);  // ...folded once
  EXPECT_EQ(server.health().folds(), 1u);
  EXPECT_EQ(server.health().device_count(), 1u);
}

// ---- Uploader over real sockets ----

struct CollectorFixture {
  mopsim::EventLoop loop;
  mopnet::PathTable paths;
  mopnet::ServerFarm farm;
  mopnet::NetContext ctx;
  mopcollect::CollectorServer server;
  SocketAddr collector_addr{IpAddr(10, 99, 0, 1), 9000};

  CollectorFixture() : ctx(&loop, MakeProfile(), &paths, &farm, moputil::Rng(7)) {
    paths.SetDefault(std::make_shared<moputil::FixedDelay>(Millis(10)));
    server.RegisterWith(&farm, collector_addr);
  }

  static mopnet::NetworkProfile MakeProfile() {
    mopnet::NetworkProfile p;
    p.first_hop_one_way = std::make_shared<moputil::FixedDelay>(Millis(1));
    return p;
  }
};

TEST(Uploader, FlushesWhenSizeThresholdReached) {
  CollectorFixture f;
  mopeye::MeasurementStore store;
  mopcollect::UploaderPolicy policy;
  policy.min_batch_records = 100;
  policy.poll_interval = Seconds(1);
  mopcollect::Uploader up(&f.ctx, &store, f.collector_addr, /*device_id=*/1, policy);
  up.Start();

  for (int i = 0; i < 50; ++i) {
    store.Add(MakeMeasurement("App", "a.com", 10.0, f.loop.Now()));
  }
  f.loop.RunFor(Seconds(5));
  // Below the size threshold and younger than max_batch_age: nothing sent.
  EXPECT_EQ(f.server.counters().records_ingested, 0u);
  EXPECT_EQ(up.pending_records(), 50u);

  for (int i = 0; i < 60; ++i) {
    store.Add(MakeMeasurement("App", "a.com", 10.0, f.loop.Now()));
  }
  f.loop.RunFor(Seconds(5));
  EXPECT_EQ(f.server.counters().records_ingested, 110u);
  EXPECT_EQ(f.server.counters().batches_ok, 1u);
  EXPECT_EQ(up.counters().batches_sent, 1u);
  EXPECT_EQ(up.counters().records_sent, 110u);
  EXPECT_EQ(up.pending_records(), 0u);
  EXPECT_EQ(store.size(), 0u);  // drained via TakeRecords
  up.Stop();
}

TEST(Uploader, FlushesWhenRecordsAge) {
  CollectorFixture f;
  mopeye::MeasurementStore store;
  mopcollect::UploaderPolicy policy;
  policy.min_batch_records = 1000;
  policy.max_batch_age = Seconds(60);
  policy.poll_interval = Seconds(5);
  mopcollect::Uploader up(&f.ctx, &store, f.collector_addr, 1, policy);
  up.Start();

  for (int i = 0; i < 10; ++i) {
    store.Add(MakeMeasurement("App", "a.com", 10.0, f.loop.Now()));
  }
  f.loop.RunFor(Seconds(50));
  EXPECT_EQ(f.server.counters().records_ingested, 0u);
  f.loop.RunFor(Seconds(20));  // oldest record crosses 60 sim-seconds
  EXPECT_EQ(f.server.counters().records_ingested, 10u);
  up.Stop();
}

TEST(Uploader, RetriesWithBackoffUntilCollectorAppears) {
  CollectorFixture f;
  f.farm.RemoveTcpServer(f.collector_addr);  // collector not up yet
  mopeye::MeasurementStore store;
  mopcollect::UploaderPolicy policy;
  policy.min_batch_records = 10;
  policy.poll_interval = Seconds(1);
  policy.initial_backoff = Seconds(2);
  mopcollect::Uploader up(&f.ctx, &store, f.collector_addr, 1, policy);
  up.Start();

  for (int i = 0; i < 25; ++i) {
    store.Add(MakeMeasurement("App", "a.com", 10.0, f.loop.Now()));
  }
  f.loop.RunFor(Seconds(30));
  EXPECT_GE(up.counters().upload_failures, 2u);
  EXPECT_EQ(up.counters().batches_sent, 0u);
  EXPECT_EQ(up.pending_records(), 25u);  // nothing lost

  // Collector comes up: the next retry delivers everything exactly once.
  f.server.RegisterWith(&f.farm, f.collector_addr);
  f.loop.RunFor(Seconds(200));
  EXPECT_EQ(f.server.counters().records_ingested, 25u);
  EXPECT_EQ(up.counters().records_sent, 25u);
  EXPECT_EQ(up.pending_records(), 0u);
  up.Stop();
}

TEST(Uploader, RequeuesOnServerReset) {
  CollectorFixture f;
  // First connection hits a server that resets immediately.
  f.farm.AddTcpServer(f.collector_addr,
                      [] { return std::make_unique<mopnet::ResetBehavior>(); });
  mopeye::MeasurementStore store;
  mopcollect::UploaderPolicy policy;
  policy.min_batch_records = 5;
  policy.poll_interval = Seconds(1);
  policy.initial_backoff = Seconds(2);
  mopcollect::Uploader up(&f.ctx, &store, f.collector_addr, 1, policy);
  up.Start();
  for (int i = 0; i < 8; ++i) {
    store.Add(MakeMeasurement("App", "a.com", 10.0, f.loop.Now()));
  }
  f.loop.RunFor(Seconds(10));
  EXPECT_GE(up.counters().upload_failures, 1u);
  EXPECT_EQ(up.pending_records(), 8u);

  // Swap in the real collector; records arrive exactly once.
  f.server.RegisterWith(&f.farm, f.collector_addr);
  f.loop.RunFor(Seconds(120));
  EXPECT_EQ(f.server.counters().records_ingested, 8u);
  EXPECT_EQ(up.pending_records(), 0u);
  up.Stop();
}

// The delivery-not-acked corner of at-least-once upload: the collector
// ingests a batch but its ack never reaches the device, the uploader times
// out and re-sends the *identical* frame, and the (device_id, batch_seq)
// dedup keeps the records from being folded twice.
TEST(Uploader, LostAckRetryIsDeduplicatedByCollector) {
  CollectorFixture f;
  // First registration ingests but never acks.
  class SilentIngest : public mopnet::ServerBehavior {
   public:
    explicit SilentIngest(mopcollect::CollectorServer* server) : server_(server) {}
    void OnData(mopnet::ServerConn& conn, std::span<const uint8_t> data) override {
      (void)conn;
      reader_.Feed(data);
      while (auto payload = reader_.Next()) {
        (void)server_->IngestPayload(*payload);
      }
    }

   private:
    mopcollect::CollectorServer* server_;
    mopcollect::FrameReader reader_;
  };
  f.farm.AddTcpServer(f.collector_addr,
                      [&f] { return std::make_unique<SilentIngest>(&f.server); });

  mopeye::MeasurementStore store;
  mopcollect::UploaderPolicy policy;
  policy.min_batch_records = 5;
  policy.poll_interval = Seconds(1);
  policy.ack_timeout = Seconds(5);
  policy.initial_backoff = Seconds(2);
  mopcollect::Uploader up(&f.ctx, &store, f.collector_addr, 1, policy);
  up.Start();
  for (int i = 0; i < 8; ++i) {
    store.Add(MakeMeasurement("App", "a.com", 10.0, f.loop.Now()));
  }
  f.loop.RunFor(Seconds(10));  // delivery lands; ack never comes; timeout
  EXPECT_EQ(f.server.counters().records_ingested, 8u);
  EXPECT_GE(up.counters().upload_failures, 1u);
  EXPECT_EQ(up.counters().records_sent, 0u);

  // The acking collector comes back; the re-sent frame is recognized.
  f.server.RegisterWith(&f.farm, f.collector_addr);
  f.loop.RunFor(Seconds(120));
  EXPECT_EQ(f.server.counters().records_ingested, 8u);  // not double-counted
  EXPECT_GE(f.server.counters().batches_duplicate, 1u);
  EXPECT_EQ(up.counters().records_sent, 8u);
  EXPECT_EQ(up.pending_records(), 0u);
  up.Stop();
}

TEST(Uploader, LargeBacklogChainsBatches) {
  CollectorFixture f;
  mopeye::MeasurementStore store;
  mopcollect::UploaderPolicy policy;
  policy.min_batch_records = 100;
  policy.max_records_per_batch = 300;
  policy.poll_interval = Seconds(1);
  mopcollect::Uploader up(&f.ctx, &store, f.collector_addr, 1, policy);
  up.Start();
  for (int i = 0; i < 1000; ++i) {
    store.Add(MakeMeasurement("App", "a.com", 10.0, f.loop.Now()));
  }
  f.loop.RunFor(Seconds(60));
  EXPECT_EQ(f.server.counters().records_ingested, 1000u);
  EXPECT_GE(f.server.counters().batches_ok, 4u);  // 300-record ceiling
  up.Stop();
}

TEST(CollectorServer, MalformedUploadIsRejectedWithoutCrashing) {
  CollectorFixture f;
  // Hand-roll a client that sends garbage with a valid length prefix.
  auto ch = mopnet::SocketChannel::Create(&f.ctx);
  ch->Connect(f.collector_addr, [&ch](moputil::Status st) {
    ASSERT_TRUE(st.ok());
    std::vector<uint8_t> junk = {16, 0, 0, 0};  // 16-byte payload of garbage
    for (int i = 0; i < 16; ++i) {
      junk.push_back(0xab);
    }
    ch->Write(std::move(junk));
  });
  f.loop.RunFor(Seconds(5));
  EXPECT_EQ(f.server.counters().batches_rejected, 1u);
  EXPECT_EQ(f.server.counters().records_ingested, 0u);

  // The collector still accepts a well-formed upload afterwards.
  mopeye::MeasurementStore store;
  mopcollect::UploaderPolicy policy;
  policy.min_batch_records = 1;
  policy.poll_interval = Seconds(1);
  mopcollect::Uploader up(&f.ctx, &store, f.collector_addr, 2, policy);
  up.Start();
  store.Add(MakeMeasurement("App", "a.com", 10.0, f.loop.Now()));
  f.loop.RunFor(Seconds(5));
  EXPECT_EQ(f.server.counters().records_ingested, 1u);
  up.Stop();
}

// An old collector facing a newer device: a well-formed frame of a type
// this receiver has never heard of is *skipped* (counted, not rejected),
// the connection stays up, the batch behind it is acked normally, and the
// dedup window is untouched by the stranger.
TEST(CollectorServer, UnknownFutureFrameTypeIsSkippedCleanly) {
  CollectorFixture f;
  auto ch = mopnet::SocketChannel::Create(&f.ctx);
  ch->Connect(f.collector_addr, [&ch](moputil::Status st) {
    ASSERT_TRUE(st.ok());
    // A frame from the future: valid magic + wire version, type byte 9.
    auto future = mopcollect::EncodeAckFrame({0, 0});
    future[4 + 3] = 9;  // length prefix (4) + header type offset (3)
    mopcollect::BatchBuilder b(/*device_id=*/5, /*batch_seq=*/1);
    b.Add(MakeMeasurement("App", "a.com", 10));
    auto batch = mopcollect::EncodeBatchFrame(b.TakeBatch());
    future.insert(future.end(), batch.begin(), batch.end());
    ch->Write(std::move(future));
  });
  f.loop.RunFor(Seconds(5));
  EXPECT_EQ(f.server.counters().frames_skipped, 1u);
  EXPECT_EQ(f.server.counters().batches_rejected, 0u);
  EXPECT_EQ(f.server.counters().batches_ok, 1u);
  EXPECT_EQ(f.server.counters().records_ingested, 1u);
  // The stranger left no residue in either dedup window: the same batch
  // seq re-delivered is still recognized as the duplicate it is.
  mopcollect::BatchBuilder b2(/*device_id=*/5, /*batch_seq=*/1);
  b2.Add(MakeMeasurement("App", "a.com", 10));
  auto frame = mopcollect::EncodeBatchFrame(b2.TakeBatch());
  auto again = f.server.IngestPayload({frame.data() + 4, frame.size() - 4});
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(f.server.counters().batches_duplicate, 1u);
  EXPECT_EQ(f.server.counters().records_ingested, 1u);
}

// A telemetry frame in a *newer internal format* than this collector speaks
// is skipped over the socket path too: the enrichment is lost, the stream
// and the batch behind it are not.
TEST(CollectorServer, NewerTelemetryFormatSkippedOverSocket) {
  CollectorFixture f;
  auto ch = mopnet::SocketChannel::Create(&f.ctx);
  ch->Connect(f.collector_addr, [&ch](moputil::Status st) {
    ASSERT_TRUE(st.ok());
    auto bytes = mopcollect::EncodeTelemetryFrame(RepresentativeTelemetry());
    bytes[4 + 4] = mopcollect::kTelemetryFormatVersion + 1;  // format byte
    mopcollect::BatchBuilder b(/*device_id=*/77, /*batch_seq=*/10);
    b.Add(MakeMeasurement("App", "a.com", 10));
    auto batch = mopcollect::EncodeBatchFrame(b.TakeBatch());
    bytes.insert(bytes.end(), batch.begin(), batch.end());
    ch->Write(std::move(bytes));
  });
  f.loop.RunFor(Seconds(5));
  EXPECT_EQ(f.server.counters().frames_skipped, 1u);
  EXPECT_EQ(f.server.counters().telemetry_frames, 0u);
  EXPECT_EQ(f.server.counters().telemetry_rejected, 0u);
  EXPECT_EQ(f.server.counters().batches_ok, 1u);
  EXPECT_EQ(f.server.counters().records_ingested, 1u);
}

// A *malformed* telemetry frame (truncated mid-structure) is a protocol
// violation, not a compat case: rejected, connection closed, nothing folded.
TEST(CollectorServer, MalformedTelemetryIsRejected) {
  CollectorFixture f;
  auto ch = mopnet::SocketChannel::Create(&f.ctx);
  ch->Connect(f.collector_addr, [&ch](moputil::Status st) {
    ASSERT_TRUE(st.ok());
    auto full = mopcollect::EncodeTelemetryFrame(RepresentativeTelemetry());
    // Re-frame a truncated payload: chop 8 bytes off and fix the prefix.
    uint32_t len = static_cast<uint32_t>(full.size() - 4 - 8);
    std::vector<uint8_t> bytes = {static_cast<uint8_t>(len), static_cast<uint8_t>(len >> 8),
                                  static_cast<uint8_t>(len >> 16),
                                  static_cast<uint8_t>(len >> 24)};
    bytes.insert(bytes.end(), full.begin() + 4, full.end() - 8);
    ch->Write(std::move(bytes));
  });
  f.loop.RunFor(Seconds(5));
  EXPECT_EQ(f.server.counters().telemetry_rejected, 1u);
  EXPECT_EQ(f.server.counters().telemetry_frames, 0u);
  EXPECT_EQ(f.server.health().metric_count(), 0u);
}

// End-to-end exactness under at-least-once delivery: health export rides
// the lost-ack retry path and the collector's (device, seq) telemetry dedup
// keeps the fleet rollup equal to the device registry — not approximately,
// equal.
TEST(Uploader, HealthExportSurvivesLostAckWithoutDoubleFold) {
  CollectorFixture f;
  // First registration ingests (telemetry included) but never acks.
  class SilentIngest : public mopnet::ServerBehavior {
   public:
    explicit SilentIngest(mopcollect::CollectorServer* server) : server_(server) {}
    void OnData(mopnet::ServerConn& conn, std::span<const uint8_t> data) override {
      (void)conn;
      reader_.Feed(data);
      while (auto payload = reader_.Next()) {
        auto raw = mopcollect::PeekRawFrameType(*payload);
        if (raw.ok() &&
            raw.value() == static_cast<uint8_t>(mopcollect::FrameType::kTelemetry)) {
          (void)server_->IngestTelemetry(*payload, nullptr);
        } else {
          (void)server_->IngestPayload(*payload);
        }
      }
    }

   private:
    mopcollect::CollectorServer* server_;
    mopcollect::FrameReader reader_;
  };
  f.farm.AddTcpServer(f.collector_addr,
                      [&f] { return std::make_unique<SilentIngest>(&f.server); });

  moptel::Registry device_registry(/*lanes=*/1);
  auto* made = device_registry.AddCounter("mopeye_device_records_generated_total",
                                          "records this device generated");
  mopeye::MeasurementStore store;
  mopcollect::UploaderPolicy policy;
  policy.min_batch_records = 5;
  policy.poll_interval = Seconds(1);
  policy.ack_timeout = Seconds(5);
  policy.initial_backoff = Seconds(2);
  mopcollect::Uploader up(&f.ctx, &store, f.collector_addr, 1, policy);
  up.EnableHealthExport(&device_registry, {"mopeye_device_"});
  up.Start();
  for (int i = 0; i < 8; ++i) {
    store.Add(MakeMeasurement("App", "a.com", 10.0, f.loop.Now()));
    made->Inc(0);
  }
  f.loop.RunFor(Seconds(10));  // delivery lands; ack never comes; timeout
  EXPECT_GE(f.server.counters().telemetry_frames, 1u);

  // The acking collector comes back; the identical retry dedups everywhere.
  f.server.RegisterWith(&f.farm, f.collector_addr);
  f.loop.RunFor(Seconds(120));
  EXPECT_EQ(f.server.counters().records_ingested, 8u);
  EXPECT_GE(f.server.counters().telemetry_duplicate, 1u);
  uint64_t folded = 0;
  ASSERT_TRUE(
      f.server.health().CounterValue("mopeye_device_records_generated_total", &folded));
  uint64_t device_truth = 0;
  ASSERT_TRUE(
      device_registry.CounterValue("mopeye_device_records_generated_total", &device_truth));
  EXPECT_EQ(folded, device_truth);
  EXPECT_EQ(folded, 8u);
  up.Stop();
}

// ---- Engine service registry: uploader owned by the engine ----

// The uploader registers as an EngineService: it starts with the engine and
// MopEyeEngine::Stop() triggers its final flush, so the tail of the
// measurement store reaches the collector without the composition layer
// calling FlushNow() itself.
TEST(EngineServiceRegistry, StopTriggersUploaderFinalFlush) {
  moptest::TestWorld world;
  mopcollect::CollectorServer collector;
  SocketAddr addr{IpAddr(10, 99, 0, 1), 9000};
  collector.RegisterWith(&world.farm(), addr);
  world.paths().SetPath(addr.ip, std::make_shared<moputil::FixedDelay>(Millis(5)));
  ASSERT_TRUE(world.StartEngine().ok());

  // Thresholds no poll can hit: only the Stop() flush can deliver.
  mopcollect::UploaderPolicy policy;
  policy.min_batch_records = 1000000;
  policy.max_batch_age = Seconds(1e6);
  auto uploader = std::make_shared<mopcollect::Uploader>(
      &world.device().net(), &world.engine().store(), addr, /*device_id=*/1, policy);
  world.engine().RegisterService(uploader);
  EXPECT_EQ(world.engine().FindService("uploader"), uploader.get());
  EXPECT_EQ(world.engine().service_count(), 1u);

  for (int i = 0; i < 10; ++i) {
    world.engine().store().Add(MakeMeasurement("App", "a.com", 10.0, world.loop().Now()));
  }
  world.RunMs(30000);
  EXPECT_EQ(collector.counters().records_ingested, 0u);  // registry started it, policy held it

  world.engine().Stop();
  world.RunMs(60000);  // the flush upload completes on the loop after Stop()
  EXPECT_EQ(collector.counters().records_ingested, 10u);
  EXPECT_EQ(uploader->counters().batches_sent, 1u);
  EXPECT_EQ(uploader->pending_records(), 0u);
}

// ---- End to end: several devices, one collector, aggregate accuracy ----

TEST(CollectorE2E, MultiDeviceIngestMatchesExactRecomputation) {
  mopsim::EventLoop loop;
  mopnet::PathTable paths;
  paths.SetDefault(std::make_shared<moputil::FixedDelay>(Millis(10)));
  mopnet::ServerFarm farm;
  mopcollect::CollectorServer server({.retain_records = true});
  SocketAddr addr{IpAddr(10, 99, 0, 1), 9000};
  server.RegisterWith(&farm, addr);

  constexpr int kDevices = 4;
  constexpr int kPerDevice = 500;
  struct Device {
    std::unique_ptr<mopnet::NetContext> ctx;
    mopeye::MeasurementStore store;
    std::unique_ptr<mopcollect::Uploader> uploader;
  };
  std::vector<Device> devices(kDevices);
  moputil::Rng rng(42);
  moputil::Samples exact_whatsapp;
  for (int d = 0; d < kDevices; ++d) {
    mopnet::NetworkProfile profile;
    profile.first_hop_one_way = std::make_shared<moputil::FixedDelay>(Millis(1));
    devices[d].ctx = std::make_unique<mopnet::NetContext>(&loop, profile, &paths, &farm,
                                                          moputil::Rng(100 + d));
    mopcollect::UploaderPolicy policy;
    policy.min_batch_records = 200;
    policy.poll_interval = Seconds(2);
    devices[d].uploader = std::make_unique<mopcollect::Uploader>(
        devices[d].ctx.get(), &devices[d].store, addr, static_cast<uint32_t>(d), policy);
    devices[d].uploader->Start();
    for (int i = 0; i < kPerDevice; ++i) {
      double rtt = rng.LogNormalMedian(230.0, 0.4);
      exact_whatsapp.Add(rtt);
      devices[d].store.Add(MakeMeasurement("Whatsapp", "e1.whatsapp.net", rtt, loop.Now()));
    }
  }
  loop.RunFor(Seconds(30));
  for (auto& d : devices) {
    d.uploader->FlushNow();
  }
  loop.RunFor(Seconds(30));

  EXPECT_EQ(server.counters().records_ingested,
            static_cast<uint64_t>(kDevices * kPerDevice));
  EXPECT_GE(server.counters().connections, static_cast<uint64_t>(kDevices));
  EXPECT_EQ(server.dataset().devices().size(), static_cast<size_t>(kDevices));

  auto apps = server.TcpAppStats();
  ASSERT_EQ(apps.size(), 1u);
  EXPECT_EQ(apps[0].count, static_cast<size_t>(kDevices * kPerDevice));
  EXPECT_NEAR(apps[0].median_ms, exact_whatsapp.Median(), 0.05 * exact_whatsapp.Median());
  EXPECT_NEAR(apps[0].p95_ms, exact_whatsapp.Percentile(95),
              0.05 * exact_whatsapp.Percentile(95));

  for (auto& d : devices) {
    d.uploader->Stop();
  }
}

}  // namespace
