// crowd_ingest: the collector and fleet layers alone, no simulator.
//
// Set-up draws a pool of device-clustered 500-record batches and encodes
// them, each preceded by the kTelemetry frame an exporting device sends, with
// a share re-delivered (dedup). Each timed round routes the whole pool
// through FleetRouter onto three fresh in-process CollectorServers, runs an
// in-memory snapshot round trip (ExportState -> EncodeSnapshot ->
// DecodeSnapshot) every kSnapshotEvery deliveries and a merged FleetView
// query every kQueryEvery, then checks the merged totals against the pool.
// A fixed number of rounds is timed in fixed chunks of the schedule; real
// cost is read through BestPerChunk (bench.h).
#include <algorithm>
#include <array>
#include <memory>
#include <string>
#include <vector>

#include "collector/server.h"
#include "fleet/router.h"
#include "fleet/snapshot.h"
#include "fleet/view.h"
#include "perfbench/runner/bench.h"
#include "perfbench/runner/crowd_gen.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace perfbench {

CrowdGenerator::CrowdGenerator(uint64_t seed, size_t devices)
    : world_(mopcrowd::World::Default()),
      rng_(seed ^ 0xc20d),
      trace_seq_(devices, 0),
      gauge_exported_(devices, false) {
  const size_t head_apps = std::min<size_t>(world_.apps().size(), 24);
  for (size_t a = 0; a < head_apps; ++a) {
    app_weights_.push_back(world_.apps()[a].install_rate * world_.apps()[a].usage_weight);
  }
  std::vector<uint32_t> seen;
  while (device_ids_.size() < devices) {
    uint32_t id = rng_.NextU32();
    if (id != 0 && std::find(seen.begin(), seen.end(), id) == seen.end()) {
      seen.push_back(id);
      device_ids_.push_back(id);
    }
  }
}

std::vector<mopeye::Measurement> CrowdGenerator::NextBatch(uint32_t* device_id,
                                                           uint32_t* batch_seq) {
  const size_t index = next_batch_++;
  const size_t device = index % device_ids_.size();
  *device_id = device_ids_[device];
  *batch_seq = static_cast<uint32_t>(index / device_ids_.size() + 1);
  const auto& country = world_.countries()[device % world_.countries().size()];
  const mopcrowd::IspProfile* isp =
      country.cellular_isps.empty()
          ? nullptr
          : &world_.isps()[static_cast<size_t>(
                country.cellular_isps[device % country.cellular_isps.size()])];
  std::vector<mopeye::Measurement> out(kRecordsPerBatch);
  for (size_t i = 0; i < out.size(); ++i) {
    mopeye::Measurement& m = out[i];
    // Creation stamps one virtual millisecond apart per batch.
    m.trace.device_hash = static_cast<uint32_t>(device + 1);
    m.trace.lane = 0;
    m.trace.seq = ++trace_seq_[device];
    m.trace.born_ns = static_cast<int64_t>(index) * 1'000'000 + static_cast<int64_t>(i);
    bool wifi = isp == nullptr || rng_.Bernoulli(0.5);
    m.net_type = wifi ? mopnet::NetType::kWifi : isp->type;
    m.isp = wifi ? "HomeFiber" : isp->name;
    m.country = country.code;
    if (rng_.Bernoulli(kDnsShare)) {
      m.kind = mopeye::MeasureKind::kDns;
      m.rtt = moputil::Millis(world_.SampleDnsRttMs(m.net_type, wifi ? nullptr : isp,
                                                    country.wifi_dns_median_ms, rng_));
      continue;
    }
    const auto& app = world_.apps()[rng_.WeightedIndex(app_weights_)];
    m.app = app.label;
    m.domain = app.domains.front().pattern;
    m.rtt = moputil::Millis(world_.SampleAppRttMs(m.net_type, wifi ? nullptr : isp,
                                                  app.domains.front().placement, rng_));
  }
  return out;
}

mopcollect::WireTelemetry CrowdGenerator::Telemetry(
    uint32_t device_id, uint32_t batch_seq, const std::vector<mopeye::Measurement>& batch) {
  mopcollect::WireTelemetry t;
  t.device_id = device_id;
  t.seq = batch_seq;
  if (batch.empty()) {
    return t;
  }
  const size_t device = batch.front().trace.device_hash - 1;
  const int64_t batched_ns = batch.back().trace.born_ns + 1;
  for (const mopeye::Measurement& m : batch) {
    uint64_t id = m.trace.id();
    if (t.traces.size() < mopcollect::kMaxTraceEntries &&
        moptel::TraceSampled(id, kTraceSamplePeriod)) {
      mopcollect::WireTraceEntry e;
      e.trace_id = id;
      e.device_hash = m.trace.device_hash;
      e.lane = m.trace.lane;
      e.hops.push_back({static_cast<uint8_t>(moptel::TraceHop::kCreated), m.trace.born_ns});
      e.hops.push_back({static_cast<uint8_t>(moptel::TraceHop::kBatched), batched_ns});
      t.traces.push_back(std::move(e));
    }
  }
  // The registry deltas since the last frame: this batch's records.
  moptel::Registry reg(1);
  reg.AddCounter("mopeye_device_records_generated_total", "Records this device generated")
      ->Add(0, batch.size());
  if (!gauge_exported_[device]) {
    gauge_exported_[device] = true;
    reg.AddGauge("mopeye_device_battery_permille", "Battery level, per-mille",
                 moptel::GaugeMerge::kSum)
        ->Set(0, 900 - 13 * (device % 20));
  }
  moptel::Histogram* rtt = reg.AddHistogram("mopeye_device_rtt_ms", "RTTs this device measured");
  for (const mopeye::Measurement& m : batch) {
    rtt->Observe(0, moputil::ToMillis(m.rtt));
  }
  for (const moptel::MetricSample& s : reg.Sample()) {
    mopcollect::WireHealthEntry e;
    e.name = s.name;
    e.kind = static_cast<uint8_t>(s.kind);
    e.merge = s.merge == moptel::GaugeMerge::kMax ? 1 : 0;
    e.value = s.value;
    e.rel_err = s.rel_err;
    e.sum = s.sum;
    e.zero_or_less = s.zero_or_less;
    e.buckets = s.buckets;
    t.health.push_back(std::move(e));
  }
  return t;
}

namespace {

constexpr size_t kDevices = 400;
// Lost-ack re-deliveries (identical frames sent again a little later). No
// loss rate is modelled anywhere in the repo (fleet_e2e's default run dedups
// 0 batches), so this share is chosen only to keep the dedup path in the mix.
constexpr size_t kRedeliverLag = 16;
constexpr double kRedeliverShare = 0.05;
constexpr size_t kSnapshotEvery = 250;
constexpr size_t kQueryEvery = 125;
// A chunk is this many deliveries, so each full chunk ends with a query and
// every second one with a snapshot.
constexpr size_t kChunkDeliveries = kQueryEvery;
constexpr size_t kCollectors = 3;
// CPU seconds of one round on the reference host (PassCount).
constexpr double kNominalRoundS = 0.5;

struct Delivery {
  uint32_t batch = 0;
  bool first = true;  // false for a re-delivery
};

struct CrowdPool {
  std::vector<std::vector<uint8_t>> frames;     // length-prefixed batch frames
  std::vector<uint32_t> devices;                 // device id per batch
  std::vector<std::vector<uint8_t>> telemetry;  // the health frame ahead of each batch
  std::vector<Delivery> schedule;
  uint64_t unique_records = 0;
  uint64_t redeliveries = 0;
  uint64_t wire_bytes = 0;  // batch and health frames, first deliveries
};

std::span<const uint8_t> Payload(const std::vector<uint8_t>& frame) {
  return {frame.data() + 4, frame.size() - 4};
}

std::unique_ptr<CrowdPool> MakePool(uint64_t seed, size_t batches, Tracer& tracer,
                                    uint64_t parent) {
  auto pool = std::make_unique<CrowdPool>();
  CrowdGenerator gen(seed, kDevices);
  moputil::Rng rng(seed ^ 0x5ced);
  {
    SpanScope span(tracer, "setup.generate_encode", parent);
    for (size_t i = 0; i < batches; ++i) {
      uint32_t device = 0, seq = 0;
      std::vector<mopeye::Measurement> records = gen.NextBatch(&device, &seq);
      mopcollect::BatchBuilder builder(device, seq);
      for (const auto& m : records) {
        builder.Add(m);
      }
      pool->frames.push_back(mopcollect::EncodeBatchFrame(builder.TakeBatch()));
      pool->telemetry.push_back(
          mopcollect::EncodeTelemetryFrame(gen.Telemetry(device, seq, records)));
      pool->devices.push_back(device);
      pool->unique_records += records.size();
      pool->wire_bytes += pool->frames.back().size() + pool->telemetry.back().size();
    }
  }
  SpanScope span(tracer, "setup.schedule", parent);
  std::vector<bool> redeliver(batches);
  for (size_t i = 0; i < batches; ++i) {
    redeliver[i] = rng.Bernoulli(kRedeliverShare);
  }
  for (size_t i = 0; i < batches; ++i) {
    pool->schedule.push_back({static_cast<uint32_t>(i), true});
    if (i >= kRedeliverLag && redeliver[i - kRedeliverLag]) {
      pool->schedule.push_back({static_cast<uint32_t>(i - kRedeliverLag), false});
      ++pool->redeliveries;
    }
  }
  return pool;
}

// Per-round measurements outside the chunk clock, and the round's checks.
struct RoundStats {
  std::vector<double> health_us, refresh_ms, query_ms, total_query_ms;  // per call
  std::vector<double> snap_encode_ms, snap_decode_ms, snap_bytes;
  uint64_t deliveries = 0;
  uint64_t snapshots = 0;
  uint64_t queries = 0;
  uint64_t merged_keys = 0;
  uint64_t batches_duplicate = 0;
  double folds_per_record = 0;
  double bytes_per_key = 0;
};

void SnapshotRoundTrip(const mopcollect::CollectorServer& src, Tracer& tracer, uint64_t parent,
                       uint64_t group, Result& r, RoundStats& s) {
  SpanScope span(tracer, "fleet.snapshot_round_trip", parent, group);
  mopcollect::CollectorState state;
  {
    SpanScope child(tracer, "collector.export_state", span.id(), group);
    state = src.ExportState();
  }
  double e0 = CpuSeconds();
  std::vector<uint8_t> bytes;
  {
    SpanScope child(tracer, "fleet.encode_snapshot", span.id(), group);
    bytes = mopfleet::EncodeSnapshot(state);
  }
  double e1 = CpuSeconds();
  moputil::Result<mopcollect::CollectorState> back = [&] {
    SpanScope child(tracer, "fleet.decode_snapshot", span.id(), group);
    return mopfleet::DecodeSnapshot(bytes);
  }();
  double e2 = CpuSeconds();
  s.snap_encode_ms.push_back((e1 - e0) * 1e3);
  s.snap_decode_ms.push_back((e2 - e1) * 1e3);
  s.snap_bytes.push_back(static_cast<double>(bytes.size()));
  ++s.snapshots;
  if (!back.ok() || back.value().store.key_count() != src.store().key_count() ||
      back.value().records_ingested != src.counters().records_ingested ||
      back.value().store.samples_folded() != src.store().samples_folded() ||
      !(back.value().health == src.health())) {
    r.Fail("snapshot round trip lost keys, totals or health");
  }
}

void MergedQuery(mopfleet::FleetView& view, Tracer& tracer, uint64_t parent, uint64_t group,
                 Result& r, RoundStats& s) {
  SpanScope span(tracer, "fleet.merged_query", parent, group);
  double q0 = CpuSeconds();
  {
    SpanScope child(tracer, "fleet.view_refresh", span.id(), group);
    view.Refresh();
  }
  double q1 = CpuSeconds();
  size_t rows = 0;
  {
    SpanScope child(tracer, "fleet.query", span.id(), group);
    rows = view.TcpAppStats().size() + view.IspDnsStats().size();
  }
  double q2 = CpuSeconds();
  s.refresh_ms.push_back((q1 - q0) * 1e3);
  s.query_ms.push_back((q2 - q1) * 1e3);
  s.total_query_ms.push_back((q2 - q0) * 1e3);
  ++s.queries;
  if (rows == 0) {
    r.Fail("merged query returned no rows");
  }
}

// One round: the whole schedule onto three fresh collectors, timed in chunks
// of kChunkDeliveries deliveries (health frame + batch each, plus the
// snapshots and queries that fall inside), then the round's oracles.
std::vector<Chunk> RunRound(const CrowdPool& pool, const mopfleet::FleetRouter& router,
                            Tracer& tracer, uint64_t round, Result& r, RoundStats& s) {
  SpanScope round_span(tracer, "crowd.round", 0, round);
  std::array<std::unique_ptr<mopcollect::CollectorServer>, kCollectors> cs;
  mopfleet::FleetView view;
  for (auto& c : cs) {
    c = std::make_unique<mopcollect::CollectorServer>(mopcollect::CollectorOptions{.shards = 16});
    view.AttachCollector(c.get());
  }
  std::vector<Chunk> chunks;
  Chunk chunk;
  double chunk_cpu0 = CpuSeconds();
  for (size_t k = 0; k < pool.schedule.size(); ++k) {
    const Delivery& d = pool.schedule[k];
    mopcollect::CollectorServer& c = *cs[router.ShardOf(pool.devices[d.batch])];
    std::vector<uint64_t> trace_ids;
    double h0 = CpuSeconds();
    moputil::Status st;
    {
      SpanScope span(tracer, "collector.ingest_telemetry", round_span.id(), k);
      st = c.IngestTelemetry(Payload(pool.telemetry[d.batch]), &trace_ids);
    }
    s.health_us.push_back((CpuSeconds() - h0) * 1e6);
    if (!st.ok()) {
      r.Fail(Cat("telemetry frame rejected: ", st.ToString()));
    }
    double t0 = CpuSeconds();
    moputil::Result<uint32_t> accepted = [&] {
      SpanScope span(tracer, "collector.ingest_payload", round_span.id(), k);
      return c.IngestPayload(Payload(pool.frames[d.batch]), std::move(trace_ids));
    }();
    chunk.steps_us.push_back((CpuSeconds() - t0) * 1e6);
    ++s.deliveries;
    ++r.attempted;
    if (!accepted.ok()) {
      r.Fail(Cat("batch rejected: ", accepted.status().ToString()));
    } else if (d.first) {
      chunk.work += accepted.value();
    }
    if ((k + 1) % kSnapshotEvery == 0) {
      SnapshotRoundTrip(*cs[(k / kSnapshotEvery) % kCollectors], tracer, round_span.id(), k, r, s);
    }
    if ((k + 1) % kQueryEvery == 0) {
      MergedQuery(view, tracer, round_span.id(), k, r, s);
    }
    if ((k + 1) % kChunkDeliveries == 0 || k + 1 == pool.schedule.size()) {
      double now = CpuSeconds();
      chunk.cpu_s = now - chunk_cpu0;
      chunks.push_back(std::move(chunk));
      chunk = Chunk();
      chunk_cpu0 = now;
    }
  }

  // Oracles: every generated record folded exactly once fleet-wide, and the
  // crowd health rollups exactly the sum of what the devices exported.
  mopcollect::CollectorServer::Counters sum;
  uint64_t folds = 0, keys = 0, bytes = 0;
  for (const auto& c : cs) {
    const auto& cc = c->counters();
    sum.records_ingested += cc.records_ingested;
    sum.batches_duplicate += cc.batches_duplicate;
    sum.telemetry_frames += cc.telemetry_frames;
    sum.telemetry_duplicate += cc.telemetry_duplicate;
    folds += c->store().samples_folded();
    keys += c->store().key_count();
    bytes += c->store().ApproxMemoryBytes();
  }
  view.Refresh();
  if (sum.records_ingested != pool.unique_records || view.records_ingested() != pool.unique_records) {
    r.Fail(Cat("merged total ", view.records_ingested(), " differs from the ",
               pool.unique_records, " records generated"));
  }
  if (sum.batches_duplicate != pool.redeliveries || sum.telemetry_duplicate != pool.redeliveries ||
      sum.telemetry_frames != pool.schedule.size()) {
    r.Fail("dedup counters do not match the re-delivery schedule");
  }
  uint64_t generated = 0;
  const mopcollect::HealthStore::Metric* rtt = view.health().Find("mopeye_device_rtt_ms");
  if (!view.health().CounterValue("mopeye_device_records_generated_total", &generated) ||
      generated != pool.unique_records || rtt == nullptr ||
      rtt->HistCount() != pool.unique_records ||
      view.health().device_count() != std::min(kDevices, pool.frames.size())) {
    r.Fail("crowd health rollups differ from the device exports");
  }
  s.merged_keys = view.store().key_count();
  s.batches_duplicate = sum.batches_duplicate;
  s.folds_per_record = static_cast<double>(folds) / static_cast<double>(pool.unique_records);
  s.bytes_per_key = keys > 0 ? static_cast<double>(bytes) / static_cast<double>(keys) : 0;
  return chunks;
}

}  // namespace

Result RunCrowdIngest(const Options& opts, Tracer& tracer) {
  Result r;
  const bool tiny = opts.size == Size::kTiny;
  const size_t batches = tiny ? 300 : 1000;
  tracer.set_enabled(opts.trace);
  // Set-up is short, so it is repeated and setup_s is the median; the last
  // pool is the one timed.
  std::unique_ptr<CrowdPool> pool;
  std::vector<double> setup_s;
  for (int i = 0; i < 7; ++i) {
    pool.reset();
    const double t0 = CpuSeconds();
    {
      SpanScope span(tracer, "setup", 0, static_cast<uint64_t>(i));
      pool = MakePool(opts.seed, batches, tracer, span.id());
    }
    setup_s.push_back(CpuSeconds() - t0);
  }
  r.Set("setup_s", Median(setup_s));
  std::vector<moppkt::SocketAddr> addrs;
  for (size_t i = 0; i < kCollectors; ++i) {
    addrs.push_back({moppkt::IpAddr(10, 77, 0, static_cast<uint8_t>(1 + i)), 7700});
  }
  mopfleet::FleetRouter router(addrs);

  // Rounds as relay passes: half untraced and half traced in a traced run.
  const int rounds = PassCount(opts, kNominalRoundS);
  const int untraced_rounds = opts.trace ? std::max(2, rounds / 2) : rounds;
  const int all_rounds = opts.trace ? untraced_rounds + std::max(2, rounds / 2) : rounds;
  BestPerChunk untraced, traced;
  RoundStats first, all;  // round 0; every untraced round
  auto append = [](std::vector<double>& to, const std::vector<double>& from) {
    to.insert(to.end(), from.begin(), from.end());
  };
  for (int round = 0; round < all_rounds; ++round) {
    const bool tracing = round >= untraced_rounds;
    tracer.set_enabled(tracing);
    RoundStats s;
    std::vector<Chunk> chunks = RunRound(*pool, router, tracer, static_cast<uint64_t>(round), r, s);
    (tracing ? traced : untraced).Add(std::move(chunks), r);
    if (round == 0) {
      first = s;
      r.Set("peak_rss_mib", PeakRssMiB());
    }
    if (!tracing) {
      append(all.health_us, s.health_us);
      append(all.refresh_ms, s.refresh_ms);
      append(all.query_ms, s.query_ms);
      append(all.total_query_ms, s.total_query_ms);
      append(all.snap_encode_ms, s.snap_encode_ms);
      append(all.snap_decode_ms, s.snap_decode_ms);
    }
  }
  tracer.set_enabled(false);

  untraced.Report(r);
  r.Set("query_p50_ms", Median(all.total_query_ms));
  r.Set("bench.queries", static_cast<double>(all.total_query_ms.size()));
  if (!opts.trace) {
    return r;
  }

  r.Set("bench.trace_overhead_pct", (traced.cpu_s() / untraced.cpu_s() - 1.0) * 100.0);
  MeasureCollectorUnitCosts(opts.seed, r);
  r.Set("collector.health_fold_us", Median(all.health_us));
  r.Set("collector.batches_duplicate", static_cast<double>(first.batches_duplicate));
  r.Set("collector.aggregate_keys", static_cast<double>(first.merged_keys));
  r.Set("collector.aggregate_bytes_per_key", first.bytes_per_key);
  r.Set("collector.folds_per_record", first.folds_per_record);
  r.Set("collector.wire_bytes_per_record",
        static_cast<double>(pool->wire_bytes) / static_cast<double>(pool->unique_records));
  r.Set("fleet.snapshot_encode_ms", Median(all.snap_encode_ms));
  r.Set("fleet.snapshot_decode_ms", Median(all.snap_decode_ms));
  r.Set("fleet.snapshot_bytes", Median(first.snap_bytes));
  r.Set("fleet.view_refresh_ms", Median(all.refresh_ms));
  r.Set("fleet.query_ms", Median(all.query_ms));

  // Attribution of one round's chunk CPU (least per chunk, summed): counts of
  // the first round times unit costs.
  auto m = [&r](const char* k) { return r.metrics[k]; };
  const double cpu_ns = untraced.cpu_s() * 1e9;
  const double records = static_cast<double>(pool->unique_records);
  const double decoded = static_cast<double>(first.deliveries * CrowdGenerator::kRecordsPerBatch);
  double explained_ns =
      decoded * m("collector.decode_ns_per_record") +
      records * m("collector.fold_ns_per_record") +
      static_cast<double>(first.deliveries) * m("collector.health_fold_us") * 1e3 +
      static_cast<double>(first.snapshots) *
          (m("fleet.snapshot_encode_ms") + m("fleet.snapshot_decode_ms")) * 1e6 +
      static_cast<double>(first.queries) * (m("fleet.view_refresh_ms") + m("fleet.query_ms")) *
          1e6;
  r.Set("attrib.explained_share", cpu_ns > 0 ? explained_ns / cpu_ns : 0);
  r.Set("attrib.remainder_ns_per_unit", (cpu_ns - explained_ns) / records);
  return r;
}

}  // namespace perfbench
