// moptel unit tests: lane-sharded merge exactness (run under TSan with real
// concurrent writers), histogram-vs-LogQuantile bit-equivalence, the shared
// cell-table cache and the log sink under concurrent threads, flight
// recorder ring semantics and the fatal dump hook, the text exposition
// golden, and the zero-steady-state-allocation guarantee the hot-path
// instrumentation is built on.
// The replaced operators below route through malloc/free; GCC's
// mismatched-new-delete analysis does not model user-replaced global
// operators and flags every inlined delete in this TU.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <map>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "telemetry/export_server.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/time.h"

namespace {

// Global allocation counter for the zero-allocation test. Overriding the
// global operator new in a test binary is fair game: every allocation in the
// process bumps the counter, so a flat count across a hot-path section proves
// that section allocation-free.
std::atomic<uint64_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {
// The registry tests above this file's death test spawn real threads;
// threadsafe style re-execs the binary so the death assertion stays sound.
struct DeathStyleInit {
  DeathStyleInit() { testing::FLAGS_gtest_death_test_style = "threadsafe"; }
} g_death_style_init;
}  // namespace

namespace {

// ---- Merge exactness under concurrent writers ----

TEST(Registry, ConcurrentLaneWritersMergeExactly) {
  // The whole point of lane sharding: each writer touches only its own cell,
  // so plain (non-atomic) increments merge exactly. Running the lanes as real
  // threads makes TSan prove the no-sharing claim.
  constexpr size_t kLanes = 4;
  constexpr uint64_t kPerLane = 100000;
  moptel::Registry reg(kLanes);
  moptel::Counter* counter = reg.AddCounter("t_ops_total", "ops");
  moptel::Gauge* peak = reg.AddGauge("t_peak", "peak", moptel::GaugeMerge::kMax);
  moptel::Histogram* lat = reg.AddHistogram("t_lat_ms", "latency");

  std::vector<std::thread> writers;
  for (size_t lane = 0; lane < kLanes; ++lane) {
    writers.emplace_back([&, lane] {
      for (uint64_t i = 0; i < kPerLane; ++i) {
        counter->Inc(lane);
        peak->SetMax(lane, i + lane);
        lat->Observe(lane, 1.0);
      }
    });
  }
  for (auto& t : writers) {
    t.join();
  }

  EXPECT_EQ(counter->Value(), kLanes * kPerLane);
  for (size_t lane = 0; lane < kLanes; ++lane) {
    EXPECT_EQ(counter->LaneValue(lane), kPerLane);
    EXPECT_EQ(peak->LaneValue(lane), kPerLane - 1 + lane);
    EXPECT_EQ(lat->LaneCount(lane), kPerLane);
  }
  EXPECT_EQ(peak->Value(), kPerLane - 1 + (kLanes - 1));  // max-merge
  EXPECT_EQ(lat->Count(), kLanes * kPerLane);
  EXPECT_DOUBLE_EQ(lat->Sum(), static_cast<double>(kLanes * kPerLane));
}

TEST(Registry, GaugeMergeModes) {
  moptel::Registry reg(3);
  moptel::Gauge* sum = reg.AddGauge("t_depth", "depth", moptel::GaugeMerge::kSum);
  moptel::Gauge* peak = reg.AddGauge("t_hw", "high water", moptel::GaugeMerge::kMax);
  for (size_t lane = 0; lane < 3; ++lane) {
    sum->Set(lane, 10 * (lane + 1));
    peak->SetMax(lane, 10 * (lane + 1));
  }
  EXPECT_EQ(sum->Value(), 10u + 20u + 30u);
  EXPECT_EQ(peak->Value(), 30u);  // summing per-lane peaks would say 60
  peak->SetMax(1, 5);             // SetMax never regresses
  EXPECT_EQ(peak->LaneValue(1), 20u);
}

// ---- Registry::Sample: the health-export snapshot ----

TEST(Registry, SampleSnapshotsAllKindsThroughFilter) {
  moptel::Registry reg(2);
  moptel::Counter* c = reg.AddCounter("mopeye_device_made_total", "made");
  moptel::Gauge* g =
      reg.AddGauge("mopeye_device_depth", "depth", moptel::GaugeMerge::kSum);
  moptel::Histogram* h = reg.AddHistogram("mopeye_device_lat_ms", "latency");
  reg.AddCounter("t_internal_total", "filtered out");
  c->Inc(0);
  c->Inc(1);
  c->Inc(1);
  g->Set(0, 40);
  g->Set(1, 2);
  h->Observe(0, 10.0);
  h->Observe(1, -1.0);  // lands in zero_or_less

  auto samples =
      reg.Sample([](std::string_view name) { return name.starts_with("mopeye_device_"); });
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_EQ(samples[0].name, "mopeye_device_made_total");
  EXPECT_EQ(samples[0].kind, moptel::MetricSample::Kind::kCounter);
  EXPECT_EQ(samples[0].value, 3u);  // lanes merged
  EXPECT_EQ(samples[1].name, "mopeye_device_depth");
  EXPECT_EQ(samples[1].kind, moptel::MetricSample::Kind::kGauge);
  EXPECT_EQ(samples[1].value, 42u);
  EXPECT_EQ(samples[2].kind, moptel::MetricSample::Kind::kHistogram);
  EXPECT_EQ(samples[2].Count(), 2u);
  EXPECT_EQ(samples[2].zero_or_less, 1u);
  EXPECT_DOUBLE_EQ(samples[2].sum, 9.0);
  ASSERT_EQ(samples[2].buckets.size(), 1u);
  EXPECT_EQ(samples[2].buckets[0].second, 1u);
}

// ---- Trace context + store ----

TEST(Trace, IdIsDeterministicAndSamplingAgreesAcrossTiers) {
  moptel::TraceContext ctx;
  EXPECT_FALSE(ctx.valid());  // default = unstamped
  ctx.device_hash = 0xabcd1234;
  ctx.lane = 3;
  ctx.seq = 17;
  ctx.born_ns = 0;
  EXPECT_TRUE(ctx.valid());
  moptel::TraceContext same = ctx;
  EXPECT_EQ(ctx.id(), same.id());  // device and collector derive equal ids
  EXPECT_FALSE(moptel::TraceSampled(ctx.id(), 0));  // 0 = tracing off
  EXPECT_TRUE(moptel::TraceSampled(ctx.id(), 1));   // 1 = everything
  // A 1/4 slice samples about a quarter of distinct seqs — and the same
  // quarter on every tier, since the decision is a pure function of the id.
  size_t sampled = 0;
  for (uint32_t seq = 0; seq < 1000; ++seq) {
    ctx.seq = seq;
    if (moptel::TraceSampled(ctx.id(), 4)) ++sampled;
  }
  EXPECT_GT(sampled, 150u);
  EXPECT_LT(sampled, 350u);
}

TEST(TraceStore, BoundsRetentionEvictingOldestFirst) {
  moptel::TraceStore store(/*capacity=*/3);
  for (uint64_t id = 1; id <= 5; ++id) {
    store.AddSpan(id, /*device_hash=*/7, /*lane=*/0, moptel::TraceHop::kCreated,
                  static_cast<int64_t>(id * 100));
  }
  EXPECT_EQ(store.size(), 3u);
  EXPECT_EQ(store.evicted(), 2u);
  EXPECT_EQ(store.Find(1), nullptr);  // oldest went first
  EXPECT_EQ(store.Find(2), nullptr);
  ASSERT_NE(store.Find(3), nullptr);
  // Spans append in arrival order on an existing trace without re-inserting.
  store.AddSpan(4, 7, 0, moptel::TraceHop::kReceived, 900);
  store.AddSpan(4, 7, 0, moptel::TraceHop::kFolded, 950);
  const auto* t = store.Find(4);
  ASSERT_NE(t, nullptr);
  ASSERT_EQ(t->spans.size(), 3u);
  EXPECT_EQ(t->spans[0].hop, moptel::TraceHop::kCreated);
  EXPECT_EQ(t->spans[2].hop, moptel::TraceHop::kFolded);
  // AppendSpan never creates: a late lifecycle stamp for an evicted trace
  // is dropped instead of re-creating a span-only zombie (which would evict
  // a live trace in its place).
  EXPECT_FALSE(store.AppendSpan(1, moptel::TraceHop::kDurable, 999));
  EXPECT_EQ(store.Find(1), nullptr);
  EXPECT_EQ(store.size(), 3u);
  EXPECT_TRUE(store.AppendSpan(4, moptel::TraceHop::kDurable, 999));
  auto all = store.Traces();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].id, 3u);  // oldest-first snapshot
  EXPECT_EQ(all[2].id, 5u);
  std::string json = store.RenderJson();
  EXPECT_NE(json.find("\"hop\":\"folded\""), std::string::npos);
  EXPECT_NE(json.find("\"hop\":\"created\""), std::string::npos);
}

// ---- Histogram vs LogQuantile bit-equivalence ----

TEST(Histogram, MatchesLogQuantileBitForBit) {
  // The histogram replicates LogQuantile's bucket geometry over preallocated
  // storage; Merged() must answer quantiles bit-identically to feeding every
  // sample through one sketch — including the zero/negative bucket and both
  // clamp ends.
  constexpr double kRelErr = 0.02;
  moptel::Histogram hist(3, kRelErr);
  moputil::LogQuantile reference(kRelErr);

  const double samples[] = {0.0,  -3.5, 1e-6, 6e-5, 0.05, 0.4,  1.7,
                            1.7,  12.9, 99.0, 123.4, 5e8, 2e9,  0.0003};
  size_t lane = 0;
  for (double x : samples) {
    hist.Observe(lane, x);
    reference.Add(x);
    lane = (lane + 1) % 3;
  }

  moputil::LogQuantile merged = hist.Merged();
  EXPECT_EQ(merged.count(), reference.count());
  for (double p : {1.0, 10.0, 50.0, 90.0, 95.0, 99.0, 100.0}) {
    EXPECT_EQ(merged.Quantile(p), reference.Quantile(p)) << "percentile " << p;
  }
}

// Bucket indices that received at least one sample, layout-independent (the
// histogram preallocates the full clamp span; a live LogQuantile only spans
// what it saw).
std::map<int, uint64_t> OccupiedBuckets(const moputil::LogQuantile& q) {
  moputil::LogQuantile::State st = q.state();
  std::map<int, uint64_t> out;
  for (size_t i = 0; i < st.counts.size(); ++i) {
    if (st.counts[i] != 0) out[st.lo_index + static_cast<int>(i)] += st.counts[i];
  }
  return out;
}

TEST(Histogram, CellTableAgreesWithExactPathOnFuzzedSamples) {
  // Observe()'s exponent/mantissa cell table must route every sample to the
  // same bucket the exact log() expression picks. Fuzz the full dynamic
  // range — log-uniform samples, a lognormal cluster like the engine's stage
  // costs, and ulp-neighborhoods of every bucket boundary, where the table
  // must fall back rather than guess.
  constexpr double kRelErr = 0.02;
  moptel::Histogram hist(1, kRelErr);
  moputil::LogQuantile reference(kRelErr);
  auto feed = [&](double x) {
    hist.Observe(0, x);
    reference.Add(x);
  };

  uint64_t s = 0x9e3779b97f4a7c15ull;
  auto next_unit = [&s] {  // xorshift64*, mapped to [0, 1)
    s ^= s >> 12;
    s ^= s << 25;
    s ^= s >> 27;
    return static_cast<double>((s * 0x2545f4914f6cdd1dull) >> 11) * 0x1.0p-53;
  };

  const double log_lo = std::log(moputil::kLogQuantileMin);
  const double log_hi = std::log(moputil::kLogQuantileMax);
  for (int i = 0; i < 200000; ++i) {
    feed(std::exp(log_lo + (log_hi - log_lo) * next_unit()));
  }
  for (int i = 0; i < 200000; ++i) {
    // Rough lognormal via a sum of uniforms: median 0.009 ms, sigma ~0.35.
    double z = next_unit() + next_unit() + next_unit() + next_unit() - 2.0;
    feed(0.009 * std::exp(0.35 * z * 1.73));
  }
  const double log_gamma = std::log((1.0 + kRelErr) / (1.0 - kRelErr));
  int lo_index = static_cast<int>(std::floor(log_lo / log_gamma));
  int hi_index = static_cast<int>(std::floor(log_hi / log_gamma));
  for (int idx = lo_index; idx <= hi_index + 1; ++idx) {
    double edge = std::exp(static_cast<double>(idx) * log_gamma);
    double x = edge;
    for (int step = 0; step < 4; ++step) x = std::nextafter(x, 0.0);
    for (int step = 0; step < 8; ++step) {
      feed(x);
      x = std::nextafter(x, moputil::kLogQuantileMax * 4);
    }
    feed(edge * (1.0 - 1e-10));
    feed(edge * (1.0 + 1e-10));
    feed(edge * (1.0 - 1e-8));
    feed(edge * (1.0 + 1e-8));
  }

  moputil::LogQuantile observed = hist.Merged();
  EXPECT_EQ(observed.count(), reference.count());
  EXPECT_EQ(observed.state().zero_or_less, reference.state().zero_or_less);
  EXPECT_EQ(OccupiedBuckets(observed), OccupiedBuckets(reference));
}

TEST(Histogram, ObserveNeverGrowsStorage) {
  moptel::Histogram hist(2);
  size_t span = hist.bucket_span();
  // Values across the whole representable range, plus both out-of-range
  // directions; the span is fixed at construction.
  for (double x : {1e-9, 5e-5, 1.0, 1e6, 1e9, 1e12}) {
    hist.Observe(0, x);
    hist.Observe(1, x);
  }
  EXPECT_EQ(hist.bucket_span(), span);
  EXPECT_EQ(hist.Count(), 12u);
}

TEST(Histogram, SameGeometryInstancesShareOneCellTable) {
  moptel::Histogram a(1);
  moptel::Histogram b(4);          // lane count does not affect the geometry
  moptel::Histogram c(2, 0.02);    // explicit default precision
  moptel::Histogram other(1, 0.05);
  ASSERT_NE(a.cell_table_id(), nullptr);
  EXPECT_EQ(a.cell_table_id(), b.cell_table_id());
  EXPECT_EQ(a.cell_table_id(), c.cell_table_id());
  EXPECT_NE(a.cell_table_id(), other.cell_table_id());

  // Sharing must not change behavior: both precisions still bucket exactly.
  moputil::Rng rng(99);
  for (int i = 0; i < 1000; ++i) {
    double x = std::exp(rng.Uniform(-12.0, 25.0));
    b.Observe(i % 4, x);
    other.Observe(0, x);
  }
  EXPECT_EQ(b.Count(), 1000u);
  EXPECT_EQ(other.Count(), 1000u);

  // First use of a precision from several threads at once: the builders race
  // in the table cache, and every instance must come away with one table.
  constexpr size_t kThreads = 4;
  constexpr double kFreshRelErr = 0.03;  // no other test in this binary uses it
  std::atomic<bool> go{false};
  std::vector<const void*> ids(kThreads, nullptr);
  std::vector<std::thread> builders;
  for (size_t t = 0; t < kThreads; ++t) {
    builders.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      moptel::Histogram h(1, kFreshRelErr);
      ids[t] = h.cell_table_id();
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& th : builders) th.join();
  ASSERT_NE(ids[0], nullptr);
  for (const void* id : ids) EXPECT_EQ(id, ids[0]);
  EXPECT_NE(ids[0], a.cell_table_id());
  EXPECT_NE(ids[0], other.cell_table_id());
  moptel::Histogram late(1, kFreshRelErr);
  EXPECT_EQ(late.cell_table_id(), ids[0]);
}

// ---- Flight recorder ----

TEST(FlightRecorder, RingWrapsKeepingNewestOldestFirst) {
  moptel::FlightRecorder rec(2, /*capacity_per_lane=*/4);
  for (int i = 0; i < 10; ++i) {
    rec.Record(0, 1000 + i, moptel::TraceKind::kPacketVerdict, "evt",
               static_cast<uint64_t>(i));
  }
  EXPECT_EQ(rec.LaneRecorded(0), 10u);
  std::vector<moptel::TraceEvent> events = rec.LaneEvents(0);
  ASSERT_EQ(events.size(), 4u);  // ring holds only the newest capacity
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].a, 6 + i) << "oldest-first order";
    EXPECT_EQ(events[i].time_ns, 1000 + 6 + static_cast<int64_t>(i));
  }
  EXPECT_EQ(rec.LaneRecorded(1), 0u);
  EXPECT_TRUE(rec.LaneEvents(1).empty());
}

TEST(FlightRecorder, MergedEventsInterleaveLanesChronologically) {
  moptel::FlightRecorder rec(3, 8);
  rec.Record(2, 300, moptel::TraceKind::kPacketVerdict, "third");
  rec.Record(0, 100, moptel::TraceKind::kPacketVerdict, "first");
  rec.Record(1, 200, moptel::TraceKind::kPacketVerdict, "second");
  rec.Record(0, 200, moptel::TraceKind::kPacketVerdict, "second-tie");
  auto merged = rec.MergedEvents();
  ASSERT_EQ(merged.size(), 4u);
  EXPECT_STREQ(merged[0].what, "first");
  // Stable sort over the lane-0,1,2 concatenation: timestamp ties keep the
  // lower lane's event first.
  EXPECT_EQ(merged[1].time_ns, 200);
  EXPECT_EQ(merged[2].time_ns, 200);
  EXPECT_STREQ(merged[1].what, "second-tie");  // lane 0 first on ties
  EXPECT_STREQ(merged[2].what, "second");
  EXPECT_STREQ(merged[3].what, "third");
  std::string json = rec.RenderJson();
  EXPECT_NE(json.find("\"what\":\"first\""), std::string::npos);
  EXPECT_NE(json.find("\"lane\":2"), std::string::npos);
}

TEST(FlightRecorder, DumpRendersEventFields) {
  moptel::FlightRecorder rec(1, 8);
  rec.Record(0, 123456789, moptel::TraceKind::kConnectOutcome, "connect-ok", 7, 9);
  std::string dump = rec.Dump();
  EXPECT_NE(dump.find("flight recorder dump"), std::string::npos);
  EXPECT_NE(dump.find("connect-ok"), std::string::npos);
  EXPECT_NE(dump.find("t=0.123456789s"), std::string::npos);
  EXPECT_NE(dump.find("a=7"), std::string::npos);
  EXPECT_NE(dump.find("b=9"), std::string::npos);
}

TEST(FlightRecorderDeathTest, FatalCheckDumpsTheRing) {
  // MOP_CHECK failure must surface the recorder's recent history: the fatal
  // log hook runs DumpToStderr before abort().
  moptel::FlightRecorder rec(1, 8);
  rec.Record(0, 42, moptel::TraceKind::kPacketVerdict, "parse-error", 13);
  rec.InstallFatalDump();
  EXPECT_DEATH({ MOP_CHECK(false) << "boom"; }, "flight recorder dump");
  EXPECT_DEATH({ MOP_CHECK(false) << "boom"; }, "parse-error");
  moptel::FlightRecorder::UninstallFatalDump();
}

// ---- Text exposition ----

TEST(Registry, RenderTextGolden) {
  moptel::Registry reg(2);
  moptel::Counter* requests = reg.AddCounter("t_requests_total", "Requests");
  reg.AddExternalCounter("t_ext_total", "External", [] { return uint64_t{7}; });
  moptel::Gauge* peak = reg.AddGauge("t_peak", "Peak", moptel::GaugeMerge::kMax);
  reg.AddHistogram("t_lat_ms", "Latency");
  requests->Inc(0);
  requests->Inc(0);
  requests->Inc(0);
  requests->Inc(1);
  requests->Inc(1);
  peak->SetMax(0, 4);
  peak->SetMax(1, 9);

  const std::string expected =
      "# HELP t_requests_total Requests\n"
      "# TYPE t_requests_total counter\n"
      "t_requests_total 5\n"
      "t_requests_total{lane=\"0\"} 3\n"
      "t_requests_total{lane=\"1\"} 2\n"
      "# HELP t_ext_total External\n"
      "# TYPE t_ext_total counter\n"
      "t_ext_total 7\n"
      "# HELP t_peak Peak\n"
      "# TYPE t_peak gauge\n"
      "t_peak 9\n"
      "t_peak{lane=\"0\"} 4\n"
      "t_peak{lane=\"1\"} 9\n"
      "# HELP t_lat_ms Latency\n"
      "# TYPE t_lat_ms summary\n"
      "t_lat_ms_sum 0\n"
      "t_lat_ms_count 0\n"
      "t_lat_ms_count{lane=\"0\"} 0\n"
      "t_lat_ms_count{lane=\"1\"} 0\n";
  EXPECT_EQ(reg.RenderText(), expected);
}

TEST(Registry, RenderTextQuantilesAndScrapeValue) {
  moptel::Registry reg(1);
  moptel::Counter* c = reg.AddCounter("t_ops_total", "ops");
  moptel::Histogram* lat = reg.AddHistogram("t_lat_ms", "latency");
  c->Add(0, 41);
  for (int i = 1; i <= 100; ++i) {
    lat->Observe(0, static_cast<double>(i));
  }
  std::string text = reg.RenderText();
  EXPECT_NE(text.find("t_lat_ms{quantile=\"0.5\"}"), std::string::npos);
  EXPECT_NE(text.find("t_lat_ms{quantile=\"0.95\"}"), std::string::npos);
  EXPECT_NE(text.find("t_lat_ms{quantile=\"0.99\"}"), std::string::npos);

  double v = 0;
  ASSERT_TRUE(moptel::ScrapeValue(text, "t_ops_total", &v));
  EXPECT_DOUBLE_EQ(v, 41.0);
  ASSERT_TRUE(moptel::ScrapeValue(text, "t_lat_ms_count", &v));
  EXPECT_DOUBLE_EQ(v, 100.0);
  EXPECT_FALSE(moptel::ScrapeValue(text, "t_absent_total", &v));
  // The labeled per-lane series must never satisfy an unlabeled lookup.
  EXPECT_FALSE(moptel::ScrapeValue(text, "t_lat_ms_coun", &v));

  uint64_t u = 0;
  ASSERT_TRUE(reg.CounterValue("t_ops_total", &u));
  EXPECT_EQ(u, 41u);
  EXPECT_FALSE(reg.GaugeValue("t_ops_total", &u));  // kind-checked lookup
  ASSERT_NE(reg.FindHistogram("t_lat_ms"), nullptr);
  EXPECT_EQ(reg.FindHistogram("t_ops_total"), nullptr);
}

TEST(Registry, RenderJsonCarriesCountSumAndQuantiles) {
  moptel::Registry reg(1);
  moptel::Histogram* lat = reg.AddHistogram("t_lat_ms", "latency");
  lat->Observe(0, 2.0);
  lat->Observe(0, 4.0);
  std::string json = reg.RenderJson();
  EXPECT_NE(json.find("\"t_lat_ms\":{\"type\":\"histogram\",\"count\":2,\"sum\":6"),
            std::string::npos);
  EXPECT_NE(json.find("\"p50\":"), std::string::npos);
}

// ---- Zero steady-state allocation ----

TEST(Telemetry, HotPathInstrumentationDoesNotAllocate) {
  moptel::Registry reg(2);
  moptel::Counter* c = reg.AddCounter("t_ops_total", "ops");
  moptel::Gauge* g = reg.AddGauge("t_hw", "hw", moptel::GaugeMerge::kMax);
  moptel::Histogram* h = reg.AddHistogram("t_lat_ms", "latency");
  moptel::FlightRecorder rec(2, 256);

  // Warm every path once, then the steady state must be allocation-free.
  c->Inc(0);
  g->SetMax(0, 1);
  h->Observe(0, 0.5);
  rec.Record(0, 1, moptel::TraceKind::kPacketVerdict, "warm");

  uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (uint64_t i = 0; i < 50000; ++i) {
    size_t lane = i & 1;
    c->Inc(lane);
    c->Add(lane, 3);
    g->SetMax(lane, i);
    h->Observe(lane, 0.05 + static_cast<double>(i % 1000));
    rec.Record(lane, static_cast<int64_t>(i), moptel::TraceKind::kQueueHighWater,
               "hw", i);
  }
  uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before) << "hot-path telemetry allocated";
}

// ---- Log prefixes (satellite: sim-time + lane-token log prefixes) ----

struct CapturedLog {
  std::string text;
};

void CaptureSink(const char* line, void* arg) {
  static_cast<CapturedLog*>(arg)->text += line;
}

TEST(Logging, ClockAndLaneTokenPrefixesRenderWhenInstalled) {
  moputil::LogLevel prev_level = moputil::GetLogLevel();
  moputil::SetLogLevel(moputil::LogLevel::kInfo);
  CapturedLog captured;
  moputil::SetLogSinkForTest(&CaptureSink, &captured);
  const int64_t fake_now = 1234567890;  // 1.234567890 s
  moputil::SetLogClock(&fake_now);
  moputil::SetLogLaneToken("MainWorker-3");

  MOP_LOG(Info) << "hello";

  moputil::SetLogLaneToken(nullptr);
  moputil::SetLogClock(nullptr);
  moputil::SetLogSinkForTest(nullptr, nullptr);

  EXPECT_NE(captured.text.find("t=1.234567890s"), std::string::npos) << captured.text;
  EXPECT_NE(captured.text.find("MainWorker-3"), std::string::npos) << captured.text;
  EXPECT_NE(captured.text.find("hello"), std::string::npos);

  // And with nothing installed, the prefix stays the historical format.
  CapturedLog plain;
  moputil::SetLogSinkForTest(&CaptureSink, &plain);
  MOP_LOG(Info) << "plain";
  moputil::SetLogSinkForTest(nullptr, nullptr);
  moputil::SetLogLevel(prev_level);
  EXPECT_EQ(plain.text.find("t="), std::string::npos) << plain.text;
  EXPECT_NE(plain.text.find("[I "), std::string::npos) << plain.text;
}

void CaptureLines(const char* line, void* arg) {
  static_cast<std::vector<std::string>*>(arg)->emplace_back(line);
}

TEST(Logging, ConcurrentWritersDeliverWholeLines) {
  // The sink lock serializes delivery: CaptureLines appends to one vector
  // with no lock of its own, so under TSan an unserialized sink is a race.
  constexpr int kThreads = 4;
  constexpr int kLinesPerThread = 200;
  const std::string body(120, 'x');
  moputil::LogLevel prev_level = moputil::GetLogLevel();
  moputil::SetLogLevel(moputil::LogLevel::kInfo);
  std::vector<std::string> lines;
  moputil::SetLogSinkForTest(&CaptureLines, &lines);

  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (int i = 0; i < kLinesPerThread; ++i) {
        MOP_LOG(Info) << "writer=" << t << " line=" << i << " " << body;
      }
    });
  }
  for (auto& w : writers) w.join();
  moputil::SetLogSinkForTest(nullptr, nullptr);
  moputil::SetLogLevel(prev_level);

  // Every line arrives once, whole: prefix, then exactly one message.
  std::vector<std::string> got;
  for (const std::string& line : lines) {
    ASSERT_EQ(line.rfind("[I ", 0), 0u) << line;
    got.push_back(line.substr(line.find("] ") + 2));
  }
  std::vector<std::string> want;
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kLinesPerThread; ++i) {
      want.push_back("writer=" + std::to_string(t) + " line=" + std::to_string(i) + " " + body);
    }
  }
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  EXPECT_EQ(got, want);
}

}  // namespace
