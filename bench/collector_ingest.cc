// Collector ingest microbenchmark: wire-encode cost, decode+ingest
// throughput (records/sec) into the aggregate store, per-record
// aggregate memory, and log-bucket sketch accuracy against exact
// recomputation — the numbers that bound how much crowd traffic one
// collector process absorbs.
//
//   build/bench/collector_ingest [--scale=1.0] [--seed=20160516]
//
// --scale=1.0 ingests 1M records (the paper's 5.25M dataset is ~5 of these).
#include <chrono>
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "collector/server.h"
#include "collector/wire.h"
#include "core/measurement.h"
#include "crowd/world.h"
#include "util/stats.h"

namespace {

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

}  // namespace

int main(int argc, char** argv) {
  auto flags = mopbench::ParseFlags(argc, argv);
  const uint64_t total_records = static_cast<uint64_t>(1000000 * flags.scale);
  const size_t batch_size = 500;
  auto world = mopcrowd::World::Default();
  moputil::Rng rng(flags.seed);

  mopbench::PrintHeader("Collector ingest", "wire codec + aggregate fold throughput");

  // ---- Generate + encode upload batches (device-clustered, like the wire) ----
  const size_t head_apps = std::min<size_t>(world.apps().size(), 24);
  std::vector<double> app_weights;
  for (size_t a = 0; a < head_apps; ++a) {
    app_weights.push_back(world.apps()[a].install_rate * world.apps()[a].usage_weight);
  }
  // Exact samples for the heaviest app, to score the sketches afterwards.
  const std::string probe_app = world.apps()[0].label;
  moputil::Samples probe_exact;

  std::vector<std::vector<uint8_t>> frames;
  frames.reserve(static_cast<size_t>(total_records / batch_size) + 1);
  uint64_t generated = 0;
  uint64_t wire_bytes = 0;
  uint32_t device = 0;
  auto t0 = std::chrono::steady_clock::now();
  while (generated < total_records) {
    ++device;
    const auto& country = world.countries()[device % world.countries().size()];
    const mopcrowd::IspProfile* isp =
        country.cellular_isps.empty()
            ? nullptr
            : &world.isps()[static_cast<size_t>(
                  country.cellular_isps[device % country.cellular_isps.size()])];
    mopcollect::BatchBuilder builder(device);
    for (size_t i = 0; i < batch_size && generated < total_records; ++i, ++generated) {
      size_t a = rng.WeightedIndex(app_weights);
      const auto& app = world.apps()[a];
      bool wifi = isp == nullptr || rng.Bernoulli(0.5);
      mopnet::NetType net = wifi ? mopnet::NetType::kWifi : isp->type;
      mopeye::Measurement m;
      m.app = app.label;
      m.domain = app.domains.front().pattern;
      m.net_type = net;
      m.isp = wifi ? "HomeFiber" : isp->name;
      m.country = country.code;
      double rtt =
          world.SampleAppRttMs(net, wifi ? nullptr : isp, app.domains.front().placement, rng);
      m.rtt = moputil::Millis(rtt);
      builder.Add(m);
      if (app.label == probe_app) {
        probe_exact.Add(rtt);
      }
    }
    frames.push_back(mopcollect::EncodeBatchFrame(builder.TakeBatch()));
    wire_bytes += frames.back().size();
  }
  double encode_s = SecondsSince(t0);

  // ---- Decode + ingest ----
  mopcollect::CollectorServer server;
  t0 = std::chrono::steady_clock::now();
  for (const auto& frame : frames) {
    auto accepted = server.IngestPayload({frame.data() + 4, frame.size() - 4});
    if (!accepted.ok()) {
      std::fprintf(stderr, "ingest failed: %s\n", accepted.status().ToString().c_str());
      return 1;
    }
  }
  double ingest_s = SecondsSince(t0);

  const auto& store = server.store();
  moputil::Table t({"metric", "value"});
  t.AddRow({"records", moputil::WithCommas(static_cast<int64_t>(total_records))});
  t.AddRow({"wire bytes/record", mopbench::Num(static_cast<double>(wire_bytes) /
                                               static_cast<double>(total_records))});
  t.AddRow({"encode rate", moputil::StrFormat(
                               "%.2fM rec/s", static_cast<double>(total_records) / encode_s / 1e6)});
  t.AddRow({"decode+ingest rate",
            moputil::StrFormat("%.2fM rec/s",
                               static_cast<double>(total_records) / ingest_s / 1e6)});
  t.AddSeparator();
  t.AddRow({"aggregate keys", moputil::WithCommas(static_cast<int64_t>(store.key_count()))});
  t.AddRow({"aggregate memory", moputil::StrFormat("%.1f KiB",
                                                   static_cast<double>(store.ApproxMemoryBytes()) /
                                                       1024.0)});
  t.AddRow({"aggregate bytes/record",
            mopbench::Num(static_cast<double>(store.ApproxMemoryBytes()) /
                          static_cast<double>(total_records))});
  std::printf("%s\n", t.Render().c_str());

  // ---- Sketch accuracy on the heaviest app (clustered arrival order) ----
  auto stats = server.TcpAppStats();
  for (const auto& s : stats) {
    if (s.app != probe_app) {
      continue;
    }
    double exact_p50 = probe_exact.Median();
    double exact_p95 = probe_exact.Percentile(95);
    moputil::Table acc({"\"" + probe_app + "\" quantile", "exact", "log sketch"});
    acc.AddRow({"median", mopbench::Ms(exact_p50), mopbench::Ms(s.median_ms)});
    acc.AddRow({"P95", mopbench::Ms(exact_p95), mopbench::Ms(s.p95_ms)});
    std::printf("%s\n", acc.Render().c_str());
    break;
  }
  return 0;
}
