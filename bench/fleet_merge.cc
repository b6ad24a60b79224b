// Fleet merge bench: a deterministic end-to-end pass over the fleet data
// plane — device-sharded ingest into M collector stores, snapshot
// encode/decode round-trips, and the merged FleetView — reporting snapshot
// sizes and merged-vs-exact sketch accuracy. Everything printed is a pure
// function of (--scale, --seed), so the output is locked as a baseline in
// bench/baselines/ (wall-clock rates live in collector_ingest, which is
// excluded from baselines).
//
//   build/bench/fleet_merge [--scale=1.0] [--seed=20160516]
//
// --scale=1.0 folds 300k records across 3 collectors.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "collector/server.h"
#include "collector/wire.h"
#include "crowd/world.h"
#include "fleet/router.h"
#include "fleet/snapshot.h"
#include "fleet/view.h"
#include "util/stats.h"

int main(int argc, char** argv) {
  auto flags = mopbench::ParseFlags(argc, argv);
  const uint64_t total_records = static_cast<uint64_t>(300000 * flags.scale);
  constexpr size_t kCollectors = 3;
  constexpr size_t kBatch = 500;
  auto world = mopcrowd::World::Default();
  moputil::Rng rng(flags.seed);

  mopbench::PrintHeader("Fleet merge", "sharded ingest -> snapshot -> merged view");

  // Router decides which collector each device's stream folds into.
  std::vector<moppkt::SocketAddr> addrs;
  for (size_t c = 0; c < kCollectors; ++c) {
    addrs.push_back({moppkt::IpAddr(10, 99, 0, static_cast<uint8_t>(c + 1)), 9000});
  }
  mopfleet::FleetRouter router(addrs);
  std::vector<mopcollect::CollectorServer> collectors(kCollectors);

  const size_t head_apps = std::min<size_t>(world.apps().size(), 24);
  std::vector<double> app_weights;
  for (size_t a = 0; a < head_apps; ++a) {
    app_weights.push_back(world.apps()[a].install_rate * world.apps()[a].usage_weight);
  }
  const std::string probe_app = world.apps()[0].label;
  moputil::Samples probe_exact;

  uint64_t generated = 0;
  uint32_t device = 0;
  while (generated < total_records) {
    ++device;
    const auto& country = world.countries()[device % world.countries().size()];
    const mopcrowd::IspProfile* isp =
        country.cellular_isps.empty()
            ? nullptr
            : &world.isps()[static_cast<size_t>(
                  country.cellular_isps[device % country.cellular_isps.size()])];
    mopcollect::BatchBuilder builder(device, /*batch_seq=*/device);
    for (size_t i = 0; i < kBatch && generated < total_records; ++i, ++generated) {
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
    collectors[router.ShardOf(device)].IngestBatch(builder.TakeBatch());
  }

  // ---- Snapshot round-trip per collector; the view merges the decoded
  // states, exactly as a warehouse would load collector snapshot files ----
  mopfleet::FleetView view;
  moputil::Table per({"collector", "records", "keys", "snapshot bytes", "B/record"});
  bool round_trip_ok = true;
  for (size_t c = 0; c < kCollectors; ++c) {
    auto state = collectors[c].ExportState();
    auto bytes = mopfleet::EncodeSnapshot(state);
    auto decoded = mopfleet::DecodeSnapshot(bytes);
    if (!decoded.ok() || mopfleet::EncodeSnapshot(decoded.value()) != bytes) {
      round_trip_ok = false;
    }
    uint64_t records = collectors[c].counters().records_ingested;
    per.AddRow({std::to_string(c), moputil::WithCommas(static_cast<int64_t>(records)),
                moputil::WithCommas(static_cast<int64_t>(state.store.key_count())),
                moputil::WithCommas(static_cast<int64_t>(bytes.size())),
                mopbench::Num(records > 0 ? static_cast<double>(bytes.size()) /
                                                static_cast<double>(records)
                                          : 0.0)});
    view.AttachState(decoded.ok() ? std::move(decoded).value() : state);
  }
  std::printf("%s\nsnapshot round-trip: %s\n\n", per.Render().c_str(),
              round_trip_ok ? "byte-identical" : "MISMATCH");

  view.Refresh();
  std::printf("merged view: %s records, %zu keys over %zu sources\n\n",
              moputil::WithCommas(static_cast<int64_t>(view.records_ingested())).c_str(),
              view.store().key_count(), view.source_count());

  // ---- Merged sketch accuracy on the heaviest apps ----
  auto stats = view.TcpAppStats(/*min_count=*/1);
  moputil::Table acc({"app", "records", "p50 (merged)", "p95 (merged)", "mean (merged)"});
  for (size_t i = 0; i < stats.size() && i < 8; ++i) {
    acc.AddRow({stats[i].app, moputil::WithCommas(static_cast<int64_t>(stats[i].count)),
                mopbench::Ms(stats[i].median_ms), mopbench::Ms(stats[i].p95_ms),
                mopbench::Ms(stats[i].mean_ms)});
  }
  std::printf("%s\n", acc.Render().c_str());

  double exact_p50 = probe_exact.Median();
  double exact_p95 = probe_exact.Percentile(95);
  for (const auto& s : stats) {
    if (s.app != probe_app) {
      continue;
    }
    std::printf("\"%s\" merged vs exact: p50 %.2fms/%.2fms (%.2f%% err), "
                "p95 %.2fms/%.2fms (%.2f%% err)\n",
                probe_app.c_str(), s.median_ms, exact_p50,
                100.0 * std::fabs(s.median_ms - exact_p50) / exact_p50, s.p95_ms, exact_p95,
                100.0 * std::fabs(s.p95_ms - exact_p95) / exact_p95);
    break;
  }
  return round_trip_ok ? 0 : 1;
}
