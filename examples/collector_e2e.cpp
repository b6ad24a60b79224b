// End-to-end crowdsourcing loop: N simulated devices opportunistically
// accumulate measurements, their uploaders batch and ship them over real
// mopnet TCP sockets, and one collector process ingests everything into the
// sharded streaming-aggregate store. The program then prints Fig. 9-style
// per-app RTT output from the aggregates and verifies them against an exact
// recomputation from the raw records (retained server-side for the check).
//
//   build/examples/collector_e2e [--devices=12] [--records=2500] [--seed=7]
//
// Exits nonzero if nothing was ingested, any record was lost, or any
// aggregate median/P95 drifts more than 5% from the exact value — CI runs
// this as the collector smoke test.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "collector/server.h"
#include "collector/uploader.h"
#include "core/measurement.h"
#include "crowd/analysis.h"
#include "crowd/world.h"
#include "net/net_context.h"
#include "net/server.h"
#include "sim/event_loop.h"
#include "util/stats.h"
#include "util/strings.h"
#include "util/table.h"

namespace {

struct Flags {
  int devices = 12;
  int records = 2500;  // per device
  uint64_t seed = 7;
};

Flags ParseFlags(int argc, char** argv) {
  Flags f;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--devices=", 10) == 0) {
      f.devices = std::atoi(arg + 10);
    } else if (std::strncmp(arg, "--records=", 10) == 0) {
      f.records = std::atoi(arg + 10);
    } else if (std::strncmp(arg, "--seed=", 7) == 0) {
      f.seed = static_cast<uint64_t>(std::atoll(arg + 7));
    } else if (std::strcmp(arg, "--help") == 0) {
      std::printf("flags: --devices=<n> --records=<per-device> --seed=<n>\n");
      std::exit(0);
    }
  }
  return f;
}

// One simulated phone: its own network context and measurement store, an
// uploader, and a generator that samples the paper-calibrated World model.
struct Device {
  std::unique_ptr<mopnet::NetContext> ctx;
  mopeye::MeasurementStore store;
  std::unique_ptr<mopcollect::Uploader> uploader;
  moputil::Rng rng{0};
  const mopcrowd::IspProfile* isp = nullptr;
  const mopcrowd::CountryProfile* country = nullptr;
  int remaining = 0;
};

}  // namespace

int main(int argc, char** argv) {
  Flags flags = ParseFlags(argc, argv);
  auto world = mopcrowd::World::Default();
  moputil::Rng rng(flags.seed);

  mopsim::EventLoop loop;
  mopnet::PathTable paths;
  paths.SetDefault(std::make_shared<moputil::FixedDelay>(moputil::Millis(20)));
  mopnet::ServerFarm farm;

  // The collector, listening where every device can reach it. Raw records
  // are retained only to verify the sketches below.
  mopcollect::CollectorServer collector({.shards = 16, .retain_records = true});
  moppkt::SocketAddr collector_addr{moppkt::IpAddr(10, 99, 0, 1), 9000};
  collector.RegisterWith(&farm, collector_addr);

  // ---- Device roster: country/ISP sampled from the world model ----
  std::vector<double> country_weights;
  for (const auto& c : world.countries()) {
    country_weights.push_back(c.user_weight);
  }
  std::vector<Device> devices(static_cast<size_t>(flags.devices));
  for (size_t d = 0; d < devices.size(); ++d) {
    Device& dev = devices[d];
    dev.rng = moputil::Rng(flags.seed ^ (0x9e3779b9ull * (d + 1)));
    dev.country = &world.countries()[rng.WeightedIndex(country_weights)];
    if (!dev.country->cellular_isps.empty()) {
      size_t pick = static_cast<size_t>(rng.UniformInt(
          0, static_cast<int64_t>(dev.country->cellular_isps.size()) - 1));
      dev.isp = &world.isps()[static_cast<size_t>(dev.country->cellular_isps[pick])];
    }
    dev.remaining = flags.records;

    mopnet::NetworkProfile profile;
    profile.type = mopnet::NetType::kWifi;
    profile.isp = dev.isp != nullptr ? dev.isp->name : "HomeFiber";
    profile.country = dev.country->code;
    profile.first_hop_one_way = std::make_shared<moputil::FixedDelay>(moputil::Millis(2));
    dev.ctx = std::make_unique<mopnet::NetContext>(&loop, profile, &paths, &farm,
                                                   moputil::Rng(flags.seed ^ (7919 * d)));

    mopcollect::UploaderPolicy policy;
    policy.min_batch_records = 200;
    policy.max_batch_age = moputil::Seconds(60);
    policy.poll_interval = moputil::Seconds(5);
    dev.uploader = std::make_unique<mopcollect::Uploader>(
        dev.ctx.get(), &dev.store, collector_addr, static_cast<uint32_t>(d), policy);
    dev.uploader->Start();
  }

  // Devices use the head apps (the Table 5 representatives at the front of
  // the world roster) so per-app record counts are deep enough to exercise
  // the aggregate sketches, weighted by installed-base x usage.
  const size_t head_apps = std::min<size_t>(world.apps().size(), 24);
  std::vector<double> app_weights;
  for (size_t a = 0; a < head_apps; ++a) {
    const auto& app = world.apps()[a];
    app_weights.push_back(app.install_rate * app.usage_weight);
  }
  std::vector<std::vector<double>> domain_weights(head_apps);
  for (size_t a = 0; a < head_apps; ++a) {
    for (const auto& g : world.apps()[a].domains) {
      domain_weights[a].push_back(g.traffic_weight);
    }
  }

  // ---- Opportunistic measurement generation, staged over sim time ----
  // Every sim-second each device "observes" a slice of its connections, so
  // uploads interleave with generation the way the paper's app behaves.
  constexpr int kGenSeconds = 60;
  const int slice = std::max(1, flags.records / kGenSeconds);
  std::function<void(size_t)> generate = [&](size_t d) {
    Device& dev = devices[d];
    int n = std::min(slice, dev.remaining);
    dev.remaining -= n;
    for (int i = 0; i < n; ++i) {
      size_t a = dev.rng.WeightedIndex(app_weights);
      const auto& app = world.apps()[a];
      bool wifi = dev.isp == nullptr || dev.rng.Bernoulli(0.5);
      mopnet::NetType net = wifi ? mopnet::NetType::kWifi : dev.isp->type;
      const mopcrowd::IspProfile* isp = wifi ? nullptr : dev.isp;

      mopeye::Measurement m;
      m.time = loop.Now();
      m.net_type = net;
      m.isp = wifi ? "HomeFiber" : dev.isp->name;
      m.country = dev.country->code;
      m.device_id = moputil::StrFormat("device-%zu", d);
      if (dev.rng.Bernoulli(0.3)) {
        m.kind = mopeye::MeasureKind::kDns;
        m.app = "(dns)";
        m.rtt = moputil::Millis(world.SampleDnsRttMs(
            net, isp, dev.country->wifi_dns_median_ms, dev.rng));
      } else {
        const auto& group = app.domains[dev.rng.WeightedIndex(domain_weights[a])];
        m.kind = mopeye::MeasureKind::kTcpConnect;
        m.app = app.label;
        m.domain = group.pattern;
        m.rtt = moputil::Millis(world.SampleAppRttMs(net, isp, group.placement, dev.rng));
      }
      dev.store.Add(std::move(m));
    }
    if (dev.remaining > 0) {
      loop.Schedule(moputil::kSecond, [&generate, d] { generate(d); });
    }
  };
  for (size_t d = 0; d < devices.size(); ++d) {
    loop.Schedule(moputil::Millis(static_cast<double>(d)), [&generate, d] { generate(d); });
  }

  // Generation + upload interleaving, then a final flush for the tails.
  loop.RunFor(moputil::Seconds(kGenSeconds + 90));
  for (auto& dev : devices) {
    dev.uploader->FlushNow();
  }
  loop.RunFor(moputil::Seconds(120));

  // ---- Report: Fig. 9-style per-app output from the streaming aggregates ----
  const uint64_t generated =
      static_cast<uint64_t>(flags.devices) * static_cast<uint64_t>(flags.records);
  const auto& counters = collector.counters();
  std::printf("collector: %s records from %d devices (%llu connections, %llu batches, "
              "%llu rejected)\n",
              moputil::WithCommas(static_cast<int64_t>(counters.records_ingested)).c_str(),
              flags.devices, static_cast<unsigned long long>(counters.connections),
              static_cast<unsigned long long>(counters.batches_ok),
              static_cast<unsigned long long>(counters.batches_rejected));
  std::printf("aggregate store: %zu keys over %zu shards, ~%zu bytes (%.1f B/record)\n\n",
              collector.store().key_count(), collector.store().shard_count(),
              collector.store().ApproxMemoryBytes(),
              counters.records_ingested > 0
                  ? static_cast<double>(collector.store().ApproxMemoryBytes()) /
                        static_cast<double>(counters.records_ingested)
                  : 0.0);

  // Exact recomputation from the raw records the collector retained.
  const mopcrowd::CrowdDataset& ds = collector.dataset();
  std::unordered_map<uint16_t, moputil::Samples> exact_by_app;
  for (const auto& r : ds.records()) {
    if (r.kind == mopcrowd::RecordKind::kTcp) {
      exact_by_app[r.app_id].Add(r.rtt_ms);
    }
  }
  std::unordered_map<std::string, uint16_t> app_id_by_name;
  for (const auto& [id, samples] : exact_by_app) {
    app_id_by_name[collector.apps().Name(id)] = id;
  }

  auto app_stats = collector.TcpAppStats(/*min_count=*/1);
  moputil::Table table({"app", "records", "p50 (sketch)", "p50 (exact)", "p95 (sketch)",
                        "p95 (exact)", "max err"});
  bool ok = true;
  double worst_err = 0;
  size_t shown = 0;
  size_t verified_apps = 0;
  for (const auto& s : app_stats) {
    const moputil::Samples& exact = exact_by_app[app_id_by_name[s.app]];
    double exact_p50 = exact.Median();
    double exact_p95 = exact.Percentile(95);
    double err50 = std::fabs(s.median_ms - exact_p50) / exact_p50;
    double err95 = std::fabs(s.p95_ms - exact_p95) / exact_p95;
    double err = std::max(err50, err95);
    // The 5% accuracy bar applies to apps with at least 200 records; the
    // rest are only shown.
    if (s.count >= 200) {
      ++verified_apps;
      worst_err = std::max(worst_err, err);
      if (err > 0.05) {
        std::printf("FAIL: %s sketch error %.1f%% (p50 %.1f vs %.1f, p95 %.1f vs %.1f)\n",
                    s.app.c_str(), err * 100, s.median_ms, exact_p50, s.p95_ms, exact_p95);
        ok = false;
      }
    }
    if (shown < 12) {
      table.AddRow({s.app, moputil::WithCommas(static_cast<int64_t>(s.count)),
                    moputil::StrFormat("%.1fms", s.median_ms),
                    moputil::StrFormat("%.1fms", exact_p50),
                    moputil::StrFormat("%.1fms", s.p95_ms),
                    moputil::StrFormat("%.1fms", exact_p95),
                    moputil::StrFormat("%.2f%%", err * 100)});
      ++shown;
    }
  }
  std::printf("==== Fig. 9-style per-app RTT from live-ingested aggregates ====\n\n%s\n",
              table.Render().c_str());

  // The mopcrowd analyses run unchanged against the live dataset.
  auto cdfs = mopcrowd::AppRtts(ds);
  auto medians = mopcrowd::PerAppMedians(ds, /*min_count=*/200);
  std::printf("mopcrowd::AppRtts on live data: %zu TCP RTTs, median %.1f ms "
              "(WiFi %.1f / cellular %.1f)\n",
              cdfs.all.count(), cdfs.all.Median(),
              cdfs.wifi.empty() ? 0.0 : cdfs.wifi.Median(),
              cdfs.cellular.empty() ? 0.0 : cdfs.cellular.Median());
  std::printf("mopcrowd::PerAppMedians on live data: %zu apps, median-of-medians %.1f ms\n",
              medians.count(), medians.empty() ? 0.0 : medians.Median());

  auto isp_dns = collector.IspDnsStats(/*min_count=*/50);
  if (!isp_dns.empty()) {
    std::printf("\n==== Fig. 11-style ISP DNS medians (top %zu) ====\n\n",
                std::min<size_t>(isp_dns.size(), 5));
    moputil::Table dns_table({"isp", "net", "records", "p50", "p95"});
    for (size_t i = 0; i < isp_dns.size() && i < 5; ++i) {
      const auto& s = isp_dns[i];
      dns_table.AddRow({s.isp, mopnet::NetTypeName(static_cast<mopnet::NetType>(s.net_type)),
                        moputil::WithCommas(static_cast<int64_t>(s.count)),
                        moputil::StrFormat("%.1fms", s.median_ms),
                        moputil::StrFormat("%.1fms", s.p95_ms)});
    }
    std::printf("%s\n", dns_table.Render().c_str());
  }

  // ---- Smoke-test verdict ----
  if (counters.records_ingested == 0) {
    std::printf("FAIL: no records ingested\n");
    ok = false;
  }
  if (counters.records_ingested != generated) {
    std::printf("FAIL: generated %llu records but ingested %llu\n",
                static_cast<unsigned long long>(generated),
                static_cast<unsigned long long>(counters.records_ingested));
    ok = false;
  }
  for (auto& dev : devices) {
    dev.uploader->Stop();
  }
  std::printf("\n%s: %llu/%llu records ingested, %zu apps verified, worst sketch error "
              "%.2f%% (bar: 5%%)\n",
              ok ? "OK" : "FAILED",
              static_cast<unsigned long long>(counters.records_ingested),
              static_cast<unsigned long long>(generated), verified_apps, worst_err * 100);
  return ok ? 0 : 1;
}
