// Fleet-scale crowdsourcing loop: N simulated devices are sharded across M
// collector processes by a FleetRouter, upload over real mopnet TCP sockets
// with durable (ack-after-snapshot) delivery, and one collector is killed
// mid-run and restarted from its snapshot file. The merged FleetView then
// answers Fig. 9-style queries over the union of all collectors and is
// verified against exact recomputation from the generated records.
//
//   build/examples/fleet_e2e [--devices=24] [--records=2000] [--collectors=3]
//                            [--seed=11]
//
// Exits nonzero if any record is lost or double-counted across the
// kill/restart (total ingested must equal total generated exactly), if any
// merged aggregate median/P95 drifts more than 5% from exact, or if a metrics
// scrape, a crowd-health rollup or the sampled record traces disagree with
// the in-process state — CI runs this as the fleet smoke test.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include <unistd.h>

#include "android/device.h"
#include "apps/app.h"
#include "apps/tun_stack.h"
#include "collector/server.h"
#include "collector/uploader.h"
#include "core/engine.h"
#include "core/measurement.h"
#include "core/telemetry_service.h"
#include "crowd/world.h"
#include "fleet/router.h"
#include "fleet/snapshot.h"
#include "fleet/view.h"
#include "net/net_context.h"
#include "net/server.h"
#include "sim/event_loop.h"
#include "telemetry/export_server.h"
#include "telemetry/metrics.h"
#include "util/stats.h"
#include "util/strings.h"
#include "util/table.h"

namespace {

struct Flags {
  int devices = 24;
  int records = 2000;  // per device
  int collectors = 3;
  uint64_t seed = 11;
};

Flags ParseFlags(int argc, char** argv) {
  Flags f;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--devices=", 10) == 0) {
      f.devices = std::atoi(arg + 10);
    } else if (std::strncmp(arg, "--records=", 10) == 0) {
      f.records = std::atoi(arg + 10);
    } else if (std::strncmp(arg, "--collectors=", 13) == 0) {
      f.collectors = std::atoi(arg + 13);
    } else if (std::strncmp(arg, "--seed=", 7) == 0) {
      f.seed = static_cast<uint64_t>(std::atoll(arg + 7));
    } else if (std::strcmp(arg, "--help") == 0) {
      std::printf("flags: --devices=<n> --records=<per-device> --collectors=<m> --seed=<n>\n");
      std::exit(0);
    }
  }
  if (f.collectors < 1) {
    f.collectors = 1;
  }
  return f;
}

struct Device {
  std::unique_ptr<mopnet::NetContext> ctx;
  mopeye::MeasurementStore store;
  std::unique_ptr<mopcollect::Uploader> uploader;
  moputil::Rng rng{0};
  const mopcrowd::IspProfile* isp = nullptr;
  const mopcrowd::CountryProfile* country = nullptr;
  int remaining = 0;
  // Device health registry (piggybacked telemetry): every generated record
  // bumps the counter and feeds the histogram, so crowd rollups have an
  // exact in-process ground truth to compare against.
  std::unique_ptr<moptel::Registry> registry;
  moptel::Counter* generated_counter = nullptr;
  moptel::Gauge* battery_gauge = nullptr;
  moptel::Histogram* rtt_hist = nullptr;
  uint32_t trace_seq = 0;
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

  // ---- The collector fleet: durable acks, snapshots ----
  const std::string snap_dir =
      "/tmp/mopeye_fleet_e2e_" + std::to_string(getpid()) + "_";
  mopcollect::CollectorOptions copts;
  copts.shards = 16;
  copts.durable_acks = true;  // ack only snapshot-covered folds
  const moputil::SimDuration snapshot_interval = moputil::Seconds(5);

  std::vector<moppkt::SocketAddr> addrs;
  std::vector<moppkt::SocketAddr> metrics_addrs;
  std::vector<moppkt::SocketAddr> forensics_addrs;
  std::vector<std::unique_ptr<mopcollect::CollectorServer>> collectors;
  std::vector<std::unique_ptr<mopfleet::Snapshotter>> snapshotters;
  std::vector<std::string> snap_paths;
  for (int c = 0; c < flags.collectors; ++c) {
    addrs.push_back({moppkt::IpAddr(10, 99, 0, static_cast<uint8_t>(c + 1)), 9000});
    metrics_addrs.push_back(
        {moppkt::IpAddr(10, 99, 0, static_cast<uint8_t>(c + 1)), 9100});
    forensics_addrs.push_back(
        {moppkt::IpAddr(10, 99, 0, static_cast<uint8_t>(c + 1)), 9200});
    snap_paths.push_back(snap_dir + std::to_string(c) + ".snap");
    collectors.push_back(std::make_unique<mopcollect::CollectorServer>(copts));
    collectors.back()->RegisterWith(&farm, addrs.back());
    collectors.back()->ServeMetrics(&farm, metrics_addrs.back(), &loop);
    collectors.back()->ServeForensics(&farm, forensics_addrs.back());
    snapshotters.push_back(std::make_unique<mopfleet::Snapshotter>(
        &loop, collectors.back().get(), snap_paths.back(), snapshot_interval));
    snapshotters.back()->Start();
  }
  mopfleet::FleetRouter router(addrs);

  // ---- One instrumented device: a real relay engine with telemetry on ----
  // The fleet's synthetic devices exercise the collector scrape surface; this
  // phone exercises the engine's. Its MetricsExportService serves the relay
  // registry on the same farm the collectors use, so one scraper covers both.
  mopnet::NetworkProfile phone_profile;
  phone_profile.type = mopnet::NetType::kWifi;
  phone_profile.isp = "HomeFiber";
  phone_profile.country = "US";
  phone_profile.first_hop_one_way = std::make_shared<moputil::FixedDelay>(moputil::Millis(1));
  mopdroid::AndroidDevice phone(&loop, phone_profile, &paths, &farm, flags.seed ^ 0xfee7,
                                /*sdk_version=*/24);
  mopeye::Config engine_cfg;
  engine_cfg.telemetry = true;
  engine_cfg.worker_lanes = 2;
  mopeye::MopEyeEngine engine(&phone, engine_cfg);
  const moppkt::SocketAddr engine_metrics_addr{moppkt::IpAddr(10, 99, 0, 200), 9100};
  auto metrics_service =
      std::make_shared<mopeye::MetricsExportService>(&farm, engine_metrics_addr);
  metrics_service->AttachEngine(&engine);
  engine.RegisterService(metrics_service);
  if (auto st = engine.Start(); !st.ok()) {
    std::printf("FATAL: engine start failed: %s\n", st.ToString().c_str());
    return 1;
  }
  const moppkt::SocketAddr phone_server{moppkt::IpAddr(93, 99, 0, 1), 443};
  farm.AddTcpServer(phone_server,
                    [] { return std::make_unique<mopnet::EchoBehavior>(); });
  mopapps::TunNetStack phone_stack(&phone);
  phone_stack.AttachTun();
  mopapps::App phone_app(&phone, &phone_stack, /*uid=*/10200, "com.example.fleet",
                         "FleetApp");
  std::vector<std::shared_ptr<mopapps::AppConn>> phone_conns;
  for (int i = 0; i < 6; ++i) {
    loop.Schedule(moputil::Seconds(1 + 2 * i), [&] {
      auto conn = std::shared_ptr<mopapps::AppConn>(phone_app.CreateConn().release());
      conn->Connect(phone_server, [](moputil::Status) {});
      phone_conns.push_back(std::move(conn));
    });
  }

  // ---- Device roster, sharded by the router ----
  std::vector<double> country_weights;
  for (const auto& c : world.countries()) {
    country_weights.push_back(c.user_weight);
  }
  std::vector<Device> devices(static_cast<size_t>(flags.devices));
  std::vector<int> devices_per_shard(static_cast<size_t>(flags.collectors), 0);
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
    policy.max_batch_age = moputil::Seconds(30);
    policy.poll_interval = moputil::Seconds(2);
    policy.initial_backoff = moputil::Seconds(1);
    policy.max_backoff = moputil::Seconds(4);
    policy.ack_timeout = moputil::Seconds(30);
    policy.trace_sample_period = 8;  // 1/8 of records ride as sampled traces
    policy.health_export_interval = moputil::Seconds(20);
    uint32_t device_id = static_cast<uint32_t>(d);
    ++devices_per_shard[router.ShardOf(device_id)];
    dev.uploader = std::make_unique<mopcollect::Uploader>(
        dev.ctx.get(), &dev.store, router.PlanFor(device_id), device_id, policy);

    // Piggybacked health: three metric shapes (counter / gauge / histogram)
    // with exact in-process ground truth. The gauge is set once to a
    // deterministic per-device value, so the crowd sum is checkable.
    dev.registry = std::make_unique<moptel::Registry>(1);
    dev.generated_counter = dev.registry->AddCounter(
        "mopeye_device_records_generated_total", "Records this device generated");
    dev.battery_gauge = dev.registry->AddGauge(
        "mopeye_device_battery_permille", "Battery level, per-mille",
        moptel::GaugeMerge::kSum);
    dev.rtt_hist = dev.registry->AddHistogram("mopeye_device_rtt_ms",
                                              "RTTs this device measured");
    dev.battery_gauge->Set(0, 900 - 13 * (static_cast<uint64_t>(d) % 20));
    dev.uploader->EnableHealthExport(dev.registry.get(), {"mopeye_device_"});
    dev.uploader->Start();
  }

  // ---- Opportunistic generation, with exact distributions tracked ----
  const size_t head_apps = std::min<size_t>(world.apps().size(), 24);
  std::vector<double> app_weights;
  for (size_t a = 0; a < head_apps; ++a) {
    app_weights.push_back(world.apps()[a].install_rate * world.apps()[a].usage_weight);
  }
  std::vector<std::vector<double>> domain_weights(head_apps);
  for (size_t a = 0; a < head_apps; ++a) {
    for (const auto& g : world.apps()[a].domains) {
      domain_weights[a].push_back(g.traffic_weight);
    }
  }
  std::unordered_map<std::string, moputil::Samples> exact_tcp;

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
        double rtt_ms = world.SampleAppRttMs(net, isp, group.placement, dev.rng);
        m.rtt = moputil::Millis(rtt_ms);
        exact_tcp[app.label].Add(rtt_ms);
      }
      // Health + tracing enrichment: registry feeds per record, and every
      // measurement carries a trace context (the uploader samples 1/8).
      dev.generated_counter->Inc(0);
      dev.rtt_hist->Observe(0, moputil::ToMillis(m.rtt));
      m.trace.device_hash = static_cast<uint32_t>(d + 1);
      m.trace.lane = 0;
      m.trace.seq = ++dev.trace_seq;
      m.trace.born_ns = loop.Now();
      dev.store.Add(std::move(m));
    }
    if (dev.remaining > 0) {
      loop.Schedule(moputil::kSecond, [&generate, d] { generate(d); });
    }
  };
  // A third of the fleet comes online during the outage window: their first
  // upload hits a dead home collector and has to fail over, while the
  // already-busy devices ride out the outage pinned to their in-flight
  // frames (the two halves of the failover contract).
  for (size_t d = 0; d < devices.size(); ++d) {
    moputil::SimDuration start = d % 3 == 2
                                     ? moputil::Seconds(30) + moputil::Millis(static_cast<double>(d))
                                     : moputil::Millis(static_cast<double>(d));
    loop.Schedule(start, [&generate, d] { generate(d); });
  }

  // ---- Scrape plane: a dedicated monitoring client on the same network ----
  mopnet::NetworkProfile scraper_profile;
  scraper_profile.type = mopnet::NetType::kWifi;
  scraper_profile.isp = "Monitoring";
  scraper_profile.first_hop_one_way = std::make_shared<moputil::FixedDelay>(moputil::Millis(1));
  mopnet::NetContext scraper(&loop, scraper_profile, &paths, &farm,
                             moputil::Rng(flags.seed ^ 0x5c7a9e));
  bool scrape_ok = true;
  // Mid-run: metrics must be scrapeable while ingest is live. The exposition
  // is rendered at connect time, so on a monotonic counter the scraped value
  // can never exceed a read taken after the scrape completes.
  loop.Schedule(moputil::Seconds(20), [&] {
    moptel::Scrape(&scraper, metrics_addrs[0], [&](moputil::Status st, std::string text) {
      double v = 0;
      if (!st.ok() ||
          !moptel::ScrapeValue(text, "mopeye_collector_records_ingested_total", &v)) {
        std::printf("FAIL: mid-run scrape of collector 0 failed (%s)\n",
                    st.ToString().c_str());
        scrape_ok = false;
        return;
      }
      uint64_t now_ingested = collectors[0]->counters().records_ingested;
      if (static_cast<uint64_t>(v) > now_ingested) {
        std::printf("FAIL: mid-run scrape reports %llu records ingested, counter says %llu\n",
                    static_cast<unsigned long long>(v),
                    static_cast<unsigned long long>(now_ingested));
        scrape_ok = false;
      }
      std::printf("[t=%2.0fs] scraped collector 0: %llu records ingested so far\n",
                  moputil::ToSeconds(loop.Now()), static_cast<unsigned long long>(v));
    });
  });

  // ---- Kill the busiest collector mid-run, restart from snapshot at 55s ----
  // The kill lands just after a snapshot's ack flush (t=26), when most home
  // devices are between batches: their next upload hits a dead address and
  // exercises connect-failure failover. Devices caught mid-delivery stay
  // pinned to the victim and re-deliver after the restart instead (the
  // dedup-preserving path, unit-tested in fleet_test).
  size_t victim = 0;
  for (size_t c = 1; c < devices_per_shard.size(); ++c) {
    if (devices_per_shard[c] > devices_per_shard[victim]) {
      victim = c;
    }
  }
  uint64_t victim_ingested_at_kill = 0;
  uint64_t victim_restored = 0;  // records its restarted incarnation loaded
  loop.Schedule(moputil::Seconds(26), [&] {
    victim_ingested_at_kill = collectors[victim]->counters().records_ingested;
    std::printf("[t=%2.0fs] CRASH collector %zu (%d home devices, %llu records folded, "
                "%llu acks in flight discarded)\n",
                moputil::ToSeconds(loop.Now()), victim, devices_per_shard[victim],
                static_cast<unsigned long long>(victim_ingested_at_kill),
                static_cast<unsigned long long>(collectors[victim]->pending_ack_count()));
    farm.RemoveTcpServer(addrs[victim]);
    snapshotters[victim]->Stop();
    collectors[victim]->Shutdown();
    // The crashed incarnation stays allocated (in-flight events may still
    // reference it) but never serves again.
  });
  loop.Schedule(moputil::Seconds(55), [&] {
    auto state = mopfleet::ReadSnapshotFile(snap_paths[victim]);
    if (!state.ok()) {
      std::printf("FATAL: snapshot load failed: %s\n", state.status().ToString().c_str());
      std::exit(1);
    }
    auto fresh = std::make_unique<mopcollect::CollectorServer>(copts);
    fresh->ImportState(std::move(state).value());
    victim_restored = fresh->counters().records_ingested;
    fresh->RegisterWith(&farm, addrs[victim]);
    fresh->ServeMetrics(&farm, metrics_addrs[victim], &loop);
    fresh->ServeForensics(&farm, forensics_addrs[victim]);
    std::printf("[t=%2.0fs] RESTART collector %zu from snapshot (%llu records restored — "
                "unsnapshotted folds will be re-delivered)\n",
                moputil::ToSeconds(loop.Now()), victim,
                static_cast<unsigned long long>(fresh->counters().records_ingested));
    // Swap in the new incarnation; keep the crashed one alive but inert.
    static std::vector<std::unique_ptr<mopcollect::CollectorServer>> graveyard;
    graveyard.push_back(std::move(collectors[victim]));
    collectors[victim] = std::move(fresh);
    snapshotters[victim] = std::make_unique<mopfleet::Snapshotter>(
        &loop, collectors[victim].get(), snap_paths[victim], snapshot_interval);
    snapshotters[victim]->Start();
  });

  // Generation + outage + drain; a final flush sweeps the sub-batch tails.
  loop.RunFor(moputil::Seconds(kGenSeconds + 120));
  for (auto& dev : devices) {
    dev.uploader->FlushNow();
  }
  loop.RunFor(moputil::Seconds(240));

  // ---- Final scrapes, against a quiescent fleet: exact equality ----
  // Every collector endpoint (including the restarted victim's) and the
  // engine's MetricsExportService must report exactly what the in-process
  // counters say.
  size_t scrapes_verified = 0;
  for (size_t c = 0; c < collectors.size(); ++c) {
    moptel::Scrape(&scraper, metrics_addrs[c], [&, c](moputil::Status st, std::string text) {
      double ingested = 0, folds = 0;
      if (!st.ok() ||
          !moptel::ScrapeValue(text, "mopeye_collector_records_ingested_total", &ingested) ||
          !moptel::ScrapeValue(text, "mopeye_collector_folds_applied_total", &folds)) {
        std::printf("FAIL: final scrape of collector %zu failed (%s)\n", c,
                    st.ToString().c_str());
        scrape_ok = false;
        return;
      }
      if (static_cast<uint64_t>(ingested) != collectors[c]->counters().records_ingested) {
        std::printf("FAIL: collector %zu scrape says %llu records ingested, counter %llu\n",
                    c, static_cast<unsigned long long>(ingested),
                    static_cast<unsigned long long>(collectors[c]->counters().records_ingested));
        scrape_ok = false;
      }
      // Each record folds once, and the fold counter starts with the
      // incarnation: it counts every record ingested but not restored.
      const uint64_t restored = c == victim ? victim_restored : 0;
      if (static_cast<uint64_t>(folds) + restored != collectors[c]->counters().records_ingested) {
        std::printf("FAIL: collector %zu scrape says %.0f folds, but %llu records ingested "
                    "(%llu restored)\n",
                    c, folds,
                    static_cast<unsigned long long>(collectors[c]->counters().records_ingested),
                    static_cast<unsigned long long>(restored));
        scrape_ok = false;
      }
      // Crowd health rollups ride the same exposition: the scraped values
      // must agree exactly with the collector's in-process HealthStore.
      double crowd_devices = 0, crowd_folds = 0;
      if (!moptel::ScrapeValue(text, "mopeye_crowd_devices", &crowd_devices) ||
          !moptel::ScrapeValue(text, "mopeye_crowd_health_folds", &crowd_folds)) {
        std::printf("FAIL: collector %zu scrape is missing crowd health rollups\n", c);
        scrape_ok = false;
        return;
      }
      if (static_cast<uint64_t>(crowd_devices) != collectors[c]->health().device_count() ||
          static_cast<uint64_t>(crowd_folds) != collectors[c]->health().folds()) {
        std::printf("FAIL: collector %zu crowd scrape (%llu devices, %llu folds) disagrees "
                    "with HealthStore (%zu, %llu)\n",
                    c, static_cast<unsigned long long>(crowd_devices),
                    static_cast<unsigned long long>(crowd_folds),
                    collectors[c]->health().device_count(),
                    static_cast<unsigned long long>(collectors[c]->health().folds()));
        scrape_ok = false;
      }
      uint64_t local_generated = 0;
      if (collectors[c]->health().CounterValue("mopeye_device_records_generated_total",
                                               &local_generated)) {
        double scraped_generated = 0;
        if (!moptel::ScrapeValue(text, "mopeye_crowd_device_records_generated_total",
                                 &scraped_generated) ||
            static_cast<uint64_t>(scraped_generated) != local_generated) {
          std::printf("FAIL: collector %zu crowd counter scrape %.0f != in-process %llu\n",
                      c, scraped_generated,
                      static_cast<unsigned long long>(local_generated));
          scrape_ok = false;
        }
      }
      ++scrapes_verified;
    });
  }
  moptel::Scrape(&scraper, engine_metrics_addr, [&](moputil::Status st, std::string text) {
    double tun_packets = 0, syns = 0;
    if (!st.ok() ||
        !moptel::ScrapeValue(text, "mopeye_engine_tun_packets_total", &tun_packets) ||
        !moptel::ScrapeValue(text, "mopeye_engine_syns_total", &syns)) {
      std::printf("FAIL: engine metrics scrape failed (%s)\n", st.ToString().c_str());
      scrape_ok = false;
      return;
    }
    if (static_cast<uint64_t>(tun_packets) != engine.counters().tun_packets ||
        static_cast<uint64_t>(syns) != engine.counters().syns) {
      std::printf("FAIL: engine scrape (%llu tun packets, %llu syns) disagrees with "
                  "counters (%llu, %llu)\n",
                  static_cast<unsigned long long>(tun_packets),
                  static_cast<unsigned long long>(syns),
                  static_cast<unsigned long long>(engine.counters().tun_packets),
                  static_cast<unsigned long long>(engine.counters().syns));
      scrape_ok = false;
    }
    ++scrapes_verified;
  });
  // Forensics endpoint of the busiest collector (the restarted victim): one
  // JSON document with the flight-recorder stream and the sampled traces,
  // including at least one trace that reached its fold hop.
  bool forensics_ok = false;
  moptel::Scrape(&scraper, forensics_addrs[victim], [&](moputil::Status st, std::string text) {
    forensics_ok = st.ok() && text.find("\"flight_recorder\":") != std::string::npos &&
                   text.find("\"traces\":[") != std::string::npos &&
                   text.find("\"hop\":\"folded\"") != std::string::npos;
    if (!forensics_ok) {
      std::printf("FAIL: forensics scrape of collector %zu missing recorder/traces "
                  "(%s, %zu bytes)\n",
                  victim, st.ToString().c_str(), text.size());
    }
  });
  loop.RunFor(moputil::Seconds(5));
  if (!forensics_ok) {
    scrape_ok = false;
  }
  if (scrapes_verified != collectors.size() + 1) {
    std::printf("FAIL: only %zu of %zu metrics scrapes completed\n", scrapes_verified,
                collectors.size() + 1);
    scrape_ok = false;
  }
  std::printf("metrics scrapes: %zu endpoints verified against in-process counters%s\n",
              scrapes_verified, scrape_ok ? "" : " (MISMATCH)");

  // ---- Merged query plane over the live fleet ----
  mopfleet::FleetView view;
  for (auto& c : collectors) {
    view.AttachCollector(c.get());
  }
  view.Refresh();

  const uint64_t generated =
      static_cast<uint64_t>(flags.devices) * static_cast<uint64_t>(flags.records);
  uint64_t failovers = 0, duplicates = 0, pending = 0;
  for (auto& dev : devices) {
    failovers += dev.uploader->counters().failovers;
    pending += dev.uploader->pending_records();
  }
  for (auto& c : collectors) {
    duplicates += c->counters().batches_duplicate;
  }

  std::printf("\nfleet: %d devices over %d collectors (home devices per shard:", flags.devices,
              flags.collectors);
  for (int n : devices_per_shard) {
    std::printf(" %d", n);
  }
  std::printf(")\n");
  std::printf("ingested %s of %s records | %llu failovers, %llu duplicate deliveries "
              "deduped, %llu still pending\n",
              moputil::WithCommas(static_cast<int64_t>(view.records_ingested())).c_str(),
              moputil::WithCommas(static_cast<int64_t>(generated)).c_str(),
              static_cast<unsigned long long>(failovers),
              static_cast<unsigned long long>(duplicates),
              static_cast<unsigned long long>(pending));
  for (size_t c = 0; c < collectors.size(); ++c) {
    std::printf("  collector %zu%s: %s records, %zu keys, %llu dup batches, "
                "%llu snapshots (%zu B last)\n",
                c, c == victim ? " (restarted)" : "",
                moputil::WithCommas(
                    static_cast<int64_t>(collectors[c]->counters().records_ingested))
                    .c_str(),
                collectors[c]->store().key_count(),
                static_cast<unsigned long long>(collectors[c]->counters().batches_duplicate),
                static_cast<unsigned long long>(snapshotters[c]->counters().snapshots_written),
                snapshotters[c]->counters().last_bytes);
  }

  // ---- Verify the merged aggregates against exact recomputation ----
  bool ok = scrape_ok;
  if (view.records_ingested() != generated) {
    std::printf("FAIL: generated %llu records but the fleet ingested %llu "
                "(loss or double-count across the crash)\n",
                static_cast<unsigned long long>(generated),
                static_cast<unsigned long long>(view.records_ingested()));
    ok = false;
  }
  if (pending != 0) {
    std::printf("FAIL: %llu records still pending on devices\n",
                static_cast<unsigned long long>(pending));
    ok = false;
  }

  auto app_stats = view.TcpAppStats(/*min_count=*/1);
  moputil::Table table({"app", "records", "p50 (merged)", "p50 (exact)", "p95 (merged)",
                        "p95 (exact)", "max err"});
  double worst_err = 0;
  size_t verified_apps = 0, shown = 0;
  uint64_t merged_tcp_records = 0;
  for (const auto& s : app_stats) {
    merged_tcp_records += s.count;
    auto it = exact_tcp.find(s.app);
    if (it == exact_tcp.end()) {
      std::printf("FAIL: merged view reports app %s that was never generated\n", s.app.c_str());
      ok = false;
      continue;
    }
    const moputil::Samples& exact = it->second;
    if (s.count != exact.count()) {
      std::printf("FAIL: app %s has %zu merged records, expected %zu\n", s.app.c_str(),
                  s.count, exact.count());
      ok = false;
    }
    double exact_p50 = exact.Median();
    double exact_p95 = exact.Percentile(95);
    double err = std::max(std::fabs(s.median_ms - exact_p50) / exact_p50,
                          std::fabs(s.p95_ms - exact_p95) / exact_p95);
    if (s.count >= 200) {
      ++verified_apps;
      worst_err = std::max(worst_err, err);
      if (err > 0.05) {
        std::printf("FAIL: %s merged sketch error %.1f%% (p50 %.1f vs %.1f, p95 %.1f vs %.1f)\n",
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
  std::printf("\n==== Fig. 9-style per-app RTT from the merged fleet view ====\n\n%s\n",
              table.Render().c_str());

  // ---- Crowd health: fleet rollups == sum of the device registries ----
  // Counters and histogram buckets ship as deltas deduplicated by (device,
  // seq) and survive the crash through snapshot v2, so the rollup is exact —
  // not approximately right, equal.
  uint64_t expect_generated = 0, expect_battery = 0, expect_rtt_count = 0;
  double expect_rtt_sum = 0;
  for (auto& dev : devices) {
    uint64_t v = 0;
    dev.registry->CounterValue("mopeye_device_records_generated_total", &v);
    expect_generated += v;
    uint64_t g = 0;
    dev.registry->GaugeValue("mopeye_device_battery_permille", &g);
    expect_battery += g;
    const moptel::Histogram* h = dev.registry->FindHistogram("mopeye_device_rtt_ms");
    expect_rtt_count += h->Count();
    expect_rtt_sum += h->Sum();
  }
  const mopcollect::HealthStore& crowd = view.health();
  uint64_t crowd_generated = 0, crowd_battery = 0;
  if (!crowd.CounterValue("mopeye_device_records_generated_total", &crowd_generated) ||
      crowd_generated != expect_generated) {
    std::printf("FAIL: crowd counter rollup %llu != device registry sum %llu\n",
                static_cast<unsigned long long>(crowd_generated),
                static_cast<unsigned long long>(expect_generated));
    ok = false;
  }
  if (!crowd.GaugeValue("mopeye_device_battery_permille", &crowd_battery) ||
      crowd_battery != expect_battery) {
    std::printf("FAIL: crowd gauge rollup %llu != device registry sum %llu\n",
                static_cast<unsigned long long>(crowd_battery),
                static_cast<unsigned long long>(expect_battery));
    ok = false;
  }
  const mopcollect::HealthStore::Metric* crowd_rtt = crowd.Find("mopeye_device_rtt_ms");
  if (crowd_rtt == nullptr || crowd_rtt->HistCount() != expect_rtt_count) {
    std::printf("FAIL: crowd histogram count %llu != device registry sum %llu\n",
                static_cast<unsigned long long>(crowd_rtt != nullptr ? crowd_rtt->HistCount()
                                                                     : 0),
                static_cast<unsigned long long>(expect_rtt_count));
    ok = false;
  } else if (std::fabs(crowd_rtt->sum - expect_rtt_sum) >
             1e-9 * std::max(1.0, std::fabs(expect_rtt_sum))) {
    std::printf("FAIL: crowd histogram sum %.6f != device registry sum %.6f\n",
                crowd_rtt->sum, expect_rtt_sum);
    ok = false;
  }
  if (crowd.device_count() != devices.size()) {
    std::printf("FAIL: crowd rollup saw %zu devices, fleet has %zu\n", crowd.device_count(),
                devices.size());
    ok = false;
  }
  double crowd_rtt_p95 = 0;
  crowd.HistQuantile("mopeye_device_rtt_ms", 95, &crowd_rtt_p95);
  std::printf("\ncrowd health: %zu devices, %llu records counted, battery sum %llu, "
              "rtt p95 %.1f ms over %llu observations — exact vs device registries\n",
              crowd.device_count(), static_cast<unsigned long long>(crowd_generated),
              static_cast<unsigned long long>(crowd_battery), crowd_rtt_p95,
              static_cast<unsigned long long>(expect_rtt_count));

  // ---- Sampled traces: >= 3 hops, device -> received -> folded, monotonic ----
  size_t traces_total = 0, traces_complete = 0;
  for (auto& c : collectors) {
    for (const auto& tr : c->traces().Traces()) {
      ++traces_total;
      bool has_created = false, has_received = false, has_folded = false, monotonic = true;
      int64_t prev = INT64_MIN;
      for (const auto& s : tr.spans) {
        if (s.time_ns < prev) {
          monotonic = false;
        }
        prev = s.time_ns;
        has_created = has_created || s.hop == moptel::TraceHop::kCreated;
        has_received = has_received || s.hop == moptel::TraceHop::kReceived;
        has_folded = has_folded || s.hop == moptel::TraceHop::kFolded;
      }
      if (tr.spans.size() >= 3 && monotonic && has_created && has_received && has_folded) {
        ++traces_complete;
      }
    }
  }
  if (traces_complete == 0) {
    std::printf("FAIL: no sampled trace reached created->received->folded with monotonic "
                "timestamps (%zu traces retained)\n",
                traces_total);
    ok = false;
  } else {
    std::printf("record traces: %zu retained across collectors, %zu span "
                "device->collector->fold with monotonic timestamps\n",
                traces_total, traces_complete);
  }

  for (auto& dev : devices) {
    dev.uploader->Stop();
  }
  engine.Stop();
  for (auto& s : snapshotters) {
    s->Stop();
  }
  for (const auto& p : snap_paths) {
    std::remove(p.c_str());
  }

  std::printf("\n%s: %llu/%llu records across %d collectors (1 crash+restart), "
              "%zu apps verified, worst merged-sketch error %.2f%% (bar: 5%%)\n",
              ok ? "OK" : "FAILED",
              static_cast<unsigned long long>(view.records_ingested()),
              static_cast<unsigned long long>(generated), flags.collectors, verified_apps,
              worst_err * 100);
  return ok ? 0 : 1;
}
