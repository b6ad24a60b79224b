// Table 3: download/upload throughput overhead of MopEye vs Haystack on a
// ~25 Mbps link, measured by an Ookla-style speedtest app.
//
// With --lanes=N the binary instead runs the worker-lane relay-scaling
// sweep: many concurrent bulk-download clients on a fat (10 Gbps) link, so
// the engine — not the link — is the bottleneck, and the aggregate relayed
// throughput shows how the sharded thread model scales. The default output
// (no --lanes) is byte-identical to the checked-in baseline.
#include <algorithm>
#include <memory>
#include <vector>

#include "baselines/presets.h"
#include "bench/bench_util.h"
#include "telemetry/metrics.h"
#include "tests/test_world.h"

namespace {

struct RunResult {
  double down = 0;
  double up = 0;
};

// ---- Worker-lane scaling sweep (--lanes=N) ----

struct LaneSweepResult {
  double mbps = 0;          // aggregate relayed download throughput
  uint64_t bytes = 0;       // total bytes delivered to apps
  double window_s = 0;      // first-data -> last-data window
  int incomplete = 0;       // clients that did not finish (should be 0)
  std::string stage_table;  // per-lane relay stage timing (telemetry)
  std::string queue_table;  // per-tun-queue flush timing (tun_queues > 1)
  uint64_t acks_coalesced = 0;  // per-packet ACKs one cumulative ACK replaced
  std::string stage_json;   // full registry JSON (tools/perf_gate.py input)
};

// Relay stage histograms registered by the engine when Config::telemetry is
// on; the sweep reads them per lane so a skewed lane shows up as a skewed
// column, not averaged away in the merge.
constexpr struct {
  const char* metric;
  const char* label;
} kStages[] = {
    {"mopeye_relay_stage_tun_read_ms", "tun read"},
    {"mopeye_relay_stage_dispatch_ms", "lane dispatch"},
    {"mopeye_relay_stage_parse_ms", "parse"},
    {"mopeye_relay_stage_tcp_ms", "tcp state"},
    {"mopeye_relay_stage_socket_write_ms", "socket write"},
    {"mopeye_relay_stage_socket_read_ms", "socket read"},
    {"mopeye_relay_stage_dns_ms", "dns"},
    {"mopeye_relay_stage_tun_write_ms", "tun write"},
};

std::string RenderStageBreakdown(const moptel::Registry* reg, int lanes) {
  std::vector<std::string> header{"stage"};
  for (int l = 0; l < lanes; ++l) {
    header.push_back("lane " + std::to_string(l) + " p50 (n)");
  }
  moputil::Table t(header);
  for (const auto& stage : kStages) {
    const moptel::Histogram* h = reg->FindHistogram(stage.metric);
    if (h == nullptr) {
      continue;
    }
    std::vector<std::string> row{stage.label};
    for (int l = 0; l < lanes; ++l) {
      uint64_t n = h->LaneCount(static_cast<size_t>(l));
      if (n == 0) {
        row.push_back("-");
      } else {
        row.push_back(mopbench::Num(h->LaneQuantile(static_cast<size_t>(l), 50.0) * 1000.0) +
                      "us (" + std::to_string(n) + ")");
      }
    }
    t.AddRow(std::move(row));
  }
  return t.Render();
}

// Per-queue tun flush breakdown (thread model v4): one row per tun queue,
// fed by the mopeye_tun_queue_flush_q<q>_ms histograms the engine registers
// when Config::tun_queues > 1. The p95 column is the number the old shared
// fd could not keep down — the whole point of the sharding.
std::string RenderQueueBreakdown(const moptel::Registry* reg, int tun_queues) {
  moputil::Table t({"tun queue", "flushes", "p50", "p95", "p99"});
  bool any = false;
  for (int q = 0; q < tun_queues; ++q) {
    // append() rather than operator+ chains: GCC 12 -O2+ emits a -Wrestrict
    // false positive (PR105651) for `"lit" + std::to_string(...)` that
    // -Werror turns into a Release-build failure (see src/crowd/analysis.cc).
    std::string metric = "mopeye_tun_queue_flush_q";
    metric.append(std::to_string(q));
    metric.append("_ms");
    const moptel::Histogram* h = reg->FindHistogram(metric);
    if (h == nullptr) {
      continue;
    }
    any = true;
    moputil::LogQuantile merged = h->Merged();
    size_t n = merged.count();
    std::string label = "q";
    label.append(std::to_string(q));
    t.AddRow({std::move(label), std::to_string(n),
              n == 0 ? "-" : mopbench::Ms(merged.Quantile(50.0)),
              n == 0 ? "-" : mopbench::Ms(merged.Quantile(95.0)),
              n == 0 ? "-" : mopbench::Ms(merged.Quantile(99.0))});
  }
  return any ? t.Render() : std::string();
}

LaneSweepResult RunRelayScale(uint64_t seed, int lanes, int tun_queues, int clients,
                              size_t bytes_per_client) {
  moptest::WorldOptions opts;
  opts.seed = seed + static_cast<uint64_t>(lanes) * 1000 + static_cast<uint64_t>(clients);
  opts.first_hop_one_way = moputil::Micros(200);
  opts.default_path_one_way = moputil::Millis(2);
  // Fat link: the relay engine, not the radio, is the bottleneck here.
  opts.uplink_bps = 10e9;
  opts.downlink_bps = 10e9;
  moptest::TestWorld w(opts);
  mopeye::Config cfg = mopbase::MopEyeConfig();
  cfg.worker_lanes = lanes;
  // Thread model v3: the sweep runs the saturated-ingress configuration —
  // gathered tun reads plus (multi-lane) elephant-flow stealing. The default
  // paper-model output (no --lanes) never sets these, so the checked-in
  // baselines are untouched.
  cfg.tun_read_batch = 32;
  cfg.steal_enabled = lanes > 1;
  cfg.lane_tun_write = true;
  // Thread model v4 (--tun-queues=N): shard egress across N tun queue fds
  // and ACK each socket write once instead of once per relayed packet. Off
  // (0) keeps the v3 single shared fd, so v3 sweep numbers stay comparable.
  if (tun_queues > 0) {
    cfg.tun_queues = tun_queues;
    cfg.ack_coalescing = true;
  }
  // The sweep doubles as the stage-timing showcase: telemetry's per-lane
  // histograms cost one branch per hook and do not perturb the simulation
  // (verified byte-identical against all checked-in baselines).
  cfg.telemetry = true;
  if (!w.StartEngine(cfg).ok()) {
    std::fprintf(stderr, "engine start failed\n");
    std::exit(1);
  }
  // Four apps so the mapper sees a realistic uid mix.
  constexpr int kUids[] = {10150, 10151, 10152, 10153};
  for (int i = 0; i < 4; ++i) {
    w.MakeApp(kUids[i], "com.example.bulk" + std::to_string(i), "Bulk" + std::to_string(i));
  }

  std::vector<std::shared_ptr<mopapps::AppTcpConnection>> conns;
  for (int i = 0; i < clients; ++i) {
    // Distinct server addresses spread the flows across the lane hash.
    auto addr = w.AddServer(
        moppkt::IpAddr(93, 50, static_cast<uint8_t>(i / 250),
                       static_cast<uint8_t>(1 + i % 250)),
        80, moputil::Millis(2),
        [bytes_per_client] { return std::make_unique<mopnet::BulkSourceBehavior>(bytes_per_client); });
    auto conn = mopapps::AppTcpConnection::Create(&w.stack(), kUids[i % 4]);
    conns.push_back(conn);
    // Stagger connects slightly so the SYN burst doesn't dominate the window.
    w.loop().Schedule(moputil::Millis(5) * i, [conn, addr] {
      conn->Connect(addr, [](moputil::Status) {});
    });
  }
  w.loop().RunUntil(moputil::Seconds(240));

  LaneSweepResult r;
  moputil::SimTime first = 0, last = 0;
  for (const auto& conn : conns) {
    r.bytes += conn->bytes_received();
    if (conn->bytes_received() < bytes_per_client) {
      ++r.incomplete;
    }
    if (conn->first_data_time() != 0 && (first == 0 || conn->first_data_time() < first)) {
      first = conn->first_data_time();
    }
    last = std::max(last, conn->last_data_time());
  }
  r.window_s = moputil::ToMillis(last - first) / 1000.0;
  r.mbps = r.window_s > 0 ? static_cast<double>(r.bytes) * 8.0 / r.window_s / 1e6 : 0;
  if (const moptel::Registry* reg = w.engine().telemetry_registry()) {
    r.stage_table = RenderStageBreakdown(reg, lanes);
    if (tun_queues > 1) {
      r.queue_table = RenderQueueBreakdown(reg, tun_queues);
    }
    reg->CounterValue("mopeye_engine_acks_coalesced_total", &r.acks_coalesced);
    r.stage_json = reg->RenderJson();
  }
  return r;
}

int RunLaneSweep(const mopbench::Flags& flags) {
  int lanes = flags.lanes;
  int tun_queues = flags.tun_queues;
  mopbench::PrintHeader("Table 3 (lanes sweep)",
                        "relay scaling across MainWorker lanes, 10 Gbps link");
  std::printf("worker_lanes=%d (write batching %s in this configuration)\n", lanes,
              lanes > 1 ? "on" : "off");
  if (tun_queues > 0) {
    std::printf("tun_queues=%d with pure-ACK coalescing (thread model v4)\n", tun_queues);
  }
  std::printf("\n");
  const int kClientCounts[] = {8, 24, 48};
  const size_t kBytesPerClient = static_cast<size_t>(1.5 * 1024 * 1024);
  moputil::Table t({"clients", "relayed", "window", "throughput", "complete"});
  LaneSweepResult high;
  int high_clients = 0;
  int total_incomplete = 0;
  for (int clients : kClientCounts) {
    LaneSweepResult r = RunRelayScale(flags.seed, lanes, tun_queues, clients, kBytesPerClient);
    t.AddRow({std::to_string(clients),
              mopbench::Num(static_cast<double>(r.bytes) / 1e6) + "MB",
              mopbench::Num(r.window_s) + "s", mopbench::Num(r.mbps) + " Mbps",
              std::to_string(clients - r.incomplete) + "/" + std::to_string(clients)});
    high = r;
    high_clients = clients;
    total_incomplete += r.incomplete;
  }
  std::printf("%s\n", t.Render().c_str());
  if (!high.stage_table.empty()) {
    std::printf("per-lane relay stage timing, %d-client run (p50 simulated cost, n = "
                "observations; tun read/write run on the TunReader/TunWriter actor, "
                "reported as lane 0):\n%s\n",
                high_clients, high.stage_table.c_str());
  }
  if (!high.queue_table.empty()) {
    std::printf("per-tun-queue gathered flush timing, %d-client run:\n%s\n", high_clients,
                high.queue_table.c_str());
  }
  if (tun_queues > 0) {
    // The label names the retired gather-buffer coalescer; it is kept so the
    // table3_lanes8x8 baseline stays byte-identical.
    std::printf("pure ACKs coalesced in lane gather buffers (%d-client run): %llu\n",
                high_clients, static_cast<unsigned long long>(high.acks_coalesced));
  }
  if (!flags.stage_json.empty() && !high.stage_json.empty()) {
    if (FILE* f = std::fopen(flags.stage_json.c_str(), "w")) {
      std::fputs(high.stage_json.c_str(), f);
      std::fclose(f);
      std::printf("stage histogram JSON (%d-client run) written to %s\n", high_clients,
                  flags.stage_json.c_str());
    }
  }
  // The line the CI smoke and the README scaling table read.
  std::printf("relay scaling summary: lanes=%d tun_queues=%d clients=%d throughput=%.2f Mbps\n",
              lanes, tun_queues > 0 ? tun_queues : 1, high_clients, high.mbps);
  // CI smoke contract: nonzero if any client in any sweep row stalled.
  return total_incomplete == 0 ? 0 : 1;
}

RunResult RunSpeedtest(uint64_t seed, const mopeye::Config* engine_cfg) {
  moptest::WorldOptions opts;
  opts.seed = seed;
  opts.first_hop_one_way = moputil::Millis(2);
  opts.default_path_one_way = moputil::Millis(8);
  moptest::TestWorld w(opts);
  mopapps::App::Mode mode = mopapps::App::Mode::kDirect;
  if (engine_cfg != nullptr) {
    if (!w.StartEngine(*engine_cfg).ok()) {
      std::fprintf(stderr, "engine start failed\n");
      std::exit(1);
    }
    mode = mopapps::App::Mode::kTunnel;
  }
  auto* app = w.MakeApp(10150, "org.zwanoo.android.speedtest", "Speedtest", mode);
  mopapps::SpeedtestSession::Config cfg;
  cfg.download_bytes = 12 * 1024 * 1024;
  cfg.upload_bytes = 12 * 1024 * 1024;
  cfg.parallel = 4;
  mopapps::SpeedtestSession session(app, &w.farm(), cfg, moputil::Rng(seed ^ 0x9e37));
  RunResult out;
  bool done = false;
  session.Start([&](mopapps::SpeedtestSession::Result r) {
    out.down = r.download_mbps;
    out.up = r.upload_mbps;
    done = true;
  });
  w.loop().RunUntil(moputil::Seconds(300));
  if (!done) {
    std::fprintf(stderr, "speedtest did not finish\n");
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  auto flags = mopbench::ParseFlags(argc, argv);
  if (flags.lanes > 0) {
    return RunLaneSweep(flags);
  }
  mopbench::PrintHeader("Table 3", "throughput overhead of MopEye and Haystack (Mbps)");

  RunResult baseline = RunSpeedtest(flags.seed, nullptr);
  mopeye::Config mop_cfg = mopbase::MopEyeConfig();
  RunResult mopeye_r = RunSpeedtest(flags.seed + 1, &mop_cfg);
  mopeye::Config hay_cfg = mopbase::HaystackConfig();
  RunResult haystack = RunSpeedtest(flags.seed + 2, &hay_cfg);

  moputil::Table t({"throughput", "baseline", "MopEye", "delta", "Haystack", "delta",
                    "paper (base/Mop/Hay)"});
  t.AddRow({"Download", mopbench::Num(baseline.down), mopbench::Num(mopeye_r.down),
            mopbench::Num(baseline.down - mopeye_r.down), mopbench::Num(haystack.down),
            mopbench::Num(baseline.down - haystack.down), "24.47 / 24.01 / 20.19"});
  t.AddRow({"Upload", mopbench::Num(baseline.up), mopbench::Num(mopeye_r.up),
            mopbench::Num(baseline.up - mopeye_r.up), mopbench::Num(haystack.up),
            mopbench::Num(baseline.up - haystack.up), "25.97 / 25.08 / 6.79"});
  std::printf("%s\n", t.Render().c_str());
  std::printf("Expected shape: MopEye within ~1 Mbps of baseline on both directions;\n"
              "Haystack degrades moderately on download and severely on upload.\n");
  return 0;
}
