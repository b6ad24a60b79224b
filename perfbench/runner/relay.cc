// The two relay workloads: relay_bulk (table3's saturated profile, long
// flows in both directions) and relay_short_flows (the paper model, a closed
// loop of connect -> request -> response -> close flows). Both drive the
// engine through moptest::TestWorld and app-side connections and read every
// layer from outside: engine counters, TunDevice tallies, the BufPool stats,
// the telemetry registry, the device's packet capture and the measurement
// store.
//
// Timed phase, shared by both: a fixed number of passes, each building the
// world afresh and advancing it through the modelled window in fixed
// virtual-time slices grouped into a fixed list of chunks. Slicing never
// reorders events, so the window's counts and modelled (virtual-time)
// metrics are bit-identical for a seed, and chunk i does the same work in
// every pass. Real cost is read through BestPerChunk (bench.h).
#include <algorithm>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "baselines/presets.h"
#include "net/server.h"
#include "netpkt/packet_buf.h"
#include "perfbench/runner/bench.h"
#include "telemetry/metrics.h"
#include "tests/test_world.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using moputil::SimDuration;
using moputil::SimTime;

// TCP with ACK set and no SYN/FIN/RST and no payload, read straight from the
// IPv4/TCP headers (the tun boundary sees whole datagrams).
bool IsPureAck(std::span<const uint8_t> d) {
  if (d.size() < 40 || (d[0] >> 4) != 4 || d[9] != 6) {
    return false;
  }
  size_t ihl = static_cast<size_t>(d[0] & 0x0f) * 4;
  if (d.size() < ihl + 20) {
    return false;
  }
  size_t total = (static_cast<size_t>(d[2]) << 8) | d[3];
  size_t doff = static_cast<size_t>(d[ihl + 12] >> 4) * 4;
  uint8_t flags = d[ihl + 13];
  return (flags & 0x10) != 0 && (flags & 0x07) == 0 && total == ihl + doff;
}

// Distinct seed-chosen server addresses in 93.0.0.0/8 (away from the tun,
// resolver and external addresses the device uses).
std::vector<moppkt::IpAddr> SeededAddresses(moputil::Rng& rng, size_t n) {
  std::set<uint32_t> seen;
  std::vector<moppkt::IpAddr> out;
  while (out.size() < n) {
    moppkt::IpAddr ip(93, static_cast<uint8_t>(rng.UniformInt(0, 255)),
                      static_cast<uint8_t>(rng.UniformInt(0, 255)),
                      static_cast<uint8_t>(rng.UniformInt(1, 254)));
    if (seen.insert(ip.value()).second) {
      out.push_back(ip);
    }
  }
  return out;
}

// Four distinct seed-chosen app uids (MopEye's own uid excluded).
std::vector<int> SeededUids(moputil::Rng& rng) {
  std::set<int> seen;
  std::vector<int> out;
  while (out.size() < 4) {
    int uid = static_cast<int>(rng.UniformInt(10100, 10990));
    if (seen.insert(uid).second) {
      out.push_back(uid);
    }
  }
  return out;
}

// Everything read from outside at one instant; deltas give window counts.
struct RelaySnap {
  uint64_t events = 0;
  mopeye::MopEyeEngine::Counters c;
  mopeye::MopEyeEngine::ResourceUsage res;
  uint64_t tun_out = 0, tun_in = 0, tun_bytes_out = 0, tun_bytes_in = 0;
  uint64_t pool_acquires = 0, pool_slab_allocs = 0, pool_copies = 0;
  uint64_t observes = 0;
  uint64_t pure_acks = 0;
  uint64_t flows = 0;  // flows completed so far
};

// Workload-specific half of a relay run. The shared phase loop below calls
// these between slices.
class RelayState {
 public:
  virtual ~RelayState() = default;

  moptest::TestWorld& world() { return *world_; }
  // Cumulative work units (MB moved / flows completed) and completions.
  virtual double work() const = 0;
  virtual uint64_t flows_done() const = 0;
  // Runs after every slice: drain logs, enforce stall deadlines.
  virtual void AfterSlice(Result& r) = 0;
  // Bracket the modelled window [start, start + window): Finish runs at its
  // end, reports the modelled metrics and checks the final oracles.
  virtual void BeginWindow(SimTime start, SimDuration window) = 0;
  virtual void Finish(Result& r) = 0;

  uint64_t pure_acks() const { return *pure_acks_; }

  // Counts pure ACKs the relay hands to the apps, as they cross the tun.
  void InstallAckPeek() {
    mopdroid::TunDevice* tun = world_->device().vpn_tun();
    auto inner = tun->on_deliver_to_apps;
    auto counter = pure_acks_;
    tun->on_deliver_to_apps = [inner, counter](moppkt::PacketBuf d) {
      if (IsPureAck(d.bytes())) {
        ++*counter;
      }
      inner(std::move(d));
    };
  }

  RelaySnap Snap(uint64_t events) {
    RelaySnap s;
    s.events = events;
    mopeye::MopEyeEngine& e = world_->engine();
    s.c = e.counters();
    s.res = e.resources();
    const mopdroid::TunDevice* tun = world_->device().vpn_tun();
    s.tun_out = tun->packets_out();
    s.tun_in = tun->packets_in();
    s.tun_bytes_out = tun->bytes_out();
    s.tun_bytes_in = tun->bytes_in();
    moppkt::BufPool::Stats ps = moppkt::BufPool::Default().stats();
    s.pool_acquires = ps.acquires;
    s.pool_slab_allocs = ps.slab_allocs;
    s.pool_copies = ps.copies;
    if (const moptel::Registry* reg = e.telemetry_registry()) {
      uint64_t v = 0;
      if (reg->CounterValue("mopeye_bufpool_acquires_total", &v)) s.pool_acquires += v;
      if (reg->CounterValue("mopeye_bufpool_slab_allocs_total", &v)) s.pool_slab_allocs += v;
      if (reg->CounterValue("mopeye_bufpool_copies_total", &v)) s.pool_copies += v;
      for (const auto& m : reg->Sample()) {
        if (m.kind == moptel::MetricSample::Kind::kHistogram) {
          s.observes += m.Count();
        }
      }
    }
    s.pure_acks = pure_acks();
    s.flows = flows_done();
    return s;
  }

 protected:
  std::unique_ptr<moptest::TestWorld> world_;
  std::shared_ptr<uint64_t> pure_acks_ = std::make_shared<uint64_t>(0);
};

struct PhasePlan {
  SimDuration warmup;      // virtual time run during set-up
  SimDuration slice;       // one RunUntil step
  int slices_per_chunk;
  int chunks;              // per pass; a pass is the modelled window
  double nominal_pass_s;   // CPU seconds of one pass with its set-up (PassCount)
};

// Layer counts over the modelled window, plus the mean datagram size and
// heap depth that shape the unit costs.
void ReportWindow(const RelaySnap& a, const RelaySnap& b, uint64_t pending_max,
                  double pending_mean, Result& r) {
  auto d = [](uint64_t x, uint64_t y) { return static_cast<double>(y - x); };
  double events = d(a.events, b.events);
  double tun_out = d(a.tun_out, b.tun_out);
  double tun_in = d(a.tun_in, b.tun_in);
  double packets = tun_out + tun_in;
  double flows = d(a.flows, b.flows);
  r.Set("sim.events", events);
  r.Set("sim.events_per_tun_packet", packets > 0 ? events / packets : 0);
  r.Set("sim.events_per_flow", flows > 0 ? events / flows : 0);
  r.Set("sim.pending_events_max", static_cast<double>(pending_max));
  r.Set("android.tun_packets_out", tun_out);
  r.Set("android.tun_packets_in", tun_in);
  r.Set("net.socket_read_events", d(a.c.socket_read_events, b.c.socket_read_events));
  r.Set("core.tun_packets", d(a.c.tun_packets, b.c.tun_packets));
  r.Set("core.data_segments", d(a.c.data_segments, b.c.data_segments));
  r.Set("core.syns", d(a.c.syns, b.c.syns));
  r.Set("core.connects_failed", d(a.c.connects_failed, b.c.connects_failed));
  double coalesced = d(a.c.acks_coalesced, b.c.acks_coalesced);
  double produced = coalesced + d(a.pure_acks, b.pure_acks);
  r.Set("core.acks_coalesced", coalesced);
  r.Set("core.pure_acks_produced", produced);
  r.Set("core.ack_coalesce_ratio", produced > 0 ? coalesced / produced : 0);
  r.Set("core.steal_handoffs", d(a.c.steal_handoffs, b.c.steal_handoffs));
  double bursts = d(a.c.lane_write_bursts, b.c.lane_write_bursts);
  r.Set("core.packets_per_lane_burst",
        bursts > 0 ? d(a.c.lane_write_packets, b.c.lane_write_packets) / bursts : 0);
  auto busy_ms = [](SimDuration x, SimDuration y) { return moputil::ToMillis(y - x); };
  r.Set("core.busy_reader_ms", busy_ms(a.res.busy_reader, b.res.busy_reader));
  r.Set("core.busy_writer_ms", busy_ms(a.res.busy_writer, b.res.busy_writer));
  r.Set("core.busy_main_ms", busy_ms(a.res.busy_main, b.res.busy_main));
  r.Set("core.busy_workers_ms", busy_ms(a.res.busy_workers, b.res.busy_workers));
  r.Set("netpkt.bufpool_acquires", d(a.pool_acquires, b.pool_acquires));
  r.Set("netpkt.bufpool_slab_allocs", d(a.pool_slab_allocs, b.pool_slab_allocs));
  r.Set("netpkt.bufpool_copies", d(a.pool_copies, b.pool_copies));
  r.Set("telemetry.observes", d(a.observes, b.observes));
  r.Set("attrib.window_units", packets);
  r.Set("attrib.mean_packet_bytes",
        packets > 0 ? d(a.tun_bytes_out + a.tun_bytes_in, b.tun_bytes_out + b.tun_bytes_in) /
                          packets
                    : 0);
  r.Set("attrib.heap_depth", pending_mean);
}

// One timed pass over the modelled window: `chunks` chunks of
// `slices_per_chunk` fixed virtual-time slices, each slice and each chunk
// timed on the CPU clock. The first pass also reports the window's counts.
std::vector<Chunk> RunPass(Tracer& tracer, RelayState& st, const PhasePlan& plan, uint64_t pass,
                           bool report_window, Result& r) {
  mopsim::EventLoop& loop = st.world().loop();
  st.BeginWindow(loop.Now(), plan.slice * plan.slices_per_chunk * plan.chunks);
  uint64_t events = 0;
  RelaySnap snap_start = st.Snap(events);
  uint64_t pending_max = 0;
  double pending_sum = 0;
  uint64_t slice = 0;
  SpanScope pass_span(tracer, "bench.pass", 0, pass);
  std::vector<Chunk> chunks(static_cast<size_t>(plan.chunks));
  for (Chunk& chunk : chunks) {
    const double work0 = st.work();
    const double cpu0 = CpuSeconds();
    for (int s = 0; s < plan.slices_per_chunk; ++s, ++slice) {
      double t0 = CpuSeconds();
      {
        SpanScope span(tracer, "sim.run_until_slice", pass_span.id(), slice);
        events += loop.RunUntil(loop.Now() + plan.slice);
      }
      {
        SpanScope span(tracer, "bench.after_slice", pass_span.id(), slice);
        st.AfterSlice(r);
      }
      chunk.steps_us.push_back((CpuSeconds() - t0) * 1e6);
      uint64_t pending = loop.pending_events();
      pending_max = std::max(pending_max, pending);
      pending_sum += static_cast<double>(pending);
    }
    chunk.cpu_s = CpuSeconds() - cpu0;
    chunk.work = st.work() - work0;
  }
  st.Finish(r);
  if (report_window) {
    r.Set("peak_rss_mib", PeakRssMiB());
    ReportWindow(snap_start, st.Snap(events), pending_max,
                 pending_sum / static_cast<double>(std::max<uint64_t>(slice, 1)), r);
  }
  return chunks;
}

// ---------------------------------------------------------------------------
// relay_bulk
// ---------------------------------------------------------------------------

// Upload sink that counts what it receives for the flow currently using it.
class CountingSink : public mopnet::SinkBehavior {
 public:
  explicit CountingSink(std::function<void(size_t)> on_bytes) : on_bytes_(std::move(on_bytes)) {}
  void OnData(mopnet::ServerConn& conn, std::span<const uint8_t> data) override {
    (void)conn;
    on_bytes_(data.size());
  }

 private:
  std::function<void(size_t)> on_bytes_;
};

class BulkState : public RelayState {
 public:
  static constexpr int kUsers = 48;

  // App connections need their stack, and the world's callbacks reach into
  // this object: drop the connections, then the world, then the rest.
  ~BulkState() override {
    users_.clear();
    world_.reset();
  }

  BulkState(uint64_t seed, size_t flow_bytes, Result& r, Tracer& tracer, uint64_t parent)
      : flow_bytes_(flow_bytes), result_(r) {
    moputil::Rng rng(seed ^ 0xb01c);
    moptest::WorldOptions opts;
    opts.seed = rng.NextU64();
    opts.first_hop_one_way = moputil::Micros(200);
    opts.default_path_one_way = moputil::Millis(2);
    opts.uplink_bps = 10e9;
    opts.downlink_bps = 10e9;
    {
      SpanScope span(tracer, "setup.world", parent);
      world_ = std::make_unique<moptest::TestWorld>(opts);
    }
    mopeye::Config cfg = mopbase::MopEyeConfig();
    cfg.worker_lanes = 8;
    cfg.tun_queues = 8;
    cfg.tun_read_batch = 32;
    cfg.steal_enabled = true;
    cfg.lane_tun_write = true;
    cfg.ack_coalescing = true;
    cfg.telemetry = true;
    {
      SpanScope span(tracer, "setup.engine_start", parent);
      if (!world_->StartEngine(cfg).ok()) {
        r.Fail("engine start failed");
        return;
      }
    }
    InstallAckPeek();
    SpanScope span(tracer, "setup.register", parent);
    std::vector<int> uids = SeededUids(rng);
    for (size_t i = 0; i < uids.size(); ++i) {
      world_->MakeApp(uids[i], Cat("com.perfbench.bulk", i), Cat("Bulk", i));
    }
    std::vector<moppkt::IpAddr> ips = SeededAddresses(rng, kUsers);
    users_.resize(kUsers);
    for (int i = 0; i < kUsers; ++i) {
      User& u = users_[static_cast<size_t>(i)];
      u.upload = i % 3 == 2;  // one third upload, two thirds download
      u.uid = uids[static_cast<size_t>(i) % uids.size()];
      mopnet::BehaviorFactory factory;
      if (u.upload) {
        factory = [this, i] {
          return std::make_unique<CountingSink>([this, i](size_t n) { OnUploadBytes(i, n); });
        };
      } else {
        size_t bytes = flow_bytes_;
        factory = [bytes] { return std::make_unique<mopnet::BulkSourceBehavior>(bytes); };
      }
      u.server = world_->AddServer(ips[static_cast<size_t>(i)], 80, moputil::Millis(2),
                                   std::move(factory));
      handshakes_[u.server];
      world_->loop().Schedule(moputil::Millis(1) * i, [this, i] { StartFlow(i); });
    }
  }

  double work() const override { return static_cast<double>(bytes_moved_) / 1e6; }
  uint64_t flows_done() const override { return completed_; }

  void AfterSlice(Result& r) override {
    (void)r;
    // The bulk workload does not read the capture; keep it bounded.
    world_->device().net().capture().Clear();
    for (const auto& m : world_->engine().store().TakeRecords()) {
      auto it = handshakes_.find(m.server);
      if (m.kind != mopeye::MeasureKind::kTcpConnect) {
        continue;
      } else if (it == handshakes_.end()) {
        result_.Fail(Cat("measurement record for an unknown server ", m.server.ip.ToString()));
      } else {
        ++it->second.records;
      }
    }
    SimTime now = world_->loop().Now();
    for (int i = 0; i < kUsers; ++i) {
      User& u = users_[static_cast<size_t>(i)];
      if (u.active && now - u.started > kStall) {
        result_.Fail(Cat("bulk flow stalled (user ", i, ")"));
        ++failed_flows_;
        u.active = false;
        u.conn->Abort();
        StartFlow(i);
      }
    }
  }

  void BeginWindow(SimTime start, SimDuration window) override {
    (void)start;
    window_ = window;
    window_bytes0_ = bytes_moved_;
  }
  void Finish(Result& r) override {
    r.Set("modelled_mbps", static_cast<double>(bytes_moved_ - window_bytes0_) * 8.0 /
                               moputil::ToSeconds(window_) / 1e6);
    r.attempted += completed_ + failed_flows_;
    // Every completed handshake produces one connect measurement, once lazy
    // uid mapping has run: per server (one per user, flows in sequence) the
    // records may trail the handshakes by kRecordLag, and lead them by at
    // most the one handshake the app has not seen complete yet.
    const SimTime now = world_->loop().Now();
    SimDuration lag = 0;
    for (const auto& [server, h] : handshakes_) {
      if (h.records > h.connected.size() + 1) {
        r.Fail(Cat(h.records, " measurement records for ", h.connected.size(),
                   " handshakes at ", server.ip.ToString()));
      } else if (h.records < h.connected.size()) {
        lag = std::max(lag, now - h.connected[h.records]);
      }
    }
    if (lag > kRecordLag) {
      r.Fail(Cat("a handshake has had no measurement record for ", moputil::ToMillis(lag),
                 " ms virtual"));
    }
    r.Set("bench.record_lag_ms", std::max(r.metrics["bench.record_lag_ms"], moputil::ToMillis(lag)));
    r.Set("modelled_connect_overhead_p50_ms", 0);
    r.Set("modelled_connect_overhead_p99_ms", 0);
    r.Set("modelled_rtt_err_p95_ms", 0);
  }

 private:
  static constexpr SimDuration kStall = moputil::Seconds(20);
  static constexpr SimDuration kRecordLag = moputil::Millis(500);

  struct Handshakes {
    std::vector<SimTime> connected;  // app-side connect completions, in order
    uint64_t records = 0;            // connect measurements seen
  };

  struct User {
    bool upload = false;
    int uid = 0;
    moppkt::SocketAddr server;
    std::shared_ptr<mopapps::AppTcpConnection> conn;
    uint64_t seq = 0;  // flow generation; stale callbacks compare against it
    uint64_t sink_bytes = 0;
    SimTime started = 0;
    bool active = false;
  };

  void StartFlow(int i) {
    User& u = users_[static_cast<size_t>(i)];
    uint64_t seq = ++u.seq;
    u.active = true;
    u.sink_bytes = 0;
    u.started = world_->loop().Now();
    u.conn = mopapps::AppTcpConnection::Create(&world_->stack(), u.uid);
    if (!u.upload) {
      u.conn->on_data = [this, i, seq](std::span<const uint8_t> d) { OnDownload(i, seq, d.size()); };
    }
    u.conn->Connect(u.server, [this, i, seq](moputil::Status st) { OnConnected(i, seq, st); });
  }

  void OnConnected(int i, uint64_t seq, const moputil::Status& st) {
    User& u = users_[static_cast<size_t>(i)];
    if (u.seq != seq || !u.active) {
      return;
    }
    if (!st.ok()) {
      result_.Fail(Cat("bulk connect failed: ", st.ToString()));
      ++failed_flows_;
      u.active = false;
      world_->loop().Post([this, i] { StartFlow(i); });
      return;
    }
    handshakes_[u.server].connected.push_back(world_->loop().Now());
    if (u.upload) {
      u.conn->SendBytes(flow_bytes_);
      u.conn->Close();
    }
  }

  void OnDownload(int i, uint64_t seq, size_t n) {
    User& u = users_[static_cast<size_t>(i)];
    if (u.seq != seq || !u.active) {
      return;
    }
    bytes_moved_ += n;
    uint64_t got = u.conn->bytes_received();
    if (got >= flow_bytes_) {
      Complete(i, got, "download");
    }
  }

  void OnUploadBytes(int i, size_t n) {
    User& u = users_[static_cast<size_t>(i)];
    if (!u.active) {
      return;
    }
    bytes_moved_ += n;
    u.sink_bytes += n;
    if (u.sink_bytes >= flow_bytes_) {
      Complete(i, u.sink_bytes, "upload");
    }
  }

  void Complete(int i, uint64_t got, const char* dir) {
    User& u = users_[static_cast<size_t>(i)];
    u.active = false;
    if (got != flow_bytes_) {
      result_.Fail(Cat(dir, " delivered ", got, " of ", flow_bytes_, " bytes"));
      ++failed_flows_;
    } else {
      ++completed_;
    }
    if (!u.upload) {
      u.conn->Close();
    }
    // Next flow after the current callback chain unwinds.
    world_->loop().Post([this, i] { StartFlow(i); });
  }

  size_t flow_bytes_;
  Result& result_;
  std::vector<User> users_;
  uint64_t bytes_moved_ = 0;
  uint64_t completed_ = 0;
  uint64_t failed_flows_ = 0;
  std::map<moppkt::SocketAddr, Handshakes> handshakes_;
  SimDuration window_ = 0;
  uint64_t window_bytes0_ = 0;
};

// ---------------------------------------------------------------------------
// relay_short_flows
// ---------------------------------------------------------------------------

class ShortFlowState : public RelayState {
 public:
  static constexpr int kUsers = 16;
  static constexpr int kScales = 3;
  static constexpr size_t kRequestBytes = 512;
  static constexpr size_t kResponseBytes = 4096;

  // As ~BulkState: connections first, then the world.
  ~ShortFlowState() override {
    users_.clear();
    world_.reset();
  }

  ShortFlowState(uint64_t seed, Result& r, Tracer& tracer, uint64_t parent) : result_(r) {
    moputil::Rng rng(seed ^ 0x5f10);
    moptest::WorldOptions opts;
    opts.seed = rng.NextU64();
    opts.first_hop_one_way = moputil::Micros(500);
    {
      SpanScope span(tracer, "setup.world", parent);
      world_ = std::make_unique<moptest::TestWorld>(opts);
    }
    {
      SpanScope span(tracer, "setup.engine_start", parent);
      if (!world_->StartEngine(mopbase::MopEyeConfig()).ok()) {
        r.Fail("engine start failed");
        return;
      }
    }
    InstallAckPeek();
    SpanScope span(tracer, "setup.register", parent);
    std::vector<int> uids = SeededUids(rng);
    for (size_t i = 0; i < uids.size(); ++i) {
      apps_.push_back(world_->MakeApp(uids[i], Cat("com.perfbench.app", i), Cat("App", i)));
    }
    // Table 2's three RTT scales (Google / Facebook / Dropbox), each served
    // at one address per user so every address sees sequential handshakes.
    const double kRttMs[kScales] = {5.0, 37.0, 385.0};
    std::vector<moppkt::IpAddr> ips = SeededAddresses(rng, kUsers * kScales);
    users_.resize(kUsers);
    for (int u = 0; u < kUsers; ++u) {
      users_[static_cast<size_t>(u)].app = apps_[static_cast<size_t>(u) % apps_.size()];
      for (int s = 0; s < kScales; ++s) {
        moppkt::IpAddr ip = ips[static_cast<size_t>(u * kScales + s)];
        auto addr = world_->AddServer(ip, 80, moputil::Millis((kRttMs[s] - 1.0) / 2.0), [] {
          return std::make_unique<mopnet::SizeEncodedBehavior>(0, kRequestBytes);
        });
        std::string name = Cat("s", s, "-u", u, ".perfbench.test");
        world_->farm().resolution().Add(name, ip);
        users_[static_cast<size_t>(u)].servers[s] = addr;
        users_[static_cast<size_t>(u)].names[s] = name;
      }
      world_->loop().Schedule(moputil::Millis(3) * u, [this, u] { StartFlow(u); });
    }
  }

  double work() const override { return static_cast<double>(completed_); }
  uint64_t flows_done() const override { return completed_; }

  void AfterSlice(Result& r) override {
    (void)r;
    auto& capture = world_->device().net().capture();
    for (const auto& rec : capture.records()) {
      if (rec.event == mopnet::CaptureEvent::kTcpSyn && rec.dir == mopnet::CaptureDir::kOut) {
        syn_times_.emplace(std::make_pair(rec.local, rec.remote), rec.time);
      } else if (rec.event == mopnet::CaptureEvent::kTcpSynAck &&
                 rec.dir == mopnet::CaptureDir::kIn) {
        auto it = syn_times_.find(std::make_pair(rec.local, rec.remote));
        if (it != syn_times_.end()) {
          remotes_[rec.remote].wire.push_back(rec.time - it->second);
          syn_times_.erase(it);
        }
      }
    }
    capture.Clear();
    for (auto& m : world_->engine().store().TakeRecords()) {
      if (m.kind == mopeye::MeasureKind::kTcpConnect) {
        remotes_[m.server].recorded.push_back(m.rtt);
      } else {
        ++dns_records_;
      }
    }
    for (auto& [addr, q] : remotes_) {
      while (!q.wire.empty() && !q.recorded.empty() && !q.app.empty()) {
        SimDuration wire = q.wire.front();
        SimDuration rec = q.recorded.front();
        AppConnect app = q.app.front();
        q.wire.pop_front();
        q.recorded.pop_front();
        q.app.pop_front();
        if (app.done >= window_start_ && app.done < window_end_) {
          overhead_ms_.push_back(moputil::ToMillis(app.latency - wire));
          rtt_err_ms_.push_back(moputil::ToMillis(rec > wire ? rec - wire : wire - rec));
        }
      }
    }
    SimTime now = world_->loop().Now();
    for (int u = 0; u < kUsers; ++u) {
      User& usr = users_[static_cast<size_t>(u)];
      if (usr.active && now - usr.started > kStall) {
        result_.Fail(Cat("short flow stalled (user ", u, ")"));
        ++failed_flows_;
        usr.active = false;
        StartFlow(u);
      }
    }
  }

  void BeginWindow(SimTime start, SimDuration window) override {
    window_start_ = start;
    window_end_ = start + window;
  }
  void Finish(Result& r) override {
    r.attempted += completed_ + failed_flows_;
    // Handshakes still in flight at the end leave at most one unmatched
    // entry per address; anything more means records and handshakes diverged.
    for (const auto& [addr, q] : remotes_) {
      if (q.wire.size() > 1 || q.recorded.size() > 1 || q.app.size() > 1) {
        r.Fail(Cat("measurement records do not match handshakes at ", addr.ip.ToString(),
                   " (wire ", q.wire.size(), ", records ", q.recorded.size(), ", app ",
                   q.app.size(), ")"));
      }
    }
    // The relay records a DNS measurement as the answer passes through it,
    // before the app's callback: answered <= records <= started.
    if (dns_records_ < resolved_ || dns_records_ > resolves_) {
      r.Fail(Cat("DNS records (", dns_records_, ") do not match resolutions (", resolved_,
                 " answered, ", resolves_, " started)"));
    }
    r.Set("modelled_connect_overhead_p50_ms", Percentile(overhead_ms_, 50));
    r.Set("modelled_connect_overhead_p99_ms", Percentile(overhead_ms_, 99));
    r.Set("modelled_rtt_err_p95_ms", Percentile(rtt_err_ms_, 95));
    r.Set("modelled.handshakes", static_cast<double>(overhead_ms_.size()));
    r.Set("modelled_mbps", 0);
  }

 private:
  static constexpr SimDuration kStall = moputil::Seconds(30);

  struct User {
    mopapps::App* app = nullptr;
    moppkt::SocketAddr servers[kScales];
    std::string names[kScales];
    std::unique_ptr<mopapps::AppConn> conn;
    uint64_t flows = 0;  // flows started; also the generation id
    SimTime started = 0;
    bool active = false;
  };
  struct AppConnect {
    SimDuration latency = 0;
    SimTime done = 0;
  };
  struct RemoteQueues {
    std::deque<SimDuration> wire, recorded;
    std::deque<AppConnect> app;
  };

  void StartFlow(int u) {
    User& usr = users_[static_cast<size_t>(u)];
    uint64_t gen = ++usr.flows;
    int scale = static_cast<int>((gen + static_cast<uint64_t>(u)) % kScales);
    usr.active = true;
    usr.started = world_->loop().Now();
    if ((gen + static_cast<uint64_t>(u)) % 4 == 0) {
      // One flow in four resolves its server through the tunnel first.
      ++resolves_;
      moppkt::IpAddr want = usr.servers[scale].ip;
      usr.app->Resolve(usr.names[scale],
                       [this, u, gen, scale, want](moputil::Result<mopapps::DnsResult> res) {
                         if (res.ok()) {
                           ++resolved_;
                         }
                         User& v = users_[static_cast<size_t>(u)];
                         if (v.flows != gen || !v.active) {
                           return;
                         }
                         if (!res.ok() || !(res.value().address == want)) {
                           FailFlow(u, "DNS resolution failed or returned a wrong address");
                           return;
                         }
                         Connect(u, gen, scale);
                       });
      return;
    }
    Connect(u, gen, scale);
  }

  void Connect(int u, uint64_t gen, int scale) {
    User& usr = users_[static_cast<size_t>(u)];
    usr.conn = usr.app->CreateConn();
    moppkt::SocketAddr server = usr.servers[scale];
    usr.conn->on_data = [this, u, gen](size_t) { OnData(u, gen); };
    usr.conn->Connect(server, [this, u, gen, server](moputil::Status st) {
      User& v = users_[static_cast<size_t>(u)];
      if (v.flows != gen || !v.active) {
        return;
      }
      if (!st.ok()) {
        FailFlow(u, Cat("connect failed: ", st.ToString()));
        return;
      }
      remotes_[server].app.push_back({v.conn->connect_latency(), world_->loop().Now()});
      v.conn->Send(mopnet::EncodeSizedRequest(kResponseBytes, kRequestBytes));
    });
  }

  void OnData(int u, uint64_t gen) {
    User& usr = users_[static_cast<size_t>(u)];
    if (usr.flows != gen || !usr.active) {
      return;
    }
    uint64_t got = usr.conn->bytes_received();
    if (got < kResponseBytes) {
      return;
    }
    usr.active = false;
    if (got != kResponseBytes) {
      result_.Fail(Cat("response delivered ", got, " of ", kResponseBytes, " bytes"));
      ++failed_flows_;
    } else {
      ++completed_;
    }
    usr.conn->Close();
    // Drop the wrapper and start the next flow once this callback unwinds.
    world_->loop().Post([this, u] {
      users_[static_cast<size_t>(u)].conn.reset();
      StartFlow(u);
    });
  }

  void FailFlow(int u, const std::string& why) {
    User& usr = users_[static_cast<size_t>(u)];
    usr.active = false;
    result_.Fail(why);
    ++failed_flows_;
    world_->loop().Post([this, u] {
      users_[static_cast<size_t>(u)].conn.reset();
      StartFlow(u);
    });
  }

  Result& result_;
  std::vector<mopapps::App*> apps_;
  std::vector<User> users_;
  uint64_t completed_ = 0;
  uint64_t failed_flows_ = 0;
  uint64_t resolves_ = 0;  // resolutions started
  uint64_t resolved_ = 0;  // resolutions answered
  uint64_t dns_records_ = 0;
  std::map<std::pair<moppkt::SocketAddr, moppkt::SocketAddr>, SimTime> syn_times_;
  std::map<moppkt::SocketAddr, RemoteQueues> remotes_;
  std::vector<double> overhead_ms_, rtt_err_ms_;
  SimTime window_start_ = 0;
  SimTime window_end_ = 0;
};

// Attribution of the modelled window's CPU time: Σ count × unit cost.
void Attribute(Result& r) {
  auto m = [&r](const char* k) { return r.metrics[k]; };
  double packets = m("attrib.window_units");
  double explained_ns = m("sim.events") * m("sim.event_ns") +
                        packets * m("netpkt.parse_ns") +
                        m("android.tun_packets_in") * m("netpkt.template_emit_ns") +
                        m("core.tun_packets") * m("core.tcp_sm_ns") +
                        m("netpkt.bufpool_acquires") * m("netpkt.bufpool_pair_ns") +
                        m("telemetry.observes") * m("telemetry.observe_ns");
  double cpu_ns = m("attrib.window_cpu_s") * 1e9;
  r.Set("attrib.explained_share", cpu_ns > 0 ? explained_ns / cpu_ns : 0);
  r.Set("attrib.remainder_ns_per_unit", packets > 0 ? (cpu_ns - explained_ns) / packets : 0);
}

// Set-up and the timed passes shared by both relay workloads. Each pass
// builds the state afresh (timed as set-up, warm-up included) and times the
// same chunk list. Traced runs time half their passes untraced and half
// traced, then make the unit-cost calls.
template <typename State, typename Make>
Result RunRelay(const Options& opts, Tracer& tracer, const PhasePlan& plan, Make make) {
  Result r;
  const int passes = PassCount(opts, plan.nominal_pass_s);
  const int untraced_passes = opts.trace ? std::max(2, passes / 2) : passes;
  const int all_passes = opts.trace ? untraced_passes + std::max(2, passes / 2) : passes;
  BestPerChunk untraced, traced;
  std::vector<double> setup_s;
  for (int p = 0; p < all_passes && r.failed == 0; ++p) {
    const bool tracing = p >= untraced_passes;
    tracer.set_enabled(tracing);
    std::unique_ptr<State> st;
    const double t0 = CpuSeconds();
    {
      SpanScope span(tracer, "setup", 0, static_cast<uint64_t>(p));
      st = make(r, span.id());
      if (r.failed == 0) {
        SpanScope warm(tracer, "setup.warmup", span.id());
        st->world().loop().RunUntil(st->world().loop().Now() + plan.warmup);
        st->AfterSlice(r);
      }
    }
    setup_s.push_back(CpuSeconds() - t0);
    if (r.failed > 0) {
      break;
    }
    std::vector<Chunk> chunks =
        RunPass(tracer, *st, plan, static_cast<uint64_t>(p), p == 0, r);
    (tracing ? traced : untraced).Add(std::move(chunks), r);
  }
  tracer.set_enabled(false);
  r.Set("setup_s", Median(setup_s));
  if (r.failed > 0) {
    return r;
  }
  untraced.Report(r);
  if (opts.trace) {
    r.Set("bench.trace_overhead_pct", (traced.cpu_s() / untraced.cpu_s() - 1.0) * 100.0);
    r.Set("attrib.window_cpu_s", untraced.cpu_s());
    TrafficShape shape;
    shape.mean_packet_bytes = r.metrics["attrib.mean_packet_bytes"];
    shape.heap_depth = r.metrics["attrib.heap_depth"];
    MeasureUnitCosts(shape, opts.seed, r);
    Attribute(r);
  }
  return r;
}

}  // namespace

Result RunRelayBulk(const Options& opts, Tracer& tracer) {
  const bool tiny = opts.size == Size::kTiny;
  // 8 chunks of 125 ms virtual in 0.25 ms slices: the modelled second.
  PhasePlan plan{moputil::Millis(100), moputil::Micros(250), tiny ? 50 : 500, 8, 3.3};
  const size_t flow_bytes = tiny ? 256 * 1024 : 2 * 1024 * 1024;
  return RunRelay<BulkState>(opts, tracer, plan, [&](Result& r, uint64_t span) {
    return std::make_unique<BulkState>(opts.seed, flow_bytes, r, tracer, span);
  });
}

Result RunRelayShortFlows(const Options& opts, Tracer& tracer) {
  const bool tiny = opts.size == Size::kTiny;
  // 8 chunks of 50 s virtual in 200 ms slices: the modelled 400 s.
  PhasePlan plan{moputil::Seconds(40), moputil::Millis(200), tiny ? 12 : 250, 8, 1.5};
  return RunRelay<ShortFlowState>(opts, tracer, plan, [&](Result& r, uint64_t span) {
    return std::make_unique<ShortFlowState>(opts.seed, r, tracer, span);
  });
}

}  // namespace perfbench
