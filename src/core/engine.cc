#include "core/engine.h"

#include <algorithm>

#include "netpkt/dns.h"
#include "netpkt/udp.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/metrics.h"
#include "util/hash.h"
#include "util/logging.h"

namespace mopeye {

namespace {
constexpr moputil::SimDuration kUdpIdleTimeout = moputil::Seconds(60);
// Relay TCP parameters (§3.4): the MSS and window advertised to the app, and
// each client's socket read (and write) buffer.
constexpr uint16_t kMss = 1460;
constexpr uint16_t kWindow = 65535;
constexpr size_t kSocketBuffer = 65535;
// Read-queue depth at which a lane declares itself overloaded and publishes
// its hottest flow as stealable (Config::steal_enabled).
constexpr size_t kStealQueueThreshold = 24;

// Per-lane emission pools. Static duration like BufPool::Default(): packets
// emitted by a lane can still sit in the TunWriter queue, pending event-loop
// deliveries, or the app-side stack after the engine is destroyed, so the
// pools they release into must outlive every engine. Lane i of every engine
// shares pool i — same sharing model as the default pool, but lanes of one
// engine never contend with each other.
moppkt::BufPool& LaneEmitPool(size_t lane) {
  static std::vector<std::unique_ptr<moppkt::BufPool>>* pools =
      new std::vector<std::unique_ptr<moppkt::BufPool>>();
  while (pools->size() <= lane) {
    pools->push_back(std::make_unique<moppkt::BufPool>());
  }
  return *(*pools)[lane];
}
}  // namespace

// Everything the telemetry plane owns, built only when Config::telemetry is
// on. Hot paths hold the raw histogram/gauge pointers (stable: the Registry
// stores entries behind unique_ptr), guarded by a single `if (telemetry_)`.
struct MopEyeEngine::Telemetry {
  moptel::Registry registry;
  moptel::FlightRecorder recorder;
  // Relay pipeline stage timings, milliseconds.
  moptel::Histogram* stage_dispatch = nullptr;      // read-queue residency
  moptel::Histogram* stage_parse = nullptr;         // parse (+inspection) cost
  moptel::Histogram* stage_tcp = nullptr;           // socket-event sm processing
  moptel::Histogram* stage_socket_write = nullptr;  // staged flush to server
  moptel::Histogram* stage_socket_read = nullptr;   // server->app read cost
  moptel::Histogram* stage_dns = nullptr;           // DNS temp-thread setup
  moptel::Histogram* stage_tun_read = nullptr;      // TunReader per-read cost
  moptel::Histogram* stage_tun_write = nullptr;     // TunWriter drain bursts
  moptel::Gauge* lane_clients_high_water = nullptr;
  // Per-tun-queue gathered-flush timings (mopeye_tun_queue_flush_q<i>_ms),
  // one histogram per queue; empty when Config::tun_queues == 1.
  std::vector<moptel::Histogram*> queue_flush;
  // Read-queue high water last traced per lane (flight-recorder dedup).
  std::vector<size_t> read_queue_hw_seen;

  explicit Telemetry(size_t lanes)
      : registry(lanes), recorder(lanes), read_queue_hw_seen(lanes, 0) {}
};

MopEyeEngine::MopEyeEngine(mopdroid::AndroidDevice* device, Config config)
    : device_(device),
      config_(std::move(config)),
      loop_(device->loop()),
      rng_(device->rng().Fork()) {
  MOP_CHECK(device != nullptr);
  MOP_CHECK(config_.worker_lanes >= 1) << "worker_lanes must be >= 1";
  MOP_CHECK(config_.tun_queues >= 1) << "tun_queues must be >= 1";
  for (int i = 0; i < config_.worker_lanes; ++i) {
    // Lane 0 of a single-lane engine keeps the historical thread name.
    std::string name = config_.worker_lanes == 1 ? "MainWorker"
                                                 : "MainWorker-" + std::to_string(i);
    lanes_.push_back(std::make_unique<WorkerLane>(loop_, std::move(name),
                                                  &LaneEmitPool(static_cast<size_t>(i))));
    lanes_.back()->index = static_cast<size_t>(i);
  }
  device_->package_manager().Install(kMopEyeUid, "com.mopeye", "MopEye");
  mapper_ = std::make_unique<PacketToAppMapper>(device_, &config_);
  if (config_.telemetry) {
    BuildTelemetry();
  }
}

void MopEyeEngine::BuildTelemetry() {
  telemetry_ = std::make_unique<Telemetry>(lanes_.size());
  moptel::Registry& reg = telemetry_->registry;

  // Engine relay counters live in the per-lane Counters structs (the relay
  // hot paths already increment them); the registry reads them through
  // external lane counters so exposition and the structs can never diverge.
#define MOPEYE_REGISTER_ENGINE_COUNTER(name)                              \
  reg.AddExternalLaneCounter("mopeye_engine_" #name "_total",             \
                             "Engine relay counter: " #name,              \
                             [this](size_t lane) {                        \
                               return lanes_[lane]->counters.name;        \
                             });
  MOPEYE_ENGINE_COUNTER_FIELDS(MOPEYE_REGISTER_ENGINE_COUNTER)
#undef MOPEYE_REGISTER_ENGINE_COUNTER

  telemetry_->lane_clients_high_water = reg.AddGauge(
      "mopeye_engine_lane_clients_high_water",
      "Peak concurrent relay clients on any one lane", moptel::GaugeMerge::kMax);
  reg.AddExternalGauge("mopeye_engine_clients_high_water",
                       "Peak concurrent relay clients across the whole engine",
                       [this] { return static_cast<uint64_t>(clients_global_high_water_); });
  reg.AddExternalGauge("mopeye_engine_active_clients",
                       "Currently live relay clients",
                       [this] { return static_cast<uint64_t>(active_clients()); });

  // Relay pipeline stage timings (milliseconds of modeled cost).
  telemetry_->stage_tun_read =
      reg.AddHistogram("mopeye_relay_stage_tun_read_ms",
                       "TunReader per-read() syscall cost");
  telemetry_->stage_dispatch =
      reg.AddHistogram("mopeye_relay_stage_dispatch_ms",
                       "Read-queue residency: tun enqueue to lane pickup");
  telemetry_->stage_parse =
      reg.AddHistogram("mopeye_relay_stage_parse_ms",
                       "Packet parse (+ content inspection) cost");
  telemetry_->stage_tcp =
      reg.AddHistogram("mopeye_relay_stage_tcp_ms",
                       "Socket-event state-machine processing cost");
  telemetry_->stage_socket_write =
      reg.AddHistogram("mopeye_relay_stage_socket_write_ms",
                       "Staged app-to-server socket write cost");
  telemetry_->stage_socket_read =
      reg.AddHistogram("mopeye_relay_stage_socket_read_ms",
                       "Server-to-app socket read cost");
  telemetry_->stage_dns =
      reg.AddHistogram("mopeye_relay_stage_dns_ms",
                       "DNS temp-thread spawn + message processing cost");
  telemetry_->stage_tun_write =
      reg.AddHistogram("mopeye_relay_stage_tun_write_ms",
                       "TunWriter per-drain tunnel write cost");

  // Buffer-pool shards (one pool per lane).
  reg.AddExternalLaneCounter("mopeye_bufpool_acquires_total",
                             "Pool buffer acquisitions",
                             [this](size_t lane) { return lanes_[lane]->pool->stats().acquires; });
  reg.AddExternalLaneCounter("mopeye_bufpool_slab_allocs_total",
                             "Fresh slab allocations (pool misses)",
                             [this](size_t lane) { return lanes_[lane]->pool->stats().slab_allocs; });
  reg.AddExternalLaneCounter("mopeye_bufpool_oversize_allocs_total",
                             "Oversize buffers allocated outside the pool",
                             [this](size_t lane) { return lanes_[lane]->pool->stats().oversize_allocs; });
  reg.AddExternalLaneCounter("mopeye_bufpool_copies_total",
                             "Buffer copies (always 0: PacketBuf is move-only)",
                             [this](size_t lane) { return lanes_[lane]->pool->stats().copies; });

  // Tun device / reader / writer. These objects come up in Start(), so the
  // readers null-guard; a scrape before Start() reports zeros.
  reg.AddExternalCounter("mopeye_tun_packets_out_total",
                         "Packets the apps wrote into the tunnel",
                         [this] { return vpn_ && vpn_->tun() ? vpn_->tun()->packets_out() : 0; });
  reg.AddExternalCounter("mopeye_tun_packets_in_total",
                         "Packets MopEye wrote back toward the apps",
                         [this] { return vpn_ && vpn_->tun() ? vpn_->tun()->packets_in() : 0; });
  reg.AddExternalCounter("mopeye_tun_bytes_out_total",
                         "Bytes the apps wrote into the tunnel",
                         [this] { return vpn_ && vpn_->tun() ? vpn_->tun()->bytes_out() : 0; });
  reg.AddExternalCounter("mopeye_tun_bytes_in_total",
                         "Bytes MopEye wrote back toward the apps",
                         [this] { return vpn_ && vpn_->tun() ? vpn_->tun()->bytes_in() : 0; });
  reg.AddExternalGauge("mopeye_tun_outgoing_high_water",
                       "Peak depth of the tun outgoing queue",
                       [this] {
                         return vpn_ && vpn_->tun()
                                    ? static_cast<uint64_t>(vpn_->tun()->outgoing_high_water())
                                    : 0;
                       });
  // Multi-queue egress (thread model v4): per-queue flush timings and
  // delivery tallies. Registered only when several queues are attached, so
  // the single-queue exposition (and fleet scrape agreement) is unchanged.
  if (config_.tun_queues > 1) {
    size_t queues = static_cast<size_t>(config_.tun_queues);
    telemetry_->queue_flush.resize(queues, nullptr);
    for (size_t q = 0; q < queues; ++q) {
      std::string qs = std::to_string(q);
      telemetry_->queue_flush[q] =
          reg.AddHistogram("mopeye_tun_queue_flush_q" + qs + "_ms",
                           "Gathered lane flush cost on tun queue " + qs);
      reg.AddExternalCounter(
          "mopeye_tun_queue_packets_in_q" + qs + "_total",
          "Packets MopEye wrote toward the apps through tun queue " + qs,
          [this, q] { return vpn_ && vpn_->tun() ? vpn_->tun()->queue_packets_in(q) : 0; });
      reg.AddExternalCounter(
          "mopeye_tun_queue_packets_out_q" + qs + "_total",
          "App packets the kernel routed into tun queue " + qs,
          [this, q] { return vpn_ && vpn_->tun() ? vpn_->tun()->queue_packets_out(q) : 0; });
      reg.AddExternalGauge(
          "mopeye_tun_queue_outgoing_high_water_q" + qs,
          "Peak depth of tun queue " + qs + "'s outgoing FIFO",
          [this, q] {
            return vpn_ && vpn_->tun()
                       ? static_cast<uint64_t>(vpn_->tun()->queue_high_water(q))
                       : 0;
          });
    }
  }
  reg.AddExternalCounter("mopeye_tun_reader_packets_total",
                         "Packets the TunReader pulled off the tun fd",
                         [this] { return reader_ ? reader_->packets_read() : 0; });
  reg.AddExternalCounter("mopeye_tun_reader_empty_polls_total",
                         "Reader polls that found no packet (sleeping modes)",
                         [this] { return reader_ ? reader_->empty_polls() : 0; });
  reg.AddExternalCounter("mopeye_tun_reader_steals_total",
                         "Elephant-flow steals the reader brokered",
                         [this] { return reader_ ? reader_->steals() : 0; });
  reg.AddExternalCounter("mopeye_tun_writer_packets_total",
                         "Packets the TunWriter wrote to the tun fd",
                         [this] {
                           return writer_ ? static_cast<uint64_t>(writer_->packets_written()) : 0;
                         });
  reg.AddExternalCounter("mopeye_tun_writer_bursts_total",
                         "Batched TunWriter drain bursts",
                         [this] {
                           return writer_ ? static_cast<uint64_t>(writer_->write_bursts()) : 0;
                         });
  reg.AddExternalCounter("mopeye_tun_writer_waits_total",
                         "Times the queueWrite consumer parked in wait()",
                         [this] { return writer_ ? static_cast<uint64_t>(writer_->waits()) : 0; });
  reg.AddExternalCounter("mopeye_tun_writer_notifies_total",
                         "Times a producer paid the notify() wakeup",
                         [this] { return writer_ ? static_cast<uint64_t>(writer_->notifies()) : 0; });
  reg.AddExternalGauge("mopeye_tun_writer_queue_high_water",
                       "Peak depth of the TunWriter queue",
                       [this] {
                         return writer_ ? static_cast<uint64_t>(writer_->queue_high_water()) : 0;
                       });

  // Packet-to-app mapper (§3.3).
  reg.AddExternalCounter("mopeye_mapper_requests_total",
                         "Flow-to-app mapping requests",
                         [this] { return static_cast<uint64_t>(mapper_->requests()); });
  reg.AddExternalCounter("mopeye_mapper_parses_total",
                         "Mapping requests that paid a /proc parse",
                         [this] { return static_cast<uint64_t>(mapper_->parses()); });
  reg.AddExternalCounter("mopeye_mapper_parses_avoided_total",
                         "Mapping requests served without a /proc parse",
                         [this] { return static_cast<uint64_t>(mapper_->avoided()); });
  reg.AddExternalCounter("mopeye_mapper_misattributions_total",
                         "Mappings attributed to the wrong app",
                         [this] { return static_cast<uint64_t>(mapper_->misattributions()); });

  telemetry_->recorder.InstallFatalDump();
}

MopEyeEngine::~MopEyeEngine() {
  if (running_) {
    Stop();
  }
}

Config::ProtectMode MopEyeEngine::EffectiveProtectMode() const {
  if (config_.protect_mode != Config::ProtectMode::kAuto) {
    return config_.protect_mode;
  }
  return device_->sdk_version() >= mopdroid::kSdkLollipop
             ? Config::ProtectMode::kDisallowedApp
             : Config::ProtectMode::kPerSocket;
}

moputil::Status MopEyeEngine::Start() {
  MOP_CHECK(!running_);
  vpn_ = std::make_unique<mopdroid::VpnService>(device_);
  mopdroid::VpnService::Builder builder(vpn_.get());
  builder.addAddress(moppkt::IpAddr(10, 0, 0, 2))
      .addRoute(moppkt::IpAddr(0, 0, 0, 0), 0)
      .addDnsServer(device_->system_dns())
      .setSession("MopEye");
  if (EffectiveProtectMode() == Config::ProtectMode::kDisallowedApp) {
    // §3.5.2: exclude MopEye itself from the VPN once, instead of protecting
    // every socket. Invoked at initialization so no worker lane ever pays it.
    auto st = builder.addDisallowedApplication("com.mopeye");
    if (!st.ok()) {
      return st;
    }
  }
  mopdroid::TunDevice* tun = builder.establish();
  if (tun == nullptr) {
    return moputil::Internal("VpnService.establish() failed");
  }
  // Multi-queue egress (thread model v4): attach the queue fds before any
  // traffic and pin each lane to queue (index % queues). A queue owned by
  // exactly one lane is an exclusive contention domain: its flushes skip the
  // tun_write_contention draw entirely (and carry a debug-only
  // write-affinity stamp). With tun_queues == 1 every lane shares queue 0
  // and samples contention on every flush — the paper model, draw-for-draw.
  if (config_.tun_queues > 1) {
    tun->ConfigureQueues(static_cast<size_t>(config_.tun_queues));
  }
  {
    size_t queues = static_cast<size_t>(config_.tun_queues);
    std::vector<size_t> queue_writers(queues, 0);
    for (auto& lane : lanes_) {
      lane->queue = lane->index % queues;
      ++queue_writers[lane->queue];
    }
    for (auto& lane : lanes_) {
      lane->queue_exclusive = queues > 1 && queue_writers[lane->queue] == 1;
    }
  }

  std::vector<TunReader::LaneSink> sinks;
  sinks.reserve(lanes_.size());
  for (auto& lane : lanes_) {
    WorkerLane* l = lane.get();
    l->selector.on_wakeup = [this, l] { OnSelectorWakeup(*l); };
    sinks.push_back(TunReader::LaneSink{&l->read_queue, &l->selector, &l->lane});
  }
  reader_ = std::make_unique<TunReader>(loop_, tun, &config_, rng_.Fork(),
                                        std::move(sinks));
  if (config_.steal_enabled && lanes_.size() > 1) {
    steal_board_ = std::make_unique<mopcc::StealBoard<moppkt::FlowKey>>(lanes_.size());
    reader_->set_steal_board(steal_board_.get());
  }
  writer_ = std::make_unique<TunWriter>(loop_, tun, &config_, rng_.Fork());
  if (lanes_.size() == 1) {
    // Single-lane: the lane continues the engine's own stream, making the
    // thread-model-v2 engine draw-for-draw identical to the historical
    // single-MainWorker engine (the bench baselines depend on this).
    lanes_[0]->rng = rng_;
  } else {
    for (auto& lane : lanes_) {
      lane->rng = rng_.Fork();
    }
  }
  if (telemetry_) {
    reader_->set_stage_histogram(telemetry_->stage_tun_read);
    writer_->set_stage_histogram(telemetry_->stage_tun_write);
    telemetry_->recorder.Record(0, loop_->Now(), moptel::TraceKind::kLifecycle,
                                "engine-start", lanes_.size());
  }
  reader_->Start();
  running_ = true;
  for (const auto& service : services_) {
    service->OnEngineStart();
  }
  return moputil::OkStatus();
}

void MopEyeEngine::RegisterService(std::shared_ptr<EngineService> service) {
  MOP_CHECK(service != nullptr);
  services_.push_back(std::move(service));
  if (telemetry_) {
    services_.back()->RegisterMetrics(&telemetry_->registry);
  }
  if (running_) {
    services_.back()->OnEngineStart();
  }
}

EngineService* MopEyeEngine::FindService(std::string_view name) const {
  for (const auto& service : services_) {
    if (service->service_name() == name) {
      return service.get();
    }
  }
  return nullptr;
}

void MopEyeEngine::Stop() {
  if (!running_) {
    return;
  }
  running_ = false;
  if (telemetry_) {
    telemetry_->recorder.Record(0, loop_->Now(), moptel::TraceKind::kLifecycle,
                                "engine-stop", active_clients());
  }
  // Services flush first, while the loop is still fully alive: the
  // uploader's final batch is drained from the store here and delivered by
  // event-loop callbacks after Stop() returns.
  for (const auto& service : services_) {
    service->OnEngineStop();
  }
  reader_->RequestStop();
  if (config_.read_mode == Config::TunReadMode::kBlocking) {
    // Release the blocked read() (§3.1). On 5.0+ MopEye's own packets no
    // longer traverse the tunnel (it is a disallowed app), so it triggers a
    // DownloadManager request; below 5.0 it writes a self packet.
    if (EffectiveProtectMode() == Config::ProtectMode::kDisallowedApp) {
      device_->DownloadManagerEnqueue();
    } else if (vpn_->tun() != nullptr) {
      moppkt::TcpSegmentSpec dummy;
      dummy.src_port = 1;
      dummy.dst_port = 1;
      dummy.flags = moppkt::RstFlag();
      vpn_->tun()->InjectOutgoing(moppkt::BuildTcpDatagram(
          dummy, vpn_->tun_address(), moppkt::IpAddr(127, 0, 0, 1)));
    }
  }
  writer_->Stop();
  // Tear the VPN down shortly after the dummy packet releases the reader.
  loop_->Schedule(moputil::Millis(10), [this] {
    if (vpn_) {
      vpn_->Stop();
    }
  });
  // Drop relay state; external channels reset.
  for (auto& lane : lanes_) {
    for (auto& [flow, client] : lane->clients) {
      if (client->kernel_handle != 0) {
        device_->conn_table().Unregister(client->kernel_handle);
        client->kernel_handle = 0;
      }
      if (client->connect_lane) {
        retired_worker_busy_ += client->connect_lane->busy_time();
        ++retired_worker_count_;
      }
      if (client->channel) {
        client->channel->Deregister();
        client->channel->Reset();
      }
    }
    lane->clients.clear();
    lane->by_channel.clear();
    for (auto& [flow, udp] : lane->udp_clients) {
      if (udp->kernel_handle != 0) {
        device_->conn_table().Unregister(udp->kernel_handle);
      }
      if (udp->lane) {
        retired_worker_busy_ += udp->lane->busy_time();
        ++retired_worker_count_;
      }
    }
    lane->udp_clients.clear();
    lane->arriving.clear();
    lane->parked.clear();
    lane->write_gather.clear();
  }
  // Lanes were cleared without RemoveClient, so the live count resets here.
  clients_live_ = 0;
}

MopEyeEngine::Counters MopEyeEngine::counters() const {
  Counters total;
  for (const auto& lane : lanes_) {
    total += lane->counters;
  }
  return total;
}

const MopEyeEngine::Counters& MopEyeEngine::lane_counters(size_t lane) const {
  MOP_CHECK(lane < lanes_.size());
  return lanes_[lane]->counters;
}

size_t MopEyeEngine::active_clients() const {
  size_t n = 0;
  for (const auto& lane : lanes_) {
    n += lane->clients.size();
  }
  return n;
}

MopEyeEngine::ResourceUsage MopEyeEngine::resources() const {
  ResourceUsage u;
  if (reader_) {
    u.busy_reader = reader_->busy_time();
  }
  if (writer_) {
    u.busy_writer = writer_->writer_busy_time();
  }
  size_t read_queue_high_water = 0;  // moplint-allow: raw-counter (local sum)
  for (const auto& lane : lanes_) {
    u.busy_main += lane->lane.busy_time();
    read_queue_high_water += lane->read_queue.high_water();
  }
  u.busy_workers = retired_worker_busy_;
  for (const auto& lane : lanes_) {
    for (const auto& [flow, client] : lane->clients) {
      if (client->connect_lane) {
        u.busy_workers += client->connect_lane->busy_time();
      }
    }
    for (const auto& [flow, udp] : lane->udp_clients) {
      if (udp->lane) {
        u.busy_workers += udp->lane->busy_time();
      }
    }
  }
  // Memory model: per-client socket read+write buffers (§3.4 sizes them at
  // 64 KiB), queue high-water, and a fixed service overhead.
  size_t per_client = 2 * kSocketBuffer + 1024 + config_.extra_memory_per_client;
  size_t peak_clients = std::max(counters().clients_high_water, active_clients());
  u.memory_bytes = 10 * 1024 * 1024                      // service heap + runtime-resident
                   + config_.extra_memory_base           // inspection buffers / caches
                   + peak_clients * per_client           // relay clients
                   + read_queue_high_water * 1600        // read queue packets
                   + (writer_ ? writer_->queue_high_water() * 1600 : 0);
  return u;
}

// ---------------- Worker lanes ----------------

void MopEyeEngine::OnSelectorWakeup(WorkerLane& lane) {
  // select() returns on this lane's thread after the dispatch latency.
  lane.lane.Submit(config_.costs.selector_dispatch->Sample(lane.rng), moputil::Micros(3),
                   [this, l = &lane] { DrainEvents(*l); });
}

void MopEyeEngine::DrainEvents(WorkerLane& lane) {
  if (!running_) {
    return;
  }
  mopcc::LaneScope lane_scope(lane.index);
  lane.affinity.Check();
  // Overload check before the queue drains into lane tasks: the backlog the
  // steal policy wants to shed is exactly what accumulated since the last
  // dispatch.
  if (steal_board_) {
    MaybePublishSteal(lane);
  }
  // §3.2: one waiting point serves both queues; we interleave processing of
  // socket events and tunnel packets so neither starves.
  std::vector<mopnet::ReadyEvent> events = lane.selector.TakeReady();
  size_t ei = 0;
  bool more = true;
  while (more) {
    more = false;
    if (ei < events.size()) {
      mopnet::ReadyEvent ev = events[ei++];
      if (ev.channel != nullptr) {
        moputil::SimDuration sm_cost = config_.costs.sm_process->Sample(lane.rng);
        if (telemetry_) {
          telemetry_->stage_tcp->Observe(lane.index, moputil::ToMillis(sm_cost));
        }
        lane.lane.Submit(0, sm_cost,
                         [this, l = &lane, ev] { HandleSocketEvent(*l, ev); });
      }
      more = true;
    }
    if (!lane.read_queue.items.empty()) {
      ReadQueue::Item item = std::move(lane.read_queue.items.front());
      lane.read_queue.items.pop_front();
      switch (item.kind) {
        case ReadQueue::Kind::kPacket: {
          moputil::SimDuration cost = config_.costs.packet_parse->Sample(lane.rng);
          if (config_.content_inspection) {
            cost += config_.content_inspection->Sample(lane.rng);
          }
          if (telemetry_) {
            telemetry_->stage_dispatch->Observe(lane.index,
                                                moputil::ToMillis(loop_->Now() - item.t));
            telemetry_->stage_parse->Observe(lane.index, moputil::ToMillis(cost));
            if (lane.read_queue.high_water() > telemetry_->read_queue_hw_seen[lane.index]) {
              telemetry_->read_queue_hw_seen[lane.index] = lane.read_queue.high_water();
              telemetry_->recorder.Record(lane.index, loop_->Now(),
                                          moptel::TraceKind::kQueueHighWater,
                                          "read-queue-high-water",
                                          lane.read_queue.high_water());
            }
          }
          lane.lane.Submit(0, cost, [this, l = &lane, pkt = std::move(item.pkt)]() mutable {
            ProcessTunPacket(*l, std::move(pkt));
          });
          break;
        }
        case ReadQueue::Kind::kHandoffIn:
          // The flow is on its way here. Marked synchronously at pop: the
          // token sits ahead of every rerouted packet in this FIFO, so the
          // mark is in place before any of them is even submitted.
          lane.arriving.insert(item.flow);
          break;
        case ReadQueue::Kind::kHandoffOut: {
          // Everything this lane still owned of the flow was queued (and
          // submitted) ahead of this token; the lane-FIFO places the handoff
          // after all of it completes.
          moppkt::FlowKey flow = item.flow;
          size_t thief = item.peer_lane;
          lane.lane.Submit(0, config_.costs.enqueue->Sample(lane.rng),
                           [this, l = &lane, flow, thief] { CompleteHandoff(*l, flow, thief); });
          break;
        }
      }
      more = true;
    }
  }
}

void MopEyeEngine::ProcessTunPacket(WorkerLane& lane, moppkt::PacketBuf raw) {
  if (!running_) {
    return;
  }
  mopcc::LaneScope lane_scope(lane.index);
  lane.affinity.Check();
  if (!lane.arriving.empty()) {
    // A flow is mid-handoff to this lane: park its packets (in arrival
    // order) until the victim's side completes and InstallStolenFlow drains
    // them — processing now would touch flow state this lane does not own
    // yet. A header peek suffices; the full parse happens at the drain.
    auto flow = moppkt::PeekFlow(raw.bytes());
    if (flow.ok() && lane.arriving.count(flow.value()) != 0) {
      lane.parked[flow.value()].push_back(std::move(raw));
      ++lane.counters.steal_parked_packets;
      return;
    }
  }
  ++lane.counters.tun_packets;
  // Zero-copy parse: `pkt` is a bundle of views into `raw`'s slab, which
  // stays alive for the rest of this call (and beyond it only if a data
  // segment moves the buffer into the client's staged socket writes).
  auto parsed = moppkt::ParsePacket(raw.bytes());
  if (!parsed.ok()) {
    ++lane.counters.parse_errors;
    if (telemetry_) {
      telemetry_->recorder.Record(lane.index, loop_->Now(),
                                  moptel::TraceKind::kPacketVerdict, "parse-error",
                                  raw.size());
    }
    return;
  }
  const moppkt::ParsedPacket& pkt = parsed.value();
  if (pkt.is_tcp()) {
    if (pkt.tcp->flags.syn && !pkt.tcp->flags.ack) {
      HandleSyn(lane, pkt);
    } else {
      HandleTcpSegment(lane, pkt, std::move(raw));
    }
    return;
  }
  if (pkt.is_udp()) {
    ++lane.counters.udp_packets;
    if (pkt.udp->dst_port == 53 && config_.measure_dns) {
      HandleDnsQuery(lane, pkt);
    } else {
      HandleUdp(lane, pkt);
    }
    return;
  }
  // Non-TCP/UDP (e.g. ICMP): MopEye does not relay these.
}

std::shared_ptr<MopEyeEngine::TcpClient> MopEyeEngine::FindClient(
    WorkerLane& lane, const moppkt::FlowKey& flow) {
  auto it = lane.clients.find(flow);
  return it == lane.clients.end() ? nullptr : it->second;
}

// ---------------- TCP relay ----------------

void MopEyeEngine::HandleSyn(WorkerLane& lane, const moppkt::ParsedPacket& pkt) {
  ++lane.counters.syns;
  moppkt::FlowKey flow = pkt.flow();
  if (auto existing = FindClient(lane, flow)) {
    ++lane.counters.syn_duplicates;
    // The app's kernel retransmitted its SYN while our external connect is
    // still in flight (or our SYN/ACK crossed it). Re-answer if we can.
    if (existing->sm.state() == RelayTcpState::kSynRcvd) {
      EmitToApp(existing, existing->sm.MakeSynAckRetransmit(), &lane.lane, &lane);
    }
    return;
  }

  auto client = std::make_shared<TcpClient>(flow, &lane, lane.rng.NextU32(), kMss, kWindow);
  client->sm.NoteSyn(*pkt.tcp);
  lane.clients[flow] = client;
  lane.counters.clients_high_water =
      std::max(lane.counters.clients_high_water, lane.clients.size());
  ++clients_live_;
  if (clients_live_ > clients_global_high_water_) {
    clients_global_high_water_ = clients_live_;
    if (telemetry_) {
      telemetry_->recorder.Record(lane.index, loop_->Now(),
                                  moptel::TraceKind::kQueueHighWater,
                                  "clients-high-water", clients_live_);
    }
  }
  if (telemetry_) {
    telemetry_->lane_clients_high_water->SetMax(lane.index, lane.clients.size());
  }

  // Mapping strategy decides *where* the /proc parse happens (§3.3):
  // naive & cache block the owning lane right here; lazy defers to the
  // socket-connect thread after the handshake.
  if (config_.mapping == Config::MappingStrategy::kNaivePerSyn ||
      config_.mapping == Config::MappingStrategy::kCacheBased) {
    mapper_->Map(flow, &lane.lane, [this, client](PacketToAppMapper::Outcome out) {
      client->app = out;
      client->mapping_done = true;
      StartExternalConnect(client);
    });
  } else {
    StartExternalConnect(client);
  }
}

void MopEyeEngine::StartExternalConnect(const std::shared_ptr<TcpClient>& client) {
  // §2.4: run connect() in a temporary blocking-mode thread.
  WorkerLane* home = client->home;
  client->connect_lane = std::make_unique<mopsim::ActorLane>(loop_, "sock-connect");
  moputil::SimDuration spawn = config_.costs.thread_spawn->Sample(home->rng);
  client->connect_lane->Submit(spawn, 0, [this, client] {
    if (client->removed) {
      return;
    }
    WorkerLane* home = client->home;
    client->channel = mopnet::SocketChannel::Create(&device_->net());
    client->channel->set_owner_uid(kMopEyeUid);
    home->by_channel[client->channel.get()] = client;

    moputil::SimDuration protect_cost = 0;
    if (EffectiveProtectMode() == Config::ProtectMode::kPerSocket) {
      // §3.5.2 fallback: protect() per socket, paid on this thread so only
      // the SYN path is delayed, never the data path.
      protect_cost = vpn_->protect(*client->channel);
    }
    client->connect_lane->Submit(0, protect_cost, [this, client] {
      if (client->removed) {
        return;
      }
      WorkerLane* home = client->home;
      // MopEye's own socket appears in the kernel table too (it grows the
      // /proc files the mapper parses, as the paper notes).
      mopnet::ConnEntry entry;
      entry.proto = moppkt::IpProto::kTcp;
      entry.remote = client->flow.remote;
      entry.state = mopnet::ConnState::kSynSent;
      entry.uid = kMopEyeUid;
      entry.local = moppkt::SocketAddr{device_->net().external_ip(), 0};
      client->kernel_handle = device_->conn_table().Register(entry);

      if (config_.timestamp_mode == Config::TimestampMode::kSelector) {
        // Connect completions route back to the flow's owning lane.
        client->channel->RegisterWith(&home->selector, mopnet::kOpConnect);
      }
      // Timestamp immediately before the blocking connect() call (§4.1.1:
      // "putting the timing function just before and after the socket call").
      client->connect_t0 = loop_->Now();
      std::weak_ptr<TcpClient> weak = client;
      client->channel->Connect(client->flow.remote, [this, weak](moputil::Status st) {
        auto c = weak.lock();
        if (!c || c->removed) {
          return;
        }
        if (!st.ok()) {
          ++c->home->counters.connects_failed;
          if (telemetry_) {
            telemetry_->recorder.Record(c->home->index, loop_->Now(),
                                        moptel::TraceKind::kConnectOutcome,
                                        "connect-failed", c->flow.remote.port);
          }
          c->connect_lane->Submit(config_.costs.thread_wake->Sample(c->home->rng), 0,
                                  [this, c] {
                                    if (c->removed) {
                                      return;
                                    }
                                    EmitToApp(c, c->sm.MakeRst(), c->connect_lane.get());
                                    RemoveClient(c);
                                  });
          return;
        }
        // The connect() call returns: wake the socket-connect thread and
        // take the post-connect() timestamp there.
        c->connect_lane->Submit(config_.costs.thread_wake->Sample(c->home->rng), 0,
                                [this, c] { FinishConnect(c); });
      });
    });
  });
}

void MopEyeEngine::FinishConnect(const std::shared_ptr<TcpClient>& client) {
  if (client->removed) {
    return;
  }
  moputil::SimTime t1 = loop_->Now();
  WorkerLane* home = client->home;
  ++home->counters.connects_ok;
  if (telemetry_) {
    telemetry_->recorder.Record(home->index, loop_->Now(),
                                moptel::TraceKind::kConnectOutcome, "connect-ok",
                                static_cast<uint64_t>(t1 - client->connect_t0),
                                client->flow.remote.port);
  }
  client->external_connected = true;
  device_->conn_table().UpdateState(client->kernel_handle, mopnet::ConnState::kEstablished);

  if (config_.timestamp_mode == Config::TimestampMode::kBlockingConnectThread) {
    client->pending_rtt = t1 - client->connect_t0;
    MaybeRecordTcpMeasurement(client);
  }
  // (kSelector mode captures the RTT when the kConnected event reaches the
  // owning lane.)

  // §2.3: "Only after establishing the external connection can MopEye
  // complete the handshake with the app" — and it does so *immediately*, so
  // the app-side handshake is never delayed by mapping or registration.
  client->connect_lane->Submit(0, config_.costs.sm_process->Sample(home->rng),
                               [this, client] {
    if (client->removed) {
      return;
    }
    EmitToApp(client, client->sm.MakeSynAck(), client->connect_lane.get());

    // §3.4: register() with the selector can be expensive — run it on this
    // thread only after completing the internal handshake duties.
    moputil::SimDuration reg = config_.costs.selector_register->Sample(client->home->rng);
    client->connect_lane->Submit(0, reg, [this, client] {
      if (client->removed || !client->channel) {
        return;
      }
      if (config_.timestamp_mode != Config::TimestampMode::kSelector) {
        client->channel->RegisterWith(&client->home->selector, mopnet::kOpRead);
      } else {
        client->channel->SetInterest(mopnet::kOpRead | mopnet::kOpConnect);
      }
      if (config_.mapping == Config::MappingStrategy::kLazy) {
        // §3.3: mapping deferred to this thread, after the handshake, "thus
        // not affecting the timely TCP handshake on the application side".
        mapper_->Map(client->flow, client->connect_lane.get(),
                     [this, client](PacketToAppMapper::Outcome out) {
                       client->app = out;
                       client->mapping_done = true;
                       MaybeRecordTcpMeasurement(client);
                     });
      }
    });
  });
}

void MopEyeEngine::MaybeRecordTcpMeasurement(const std::shared_ptr<TcpClient>& client) {
  if (client->measurement_recorded || client->pending_rtt < 0 || !client->mapping_done) {
    return;
  }
  client->measurement_recorded = true;
  Measurement m;
  m.time = loop_->Now();
  m.kind = MeasureKind::kTcpConnect;
  m.rtt = client->pending_rtt;
  m.server = client->flow.remote;
  m.uid = client->app.uid;
  m.app = client->app.label;
  auto domain = device_->net().farm()->resolution().ReverseLookup(client->flow.remote.ip);
  if (domain) {
    m.domain = *domain;
  }
  m.net_type = device_->net().profile().type;
  m.isp = device_->net().profile().isp;
  m.country = device_->net().profile().country;
  m.device_id = device_->model();
  StampTrace(&m, *client->home);
  store_.Add(std::move(m));
}

void MopEyeEngine::StampTrace(Measurement* m, WorkerLane& home) {
  if (trace_device_hash_ == 0) {
    uint64_t h = 1469598103934665603ull;  // FNV-1a over the model string
    for (char c : device_->model()) {
      h = (h ^ static_cast<uint8_t>(c)) * 1099511628211ull;
    }
    trace_device_hash_ = static_cast<uint32_t>(moputil::Mix64(h) >> 32);
    if (trace_device_hash_ == 0) {
      trace_device_hash_ = 1;  // 0 means "unstamped" in TraceContext
    }
  }
  m->trace.device_hash = trace_device_hash_;
  m->trace.lane = static_cast<uint16_t>(home.index);
  m->trace.seq = ++home.trace_seq;
  m->trace.born_ns = loop_->Now();
}

void MopEyeEngine::HandleTcpSegment(WorkerLane& lane, const moppkt::ParsedPacket& pkt,
                                    moppkt::PacketBuf raw) {
  moppkt::FlowKey flow = pkt.flow();
  auto client = FindClient(lane, flow);
  if (!client) {
    ++lane.counters.unknown_flow;
    if (telemetry_) {
      telemetry_->recorder.Record(lane.index, loop_->Now(),
                                  moptel::TraceKind::kPacketVerdict, "unknown-flow",
                                  flow.remote.port);
    }
    return;
  }
  // The flow's state must live on the lane processing it ("a channel never
  // migrates lanes").
  MOP_DCHECK(client->home == &lane);
  mopcc::LaneScope lane_scope(lane.index);
  client->home->affinity.Check();
  const moppkt::TcpSegment& seg = *pkt.tcp;
  bool is_pure_ack = seg.flags.ack && !seg.flags.syn && !seg.flags.fin && !seg.flags.rst &&
                     seg.payload.empty();
  if (seg.flags.fin) {
    ++lane.counters.fins;
  }
  if (seg.flags.rst) {
    ++lane.counters.rsts;
  }
  if (!seg.payload.empty()) {
    ++lane.counters.data_segments;
  }

  TcpStateMachine::Output out = client->sm.OnAppSegment(seg);

  for (const auto& spec : out.to_app) {
    EmitToApp(client, spec, &lane.lane, &lane);
  }

  if (out.app_reset) {
    // §2.3 "TCP RST": close the external connection, drop the client object.
    if (client->channel) {
      client->channel->Reset();
    }
    RemoveClient(client);
    return;
  }

  if (!out.to_socket.empty()) {
    // §2.3 "TCP Data": stage for the socket write and trigger a write event
    // for the socket instance. `to_socket` is a view into `raw`, so the
    // pooled buffer rides along unserialized until the flush — no byte is
    // copied here.
    lane.counters.bytes_app_to_server += out.to_socket.size();
    client->socket_write_bytes += out.to_socket.size();
    client->socket_write_buf.push_back(
        TcpClient::PendingWrite{std::move(raw), out.to_socket});
    if (!client->write_event_pending && client->channel) {
      client->write_event_pending = true;
      lane.selector.TriggerWrite(client->channel);
    }
  } else if (is_pure_ack) {
    // §2.3 "Pure ACK": nothing to relay.
    ++lane.counters.pure_acks_discarded;
  }

  if (out.app_half_closed) {
    // §2.3 "TCP FIN": half-close write event for the socket instance.
    if (client->channel && client->socket_write_buf.empty()) {
      client->channel->Close();
    }
    // If data is still buffered, FlushSocketWrites closes after flushing.
  }

  if (out.fully_closed || client->sm.state() == RelayTcpState::kClosed) {
    RemoveClient(client);
  }
}

void MopEyeEngine::HandleSocketEvent(WorkerLane& lane, const mopnet::ReadyEvent& ev) {
  if (!running_ || ev.channel == nullptr) {
    return;
  }
  auto it = lane.by_channel.find(ev.channel.get());
  if (it == lane.by_channel.end()) {
    return;
  }
  auto client = it->second.lock();
  if (!client || client->removed) {
    return;
  }
  WorkerLane* owner = client->migrating ? client->migrate_target : client->home;
  if (owner != &lane) {
    // The flow was re-homed (work stealing) while this event task sat in our
    // queue. Forward it: the owner's lane-FIFO lands it after the install,
    // so it runs against fully migrated state.
    owner->lane.Submit(0, 0, [this, owner, ev] { HandleSocketEvent(*owner, ev); });
    return;
  }
  MOP_DCHECK(client->home == &lane);
  mopcc::LaneScope lane_scope(lane.index);
  client->home->affinity.Check();
  switch (ev.type) {
    case mopnet::SocketEventType::kConnected: {
      if (config_.timestamp_mode == Config::TimestampMode::kSelector) {
        // Ablation: the event-notification timestamp the paper rejects —
        // inflated by selector dispatch and lane queueing.
        client->pending_rtt = loop_->Now() - client->connect_t0;
        MaybeRecordTcpMeasurement(client);
      }
      break;
    }
    case mopnet::SocketEventType::kConnectFailed:
      break;  // the blocking-connect callback already handled failure
    case mopnet::SocketEventType::kReadable:
      ++lane.counters.socket_read_events;
      HandleSocketReadable(client);
      break;
    case mopnet::SocketEventType::kWritable:
      client->write_event_pending = false;
      FlushSocketWrites(client);
      break;
    case mopnet::SocketEventType::kPeerClosed: {
      // §2.3 "Socket Read" close case: FIN toward the app.
      if (client->channel && client->channel->available() > 0) {
        HandleSocketReadable(client);  // drain remaining data first
      }
      RelayTcpState s = client->sm.state();
      if (s == RelayTcpState::kEstablished || s == RelayTcpState::kSynRcvd ||
          s == RelayTcpState::kCloseWait) {
        EmitToApp(client, client->sm.MakeFin(), &lane.lane, &lane);
      }
      if (client->sm.state() == RelayTcpState::kClosed) {
        RemoveClient(client);
      }
      break;
    }
    case mopnet::SocketEventType::kReset: {
      EmitToApp(client, client->sm.MakeRst(), &lane.lane, &lane);
      RemoveClient(client);
      break;
    }
  }
}

void MopEyeEngine::FlushSocketWrites(const std::shared_ptr<TcpClient>& client) {
  if (!client->channel || client->socket_write_buf.empty()) {
    return;
  }
  WorkerLane* home = client->home;
  // Gather the staged spans into the socket's buffer in one pass; the pooled
  // packets they point into return to the pool as the deque clears.
  std::vector<uint8_t> data;
  data.reserve(client->socket_write_bytes);
  for (const auto& pending : client->socket_write_buf) {
    data.insert(data.end(), pending.data.begin(), pending.data.end());
  }
  // Gathered egress with coalescing on counts the per-packet ACKs that the
  // write's one cumulative ACK stands in for: all but its last data packet's.
  const uint64_t coalesced =
      config_.lane_tun_write && config_.ack_coalescing ? client->socket_write_buf.size() - 1 : 0;
  client->socket_write_buf.clear();
  client->socket_write_bytes = 0;
  moputil::SimDuration cost = config_.costs.socket_op->Sample(home->rng);
  if (telemetry_) {
    telemetry_->stage_socket_write->Observe(home->index, moputil::ToMillis(cost));
  }
  home->lane.Submit(0, cost, [this, client, data = std::move(data), coalesced]() mutable {
    if (client->removed || !client->channel) {
      return;
    }
    if (client->channel->state() != mopnet::ChannelState::kConnected &&
        client->channel->state() != mopnet::ChannelState::kPeerClosed) {
      return;
    }
    client->channel->Write(std::move(data));
    // §2.3 "Socket Write": after pushing the buffer to the server, instruct
    // the state machine to ACK the app — one cumulative ACK for the write.
    EmitToApp(client, client->sm.MakeAck(), &client->home->lane, client->home);
    client->home->counters.acks_coalesced += coalesced;
    // Half-close deferred until the buffer flushed.
    if (client->sm.state() == RelayTcpState::kCloseWait ||
        client->sm.state() == RelayTcpState::kLastAck) {
      client->channel->Close();
    }
  });
}

void MopEyeEngine::HandleSocketReadable(const std::shared_ptr<TcpClient>& client) {
  if (!client->channel || client->removed) {
    return;
  }
  WorkerLane* home = client->home;
  // §2.3 "Socket Read": pull from the (64 KiB) read buffer and construct data
  // packets for the internal connection. The read lands straight in the
  // buffer the lane task carries.
  std::vector<uint8_t> buf(std::min(client->channel->available(), kSocketBuffer));
  size_t n = client->channel->Read(buf);
  if (n == 0) {
    return;
  }
  home->counters.bytes_server_to_app += n;
  moputil::SimDuration cost = config_.costs.socket_op->Sample(home->rng);
  if (config_.content_inspection) {
    // Inspect each MSS-sized chunk of the server's data.
    for (size_t off = 0; off < n; off += kMss) {
      cost += config_.content_inspection->Sample(home->rng);
    }
  }
  if (telemetry_) {
    telemetry_->stage_socket_read->Observe(home->index, moputil::ToMillis(cost));
  }
  home->lane.Submit(0, cost, [this, client, buf = std::move(buf)]() mutable {
    if (client->removed) {
      return;
    }
    auto specs = client->sm.MakeData(buf);
    for (const auto& spec : specs) {
      EmitToApp(client, spec, &client->home->lane, client->home);
    }
    // More may have arrived while we processed; keep draining.
    if (client->channel && client->channel->available() > 0) {
      HandleSocketReadable(client);
    }
  });
}

void MopEyeEngine::EmitToApp(const std::shared_ptr<TcpClient>& client,
                             const moppkt::TcpSegmentSpec& spec,
                             mopsim::ActorLane* producer, WorkerLane* gather) {
  moppkt::PacketBuf datagram =
      client->home->pool->AcquireSized(20 + moppkt::TcpSegmentBytes(spec));
  size_t n;
  if (moppkt::TcpPacketTemplate::Covers(spec)) {
    // Steady state (data/ACK/FIN/RST): stamp the per-flow template — header
    // image memcpy + incremental checksums, no full rebuild.
    n = client->tmpl.EmitSpec(spec, client->ip_id++, datagram.writable());
  } else {
    // SYN/ACK carries options; built in place once per connection.
    n = moppkt::BuildTcpDatagramInto(spec, client->flow.remote.ip, client->flow.local.ip,
                                     client->ip_id++, /*ttl=*/64, datagram.writable());
  }
  datagram.set_size(n);
  EmitRawToApp(std::move(datagram), producer, gather);
}

void MopEyeEngine::EmitRawToApp(moppkt::PacketBuf datagram, mopsim::ActorLane* producer,
                                WorkerLane* gather) {
  if (gather != nullptr && config_.lane_tun_write) {
    GatherLaneWrite(*gather, std::move(datagram));
    return;
  }
  moputil::SimDuration overhead = writer_->SubmitPacket(std::move(datagram));
  if (producer != nullptr) {
    producer->Occupy(0, overhead);
  }
}

void MopEyeEngine::GatherLaneWrite(WorkerLane& lane, moppkt::PacketBuf datagram) {
  lane.write_gather.push_back(std::move(datagram));
  if (lane.write_flush_pending) {
    return;
  }
  // Behind the current task chain, so everything the task emits — a whole
  // MakeData batch, say — leaves in one gathered write.
  lane.write_flush_pending = true;
  lane.lane.Submit(0, 0, [this, l = &lane] { FlushLaneWrites(*l); });
}

void MopEyeEngine::FlushLaneWrites(WorkerLane& lane) {
  if (!running_ || lane.write_gather.empty()) {
    lane.write_flush_pending = false;
    return;
  }
  mopcc::LaneScope scope(lane.index);
  lane.affinity.Check();
  std::vector<moppkt::PacketBuf> burst;
  burst.swap(lane.write_gather);
  const CostModels& costs = config_.costs;
  // One gathered write() on this lane's own tun queue fd: syscall +
  // per-iovec marginal cost, plus the stochastic within-queue stall — but
  // only when another lane shares the queue. An exclusively-owned queue
  // (lanes <= tun_queues) never draws from the contention mixture; the
  // single-queue paper model always does, draw-for-draw as before.
  moputil::SimDuration cost = costs.tun_write_syscall->Sample(lane.rng);
  if (!lane.queue_exclusive) {
    cost += costs.tun_write_contention->Sample(lane.rng);
  }
  for (size_t i = 1; i < burst.size(); ++i) {
    cost += costs.tun_write_batch_extra->Sample(lane.rng);
  }
  ++lane.counters.lane_write_bursts;
  lane.counters.lane_write_packets += burst.size();
  if (telemetry_) {
    telemetry_->stage_tun_write->Observe(lane.index, moputil::ToMillis(cost));
    if (!telemetry_->queue_flush.empty()) {
      telemetry_->queue_flush[lane.queue]->Observe(lane.index, moputil::ToMillis(cost));
    }
  }
  mopdroid::TunDevice* tun = vpn_ ? vpn_->tun() : nullptr;
  if (tun != nullptr && lane.queue_exclusive) {
    // Debug-only: stamp this lane as the queue's sole writer; a flush to a
    // queue the lane does not own aborts instead of silently contending.
    tun->CheckQueueWriteAffinity(lane.queue);
  }
  lane.lane.Submit(0, cost, [this, l = &lane, tun, burst = std::move(burst)]() mutable {
    if (tun != nullptr && !tun->closed()) {
      for (auto& packet : burst) {
        tun->WriteIncoming(l->queue, std::move(packet));
      }
    }
    if (!l->write_gather.empty()) {
      FlushLaneWrites(*l);
    } else {
      l->write_flush_pending = false;
    }
  });
}

void MopEyeEngine::RemoveClient(const std::shared_ptr<TcpClient>& client) {
  if (client->removed) {
    return;
  }
  client->removed = true;
  WorkerLane* home = client->home;
  if (client->kernel_handle != 0) {
    device_->conn_table().Unregister(client->kernel_handle);
    client->kernel_handle = 0;
  }
  if (client->connect_lane) {
    retired_worker_busy_ += client->connect_lane->busy_time();
    ++retired_worker_count_;
  }
  if (client->channel) {
    home->by_channel.erase(client->channel.get());
    client->channel->Deregister();
    if (client->channel->state() != mopnet::ChannelState::kClosed &&
        client->channel->state() != mopnet::ChannelState::kFailed) {
      client->channel->Close();
    }
  }
  bool tracked = home->clients.erase(client->flow) > 0;
  if (!tracked && client->migrating) {
    // Mid-handoff: CompleteHandoff already pulled the client out of the
    // victim's table, but it is still live until now. InstallStolenFlow sees
    // `removed` and skips the re-insert.
    tracked = true;
  }
  if (tracked && clients_live_ > 0) {
    // Guarded: Stop() clears the lane maps directly and zeroes the count, so
    // a straggling closure removing a Stop()-cleared client must not
    // underflow it.
    --clients_live_;
  }
}

// ---------------- Elephant-flow work stealing ----------------

void MopEyeEngine::MaybePublishSteal(WorkerLane& lane) {
  const auto& items = lane.read_queue.items;
  if (items.size() < kStealQueueThreshold) {
    return;
  }
  if (steal_board_->pending(lane.index)) {
    return;  // an earlier offer is still unjudged
  }
  // Hottest TCP flow among the queued packets. Flows already mid-arrival
  // here are excluded: this lane does not own them yet, so it cannot offer
  // them onward. The scan only runs past the overload threshold, so the
  // steady state never pays for the map.
  std::unordered_map<moppkt::FlowKey, size_t, moppkt::FlowKeyHash> counts;
  const moppkt::FlowKey* best = nullptr;
  size_t best_count = 0;
  for (const ReadQueue::Item& item : items) {
    if (item.kind != ReadQueue::Kind::kPacket || !item.flow_valid ||
        item.flow.proto != moppkt::IpProto::kTcp) {
      continue;
    }
    if (!lane.arriving.empty() && lane.arriving.count(item.flow) != 0) {
      continue;
    }
    size_t c = ++counts[item.flow];
    if (c > best_count) {
      best_count = c;
      best = &item.flow;
    }
  }
  if (best == nullptr) {
    return;
  }
  steal_board_->Publish(lane.index, *best, items.size());
}

void MopEyeEngine::CompleteHandoff(WorkerLane& victim, const moppkt::FlowKey& flow,
                                   size_t thief_index) {
  if (!running_) {
    return;
  }
  mopcc::LaneScope lane_scope(victim.index);
  victim.affinity.Check();
  ++victim.counters.steal_handoffs;
  WorkerLane& thief = *lanes_[thief_index];
  std::shared_ptr<TcpClient> client;
  auto it = victim.clients.find(flow);
  if (it != victim.clients.end()) {
    client = it->second;
    victim.clients.erase(it);
    client->migrating = true;
    client->migrate_target = &thief;
  }
  // Install on the thief even when the client died in the window: the thief
  // must clear its arriving marker and drain the parked packets either way.
  size_t victim_index = victim.index;
  thief.lane.Submit(0, config_.costs.enqueue->Sample(victim.rng),
                    [this, t = &thief, victim_index, flow, client = std::move(client)] {
                      InstallStolenFlow(*t, victim_index, flow, client);
                    });
}

void MopEyeEngine::InstallStolenFlow(WorkerLane& thief, size_t victim_index,
                                     const moppkt::FlowKey& flow,
                                     std::shared_ptr<TcpClient> client) {
  if (!running_) {
    return;
  }
  mopcc::LaneScope lane_scope(thief.index);
  thief.affinity.Check();
  if (client && !client->removed) {
    client->home = &thief;
    client->migrating = false;
    client->migrate_target = nullptr;
    thief.clients[flow] = client;
    thief.counters.clients_high_water =
        std::max(thief.counters.clients_high_water, thief.clients.size());
    if (telemetry_) {
      telemetry_->lane_clients_high_water->SetMax(thief.index, thief.clients.size());
    }
    if (client->channel) {
      thief.by_channel[client->channel.get()] = client;
      // Re-point the channel at this lane's waiting point; its pending
      // events move with it, so none are lost across the re-homing.
      client->channel->MigrateTo(&thief.selector);
      // The victim's stale by_channel entry goes away on the victim's own
      // context. Every straggler event task was submitted there before this
      // cleanup (tasks are atomic; once the channel migrated, the victim's
      // selector can produce no more), so the FIFO forwards them all first.
      WorkerLane* victim = lanes_[victim_index].get();
      victim->lane.Submit(0, 0, [victim, client] {
        victim->by_channel.erase(client->channel.get());
      });
    }
  } else if (client) {
    client->migrating = false;
    client->migrate_target = nullptr;
  }
  // Drain the packets parked behind the kHandoffIn token, in arrival order.
  // Their parse cost was already paid when each was popped and parked.
  thief.arriving.erase(flow);
  auto parked_it = thief.parked.find(flow);
  if (parked_it != thief.parked.end()) {
    std::deque<moppkt::PacketBuf> parked = std::move(parked_it->second);
    thief.parked.erase(parked_it);
    for (moppkt::PacketBuf& raw : parked) {
      ProcessTunPacket(thief, std::move(raw));
    }
  }
  if (reader_) {
    reader_->NoteHandoffComplete(flow);
  }
}

// ---------------- UDP / DNS relay ----------------

void MopEyeEngine::HandleDnsQuery(WorkerLane& lane, const moppkt::ParsedPacket& pkt) {
  ++lane.counters.dns_queries;
  moppkt::FlowKey flow = pkt.flow();
  // View-based peek: the measurement only needs the first question's name,
  // so the relay reads it straight out of the pooled packet instead of
  // heap-building a full DnsMessage per query.
  moppkt::DnsQueryView query;
  std::string domain;
  if (moppkt::PeekDnsQuery(pkt.udp->payload, &query).ok() && query.qdcount > 0) {
    domain.assign(query.name_view());
  }

  // §2.4: the whole DNS processing runs in a temporary thread so parsing and
  // socket setup never block the owning lane.
  auto udp = std::make_shared<UdpClient>();
  udp->flow = flow;
  udp->home = &lane;
  udp->is_dns = true;
  udp->query_domain = domain;
  udp->lane = std::make_unique<mopsim::ActorLane>(loop_, "dns-worker");
  lane.udp_clients[flow] = udp;

  std::vector<uint8_t> payload(pkt.udp->payload.begin(), pkt.udp->payload.end());
  moputil::SimDuration setup = config_.costs.thread_spawn->Sample(lane.rng) +
                               config_.costs.dns_process->Sample(lane.rng);
  if (telemetry_) {
    telemetry_->stage_dns->Observe(lane.index, moputil::ToMillis(setup));
  }
  udp->lane->Submit(setup, 0, [this, udp, payload = std::move(payload)]() mutable {
    udp->socket = mopnet::UdpSocket::Create(&device_->net());
    udp->socket->set_owner_uid(kMopEyeUid);
    if (EffectiveProtectMode() == Config::ProtectMode::kPerSocket) {
      udp->lane->Occupy(0, vpn_->protect(*udp->socket));
    }
    moppkt::SocketAddr resolver = udp->flow.remote;
    std::weak_ptr<UdpClient> weak = udp;
    udp->socket->on_datagram = [this, weak](const moppkt::SocketAddr& from,
                                            std::vector<uint8_t> response) {
      auto u = weak.lock();
      if (!u) {
        return;
      }
      // Blocking-mode receive: timestamp on the DNS thread's wakeup (§2.4).
      u->lane->Submit(config_.costs.thread_wake->Sample(u->home->rng), 0,
                      [this, u, from, response = std::move(response)]() mutable {
                        ++u->home->counters.dns_responses;
                        Measurement m;
                        m.time = loop_->Now();
                        m.kind = MeasureKind::kDns;
                        m.rtt = m.time - u->query_t0;
                        m.uid = -1;  // DNS is system-wide; no app mapping
                        m.app = "(dns)";
                        m.domain = u->query_domain;
                        m.server = from;
                        m.net_type = device_->net().profile().type;
                        m.isp = device_->net().profile().isp;
                        m.country = device_->net().profile().country;
                        m.device_id = device_->model();
                        StampTrace(&m, *u->home);
                        store_.Add(std::move(m));
                        // Relay the answer back through the tunnel.
                        moppkt::PacketBuf datagram =
                            u->home->pool->AcquireSized(28 + response.size());
                        datagram.set_size(moppkt::BuildUdpDatagramInto(
                            u->flow.remote.port, u->flow.local.port, response,
                            u->flow.remote.ip, u->flow.local.ip, u->ip_id++,
                            datagram.writable()));
                        EmitRawToApp(std::move(datagram), u->lane.get());
                        // Temporary DNS client retires.
                        retired_worker_busy_ += u->lane->busy_time();
                        ++retired_worker_count_;
                        u->home->udp_clients.erase(u->flow);
                      });
    };
    // Timestamp right before the send() socket call (§2.4).
    udp->query_t0 = loop_->Now();
    udp->socket->SendTo(resolver, std::move(payload));
  });
}

void MopEyeEngine::HandleUdp(WorkerLane& lane, const moppkt::ParsedPacket& pkt) {
  moppkt::FlowKey flow = pkt.flow();
  auto it = lane.udp_clients.find(flow);
  std::shared_ptr<UdpClient> udp;
  if (it != lane.udp_clients.end()) {
    udp = it->second;
  } else {
    udp = std::make_shared<UdpClient>();
    udp->flow = flow;
    udp->home = &lane;
    udp->socket = mopnet::UdpSocket::Create(&device_->net());
    udp->socket->set_owner_uid(kMopEyeUid);
    if (EffectiveProtectMode() == Config::ProtectMode::kPerSocket) {
      vpn_->protect(*udp->socket);
    }
    std::weak_ptr<UdpClient> weak = udp;
    udp->socket->on_datagram = [this, weak](const moppkt::SocketAddr&,
                                            std::vector<uint8_t> response) {
      auto u = weak.lock();
      if (!u) {
        return;
      }
      moppkt::PacketBuf datagram = u->home->pool->AcquireSized(28 + response.size());
      datagram.set_size(moppkt::BuildUdpDatagramInto(
          u->flow.remote.port, u->flow.local.port, response, u->flow.remote.ip,
          u->flow.local.ip, u->ip_id++, datagram.writable()));
      EmitRawToApp(std::move(datagram), &u->home->lane, u->home);
      u->last_activity = loop_->Now();
    };
    lane.udp_clients[flow] = udp;
    ArmUdpIdleCheck(udp, loop_->Now() + kUdpIdleTimeout);
  }
  udp->last_activity = loop_->Now();
  std::vector<uint8_t> payload(pkt.udp->payload.begin(), pkt.udp->payload.end());
  udp->socket->SendTo(flow.remote, std::move(payload));
}

void MopEyeEngine::ArmUdpIdleCheck(std::weak_ptr<UdpClient> udp, moputil::SimTime at) {
  loop_->ScheduleAt(at, [this, udp] {
    auto u = udp.lock();
    if (!u) {
      return;
    }
    if (loop_->Now() - u->last_activity >= kUdpIdleTimeout) {
      u->home->udp_clients.erase(u->flow);
    } else {
      ArmUdpIdleCheck(u, u->last_activity + kUdpIdleTimeout);
    }
  });
}

// ---------------- Telemetry accessors ----------------

moptel::Registry* MopEyeEngine::telemetry_registry() const {
  return telemetry_ ? &telemetry_->registry : nullptr;
}

moptel::FlightRecorder* MopEyeEngine::flight_recorder() const {
  return telemetry_ ? &telemetry_->recorder : nullptr;
}

}  // namespace mopeye
