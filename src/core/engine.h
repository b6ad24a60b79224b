// MopEyeEngine: the MopEyeService of the paper (Fig. 4).
//
// Owns the core relay threads (TunReader, TunWriter, N MainWorker lanes)
// plus the temporary socket-connect threads, the user-space TCP clients that
// splice internal (tunnel) and external (socket) connections, the UDP/DNS
// relay, the packet-to-app mapper, and the measurement store.
//
// Thread model v2 (all as virtual-time ActorLanes):
//
//   TunReader --(FlowKeyHash % N)--> lane read queues -> Selector.wakeup()
//
//   WorkerLane[i] (i = 0..N-1, "MainWorker" lanes):
//     owns its Selector, TCP-client table, DNS relay state, BufPool and
//     counters. parse/map/relay for the flows hashing to it; socket events
//     and connect completions route back to the flow's owning lane, so no
//     flow state is ever shared across lanes. Every lane appends its
//     measurements to the engine's one store: lanes are actors on one event
//     loop, so appends happen in event (= time) order.
//
//   socket-connect thread (per SYN): protect? -> blocking connect ->
//     timestamp -> lazy mapping -> register with the owning lane's selector
//     -> SYN/ACK to app
//
//   TunWriter  <- write queue (newPut/oldPut) <- packets from non-lane
//     producers (connect threads, DNS temp threads); with lane_tun_write on,
//     worker lanes bypass it and flush their own gathered bursts instead.
//
// Thread model v4 (multi-queue egress + pure-ACK coalescing): with
// Config::tun_queues = N the tun device exposes N delivery queues
// (IFF_MULTI_QUEUE model), lane i flushes its gathered egress to queue
// (i % N), and tun_write_contention is sampled only when another lane shares
// that queue — lanes <= queues run contention-free. Every egress path ACKs
// each socket write once; with Config::ack_coalescing, gathered egress
// counts in acks_coalesced the per-packet ACKs that ACK stands in for.
//
// Config::worker_lanes = 1 (default) is the paper's single-MainWorker model
// and is behaviorally identical to it — same RNG stream, same costs, same
// event order — which the checked-in bench baselines depend on.
#ifndef MOPEYE_CORE_ENGINE_H_
#define MOPEYE_CORE_ENGINE_H_

#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "android/device.h"
#include "android/vpn_service.h"
#include "concurrent/lane_affinity.h"
#include "concurrent/steal_board.h"
#include "core/config.h"
#include "core/measurement.h"
#include "core/packet_mapper.h"
#include "core/service.h"
#include "core/tcp_state_machine.h"
#include "core/tun_reader.h"
#include "core/tun_writer.h"
#include "net/selector.h"
#include "net/socket.h"
#include "netpkt/packet_buf.h"
#include "netpkt/tcp_template.h"
#include "util/status.h"

namespace moptel {
class FlightRecorder;
class Registry;
}  // namespace moptel

namespace mopeye {

// The uid MopEye itself runs under.
constexpr int kMopEyeUid = 10999;

// Every per-lane relay counter, as an X-macro: one list drives the field
// declarations, the shard merge in operator+=, and the telemetry-registry
// auto-registration in engine.cc. Adding a counter here is the whole job —
// forgetting the merge or the export is no longer possible (the old
// hand-written operator+= relied on review to catch omissions).
#define MOPEYE_ENGINE_COUNTER_FIELDS(X) \
  X(tun_packets)                        \
  X(syns)                               \
  X(syn_duplicates)                     \
  X(data_segments)                      \
  X(pure_acks_discarded)                \
  X(fins)                               \
  X(rsts)                               \
  X(parse_errors)                       \
  X(unknown_flow)                       \
  X(udp_packets)                        \
  X(dns_queries)                        \
  X(dns_responses)                      \
  X(connects_ok)                        \
  X(connects_failed)                    \
  X(socket_read_events)                 \
  X(bytes_app_to_server)                \
  X(bytes_server_to_app)                \
  X(steal_handoffs)                     \
  X(steal_parked_packets)               \
  X(lane_write_bursts)                  \
  X(lane_write_packets)                 \
  X(acks_coalesced)

class MopEyeEngine {
 public:
  MopEyeEngine(mopdroid::AndroidDevice* device, Config config);
  ~MopEyeEngine();

  MopEyeEngine(const MopEyeEngine&) = delete;
  MopEyeEngine& operator=(const MopEyeEngine&) = delete;

  // One-time VPN consent + service start: establishes the TUN, starts the
  // reader/writer, arms the selectors.
  moputil::Status Start();
  // Stops the service. In blocking read mode this triggers the dummy-packet
  // release (§3.1): DownloadManager on SDK >= 21, a self packet otherwise.
  void Stop();
  bool running() const { return running_; }

  // ---- Service registry ----
  // Companion services (the crowdsourcing uploader, ...) registered here are
  // started with the engine and notified from Stop() before the relay tears
  // down — a registered uploader flushes its final batch without the
  // composition root remembering to. Registering on a running engine starts
  // the service immediately.
  void RegisterService(std::shared_ptr<EngineService> service);
  // First registered service with this name, or null.
  EngineService* FindService(std::string_view name) const;
  size_t service_count() const { return services_.size(); }

  // Every measurement the engine has recorded and not yet handed out, in
  // time order, whatever worker_lanes is.
  MeasurementStore& store() { return store_; }
  PacketToAppMapper& mapper() { return *mapper_; }
  TunReader* tun_reader() { return reader_.get(); }
  TunWriter* tun_writer() { return writer_.get(); }
  mopdroid::VpnService& vpn() { return *vpn_; }
  const Config& config() const { return config_; }

  struct Counters {
#define MOPEYE_DECLARE_ENGINE_COUNTER(name) uint64_t name = 0;
    MOPEYE_ENGINE_COUNTER_FIELDS(MOPEYE_DECLARE_ENGINE_COUNTER)
#undef MOPEYE_DECLARE_ENGINE_COUNTER
    // Sum of per-lane high waters: exact for worker_lanes=1, an upper bound
    // on the global peak otherwise (lanes peak independently). The true
    // concurrent peak is global_clients_high_water() — resources() keeps
    // using this sum deliberately, as a conservative memory bound.
    size_t clients_high_water = 0;  // moplint-allow: raw-counter

    // Shard merge, generated from the same field list as the declarations:
    // a counter added to MOPEYE_ENGINE_COUNTER_FIELDS is merged (and
    // telemetry-exported) by construction.
    Counters& operator+=(const Counters& o) {
#define MOPEYE_MERGE_ENGINE_COUNTER(name) name += o.name;
      MOPEYE_ENGINE_COUNTER_FIELDS(MOPEYE_MERGE_ENGINE_COUNTER)
#undef MOPEYE_MERGE_ENGINE_COUNTER
      clients_high_water += o.clients_high_water;
      return *this;
    }
  };
  // Merged over the per-lane shards. Each lane accumulates into its own
  // Counters (no shared mutable fields across lanes); this accessor sums
  // them on read.
  Counters counters() const;
  size_t active_clients() const;
  // True peak of simultaneously-live TCP clients across all lanes (max-merge
  // over time, not the sum of per-lane peaks). Equals
  // counters().clients_high_water when worker_lanes == 1.
  size_t global_clients_high_water() const { return clients_global_high_water_; }

  // ---- Telemetry (Config::telemetry) ----
  // Null when telemetry is off: the relay hot paths carry a single branch
  // and every bench baseline stays byte-identical.
  moptel::Registry* telemetry_registry() const;
  moptel::FlightRecorder* flight_recorder() const;

  // ---- Lane introspection (tests / benches) ----
  size_t lane_count() const { return lanes_.size(); }
  // The lane that owns a flow under the current sharding (same rule the
  // TunReader dispatches by: moppkt::FlowLaneOf).
  size_t LaneOf(const moppkt::FlowKey& flow) const {
    return moppkt::FlowLaneOf(flow, lanes_.size());
  }
  // One lane's counter shard (flow-affinity assertions).
  const Counters& lane_counters(size_t lane) const;

  // Resource usage for Table 4's CPU/memory rows.
  struct ResourceUsage {
    moputil::SimDuration busy_reader = 0;
    moputil::SimDuration busy_writer = 0;
    moputil::SimDuration busy_main = 0;  // summed across worker lanes
    moputil::SimDuration busy_workers = 0;  // socket-connect + DNS threads
    size_t memory_bytes = 0;

    moputil::SimDuration total_busy() const {
      return busy_reader + busy_writer + busy_main + busy_workers;
    }
    double CpuPercent(moputil::SimDuration wall) const {
      return wall > 0 ? 100.0 * static_cast<double>(total_busy()) /
                            static_cast<double>(wall)
                      : 0.0;
    }
  };
  ResourceUsage resources() const;

 private:
  struct WorkerLane;

  struct TcpClient {
    moppkt::FlowKey flow;
    WorkerLane* home;  // owning lane; every event for this flow runs here
    TcpStateMachine sm;
    // Prototype datagram for everything we emit toward the app on this flow
    // (we speak as the server: src = remote). Option-less segments — the
    // steady state — are stamped out of this template with incremental
    // checksums instead of being rebuilt from scratch.
    moppkt::TcpPacketTemplate tmpl;
    std::shared_ptr<mopnet::SocketChannel> channel;
    std::unique_ptr<mopsim::ActorLane> connect_lane;
    // App payload staged for the external socket. Each entry keeps the
    // pooled packet its span points into alive until the flush — the
    // zero-copy replacement for the old per-byte staging deque.
    struct PendingWrite {
      moppkt::PacketBuf buf;
      std::span<const uint8_t> data;
    };
    std::deque<PendingWrite> socket_write_buf;
    size_t socket_write_bytes = 0;
    bool write_event_pending = false;
    bool external_connected = false;
    bool removed = false;
    // Work stealing: set on the victim lane when its handoff token drains;
    // cleared when the thief installs the flow. While set, socket events are
    // forwarded to `migrate_target` (where lane FIFO lands them after the
    // install) instead of being processed under the old home.
    bool migrating = false;
    WorkerLane* migrate_target = nullptr;
    moputil::SimTime connect_t0 = 0;
    PacketToAppMapper::Outcome app;
    bool mapping_done = false;
    // RTT captured by the configured timestamp mode, awaiting attribution.
    moputil::SimDuration pending_rtt = -1;
    bool measurement_recorded = false;
    mopnet::ConnHandle kernel_handle = 0;
    uint16_t ip_id = 1;

    TcpClient(const moppkt::FlowKey& f, WorkerLane* h, uint32_t iss, uint16_t mss,
              uint16_t window)
        : flow(f),
          home(h),
          sm(f, iss, mss, window),
          tmpl(f.remote.ip, f.local.ip, f.remote.port, f.local.port) {}
  };

  struct UdpClient {
    moppkt::FlowKey flow;
    WorkerLane* home = nullptr;
    std::shared_ptr<mopnet::UdpSocket> socket;
    std::unique_ptr<mopsim::ActorLane> lane;  // DNS temp thread
    mopnet::ConnHandle kernel_handle = 0;
    bool is_dns = false;
    std::string query_domain;
    moputil::SimTime query_t0 = 0;
    moputil::SimTime last_activity = 0;
    uint16_t ip_id = 1;
  };

  // One MainWorker shard: everything the single MainWorker used to own,
  // re-homed so N lanes can run flows concurrently without sharing state.
  struct WorkerLane {
    WorkerLane(mopsim::EventLoop* loop, std::string name, moppkt::BufPool* emit_pool)
        : lane(loop, std::move(name)), selector(loop), pool(emit_pool), rng(0) {}

    mopsim::ActorLane lane;       // the simulated MainWorker thread
    mopnet::Selector selector;    // this lane's waiting point (§3.2)
    ReadQueue read_queue;         // TunReader -> this lane
    size_t index = 0;             // position in lanes_ (= LaneScope id)
    // Debug-only affinity stamp: every lane entry point (DrainEvents,
    // ProcessTunPacket, Handle*) opens a LaneScope for this lane and checks
    // it, so a mis-routed call — lane A's processing invoked while lane B's
    // scope is active, the work-stealing bug class — aborts instead of
    // silently corrupting per-lane tables. Compiled out in Release.
    mopcc::LaneAffinityChecker affinity;
    moppkt::BufPool* pool;        // lane-owned emission pool (static duration)
    moputil::Rng rng;             // seeded in Start(); lane 0 continues the
                                  // engine stream when worker_lanes == 1
    std::unordered_map<moppkt::FlowKey, std::shared_ptr<TcpClient>, moppkt::FlowKeyHash>
        clients;
    // Channel pointer -> client, for selector event routing.
    std::unordered_map<const mopnet::SocketChannel*, std::weak_ptr<TcpClient>> by_channel;
    std::unordered_map<moppkt::FlowKey, std::shared_ptr<UdpClient>, moppkt::FlowKeyHash>
        udp_clients;
    Counters counters;            // lane shard; merged by counters()
    // Per-lane trace sequence: every measurement born on this lane gets
    // (lane, ++trace_seq) in its TraceContext, so ids are unique per device
    // without cross-lane state.
    uint32_t trace_seq = 0;
    // Work stealing, thief side: flows whose kHandoffIn token this lane has
    // seen but whose state the victim has not handed over yet. Packets of an
    // arriving flow are parked (in order) instead of processed, then drained
    // by InstallStolenFlow — so the thief never touches flow state it does
    // not own yet, and per-flow order survives the re-homing.
    std::unordered_set<moppkt::FlowKey, moppkt::FlowKeyHash> arriving;
    std::unordered_map<moppkt::FlowKey, std::deque<moppkt::PacketBuf>, moppkt::FlowKeyHash>
        parked;
    // Gathered lane egress (Config::lane_tun_write): packets this lane
    // produced since its last flush, written with one gathered write() from
    // the lane itself instead of through the shared TunWriter.
    std::vector<moppkt::PacketBuf> write_gather;
    bool write_flush_pending = false;
    // Multi-queue egress (Config::tun_queues): the tun queue this lane
    // flushes to (index % tun_queues), and whether it owns that queue alone
    // — exclusive queues skip the contention draw and carry a debug-only
    // write-affinity stamp.
    size_t queue = 0;
    bool queue_exclusive = false;
  };

  Config::ProtectMode EffectiveProtectMode() const;

  void OnSelectorWakeup(WorkerLane& lane);
  void DrainEvents(WorkerLane& lane);
  void ProcessTunPacket(WorkerLane& lane, moppkt::PacketBuf raw);
  void HandleSyn(WorkerLane& lane, const moppkt::ParsedPacket& pkt);
  void StartExternalConnect(const std::shared_ptr<TcpClient>& client);
  // Runs on the connect thread as connect() returns; Now() is the
  // post-connect timestamp.
  void FinishConnect(const std::shared_ptr<TcpClient>& client);
  // Stores the record once both the RTT and the app mapping are available.
  void MaybeRecordTcpMeasurement(const std::shared_ptr<TcpClient>& client);
  // Stamps the cross-tier TraceContext on a freshly built measurement.
  void StampTrace(Measurement* m, WorkerLane& home);
  // `raw` is the pooled buffer `pkt`'s views point into; if the segment
  // carries in-order payload the buffer moves into the client's staged
  // writes, otherwise it dies (returns to the pool) on return.
  void HandleTcpSegment(WorkerLane& lane, const moppkt::ParsedPacket& pkt,
                        moppkt::PacketBuf raw);
  void HandleSocketEvent(WorkerLane& lane, const mopnet::ReadyEvent& ev);
  void FlushSocketWrites(const std::shared_ptr<TcpClient>& client);
  void HandleSocketReadable(const std::shared_ptr<TcpClient>& client);
  void HandleUdp(WorkerLane& lane, const moppkt::ParsedPacket& pkt);
  // Idle GC for a plain UDP association: at `at`, drops the client and its
  // socket if the flow has been silent for kUdpIdleTimeout, else re-arms at
  // last_activity + kUdpIdleTimeout, so a flow lives only while it is used.
  void ArmUdpIdleCheck(std::weak_ptr<UdpClient> udp, moputil::SimTime at);
  void HandleDnsQuery(WorkerLane& lane, const moppkt::ParsedPacket& pkt);
  void RemoveClient(const std::shared_ptr<TcpClient>& client);

  // ---- Elephant-flow work stealing (thread model v3) ----
  // Lane side of the steal protocol. Publish: an overloaded lane offers its
  // hottest queued TCP flow on the StealBoard (the TunReader consumes it).
  // CompleteHandoff runs on the victim when its kHandoffOut token drains —
  // by lane FIFO, after every packet of the flow it still owned — and ships
  // the client to the thief. InstallStolenFlow runs on the thief: re-homes
  // the client, migrates its channel to the thief's selector, and drains the
  // packets parked behind the kHandoffIn token, in arrival order.
  void MaybePublishSteal(WorkerLane& lane);
  void CompleteHandoff(WorkerLane& victim, const moppkt::FlowKey& flow, size_t thief_index);
  void InstallStolenFlow(WorkerLane& thief, size_t victim_index, const moppkt::FlowKey& flow,
                         std::shared_ptr<TcpClient> client);

  // Sends one segment toward the app, paying the producer overhead on
  // `producer` (null = fire and forget from a non-lane context). When
  // `gather` is set and Config::lane_tun_write is on, the packet joins that
  // lane's gathered write burst instead of the TunWriter queue; producers
  // without a worker lane (connect threads, DNS temp threads) always take
  // the TunWriter path.
  void EmitToApp(const std::shared_ptr<TcpClient>& client,
                 const moppkt::TcpSegmentSpec& spec, mopsim::ActorLane* producer,
                 WorkerLane* gather = nullptr);
  void EmitRawToApp(moppkt::PacketBuf datagram, mopsim::ActorLane* producer,
                    WorkerLane* gather = nullptr);
  // Gathered lane egress (Config::lane_tun_write): append to the lane's
  // burst and schedule one flush behind the current task chain.
  void GatherLaneWrite(WorkerLane& lane, moppkt::PacketBuf datagram);
  // Pays one gathered-write cost for everything queued, then delivers the
  // burst to the lane's own tun queue; re-arms itself while packets keep
  // arriving. Contention is sampled only when another lane shares the queue
  // (always, in the single-queue paper model).
  void FlushLaneWrites(WorkerLane& lane);

  std::shared_ptr<TcpClient> FindClient(WorkerLane& lane, const moppkt::FlowKey& flow);
  // Builds the registry + flight recorder and registers every engine metric
  // (X-macro counters, gauges, stage histograms, pool/tun/mapper externals).
  void BuildTelemetry();

  mopdroid::AndroidDevice* device_;
  Config config_;
  mopsim::EventLoop* loop_;
  moputil::Rng rng_;

  std::unique_ptr<mopdroid::VpnService> vpn_;
  std::vector<std::unique_ptr<WorkerLane>> lanes_;
  // Non-null only when Config::steal_enabled and worker_lanes > 1.
  std::unique_ptr<mopcc::StealBoard<moppkt::FlowKey>> steal_board_;
  std::unique_ptr<TunReader> reader_;
  std::unique_ptr<TunWriter> writer_;
  std::unique_ptr<PacketToAppMapper> mapper_;
  MeasurementStore store_;

  bool running_ = false;
  std::vector<std::shared_ptr<EngineService>> services_;
  // Mix64 of the device model, computed on first stamp; identifies this
  // device in trace ids without shipping the model string per record.
  uint32_t trace_device_hash_ = 0;
  moputil::SimDuration retired_worker_busy_ = 0;
  size_t retired_worker_count_ = 0;

  // Live-client tracking for the true (max-merge) global high water. All
  // lanes are virtual actors on the loop thread, so plain fields are
  // race-free by construction.
  size_t clients_live_ = 0;
  // Exported as the mopeye_engine_clients_high_water gauge; kept as a plain
  // field because SetMax on the registry is per-lane and this is the one
  // true global peak (see ClientsHighWaterMergesAsMaxNotSum).
  size_t clients_global_high_water_ = 0;  // moplint-allow: raw-counter

  // Everything telemetry owns (registry, flight recorder, stage histogram
  // pointers). Defined in engine.cc; null when Config::telemetry is off.
  struct Telemetry;
  std::unique_ptr<Telemetry> telemetry_;
};

}  // namespace mopeye

#endif  // MOPEYE_CORE_ENGINE_H_
