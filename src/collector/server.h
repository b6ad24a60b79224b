// The MopEye collector: the server half of the paper's crowdsourcing loop.
//
// One CollectorServer registers at an address on a mopnet::ServerFarm and
// accepts concurrent device connections (each accepted connection gets its
// own frame reassembler). Uploaded batches are decoded, remapped from the
// per-batch wire string tables onto global interners, and folded into the
// AggregateStore — each record folds once, inline, into the entry for its
// (app, isp, country, net type, kind) key. Fig. 9 / Fig. 11 / Table 6
// style queries merge those entries at query time, so they are O(keys), not
// O(records). Malformed input never crashes the collector: the batch is
// rejected with an error ack and the connection is reset.
//
// Everything durable (store, interners, ingest counters, dedup windows,
// crowd health) is one CollectorState that ingest folds into directly. A
// snapshot (fleet/snapshot.h) encodes that state in place, and a restart
// moves a decoded one back in; there is no second copy to keep in step.
//
// For analyses that need raw records (and for validating the sketches
// against exact recomputation), `retain_records` additionally accumulates a
// mopcrowd::CrowdDataset, so every mopcrowd analysis runs unchanged against
// live-ingested data.
#ifndef MOPEYE_COLLECTOR_SERVER_H_
#define MOPEYE_COLLECTOR_SERVER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "collector/aggregate_store.h"
#include "collector/health_store.h"
#include "collector/wire.h"
#include "crowd/dataset.h"
#include "net/server.h"
#include "sim/event_loop.h"
#include "telemetry/trace.h"
#include "util/status.h"

namespace moptel {
class Counter;
class FlightRecorder;
class Histogram;
class Registry;
}  // namespace moptel

namespace mopcollect {

struct CollectorOptions {
  // Unused: the aggregate store is one map. Kept only because
  // perfbench/runner/crowd.cc still sets it; ROADMAP lists its removal.
  size_t shards = 16;
  // Also keep raw records as a CrowdDataset (exact recomputation / full
  // mopcrowd analyses). Off by default: the aggregate path is the product.
  bool retain_records = false;
  // Withhold positive batch acks until NotifyDurable() confirms a snapshot
  // covering them reached disk (mopfleet::Snapshotter calls it after every
  // write). With at-least-once upload this makes acked records crash-proof:
  // anything folded but not yet durable is unacked, so the device re-sends
  // it to the restarted collector, and anything acked is both in the
  // snapshot's store and in its dedup state. Requires a Snapshotter (or a
  // manual NotifyDurable caller); otherwise acks never flush.
  bool durable_acks = false;
};

// The ingest counters, declared once: a CollectorState carries them into
// every snapshot, and CollectorServer::counters() serves the live ones.
struct CollectorCounters {
  uint64_t connections = 0;
  uint64_t frames = 0;
  uint64_t batches_ok = 0;
  uint64_t batches_rejected = 0;
  uint64_t batches_duplicate = 0;  // re-deliveries acked without ingesting
  uint64_t records_ingested = 0;
  uint64_t stream_errors = 0;  // framing violations (oversized prefix, ...)
  // Telemetry frames decoded, re-deliveries included (each is counted
  // before its dedup check; HealthStore::folds() counts the folded ones).
  uint64_t telemetry_frames = 0;
  uint64_t telemetry_duplicate = 0;  // telemetry re-deliveries not re-folded
  uint64_t telemetry_rejected = 0;   // malformed telemetry frames (conn closed)
  uint64_t frames_skipped = 0;       // unknown types / newer telemetry formats
};

// Per-device duplicate-delivery windows: the (device_id, seq) pairs already
// folded. Bounded on both axes so hostile (device_id, seq) churn cannot
// exhaust collector memory: per device only the most recent
// kSeenBatchWindow seqs are remembered (uploaders deliver sequentially, so a
// re-delivery is always recent), and at most kMaxTrackedDevices devices are
// tracked (beyond that the lowest device id is evicted; an evicted device's
// re-delivery degrades to a double-count, not OOM). CheckAndRecord is the
// only mutator, so live and restored windows alike keep both bounds. Kept
// in device order, so a snapshot encodes it as it stands.
class DedupWindows {
 public:
  static constexpr size_t kSeenBatchWindow = 1024;
  static constexpr size_t kMaxTrackedDevices = 1 << 16;

  struct Window {
    std::unordered_set<uint32_t> set;
    std::vector<uint32_t> order;  // oldest first: the eviction order

    bool operator==(const Window&) const = default;
  };

  // True if (device, seq) was already recorded; records it otherwise.
  bool CheckAndRecord(uint32_t device, uint32_t seq);

  const std::map<uint32_t, Window>& devices() const { return devices_; }

  bool operator==(const DedupWindows&) const = default;

 private:
  std::map<uint32_t, Window> devices_;
};

// Everything a collector must not lose across a restart: the aggregate
// store, the global interners its keys index into, the ingest counters, the
// duplicate-delivery windows (without which a restart would re-fold batches
// whose ack was lost in the crash), and the crowd-health rollups.
// CollectorServer folds into one of these directly and snapshots encode it
// in place. The retained CrowdDataset is an analysis adapter, not durable
// state, and is deliberately excluded.
struct CollectorState : CollectorCounters {
  AggregateStore store;
  Interner apps, isps, countries;
  DedupWindows seen_batches;
  // Separate sequence space: telemetry frames carry the seq of the batch
  // they precede, but a health fold must dedup independently of the batch
  // fold.
  DedupWindows seen_telemetry;
  // Crowd health rollups (exact; see health_store.h).
  HealthStore health;
};

class CollectorServer {
 public:
  using Counters = CollectorCounters;

  explicit CollectorServer(CollectorOptions opts = CollectorOptions());
  ~CollectorServer();  // out-of-line: telemetry members are incomplete here

  // Serves at `addr`. The server must outlive the farm registration (and any
  // in-flight connections); connections hold a plain pointer back here.
  void RegisterWith(mopnet::ServerFarm* farm, const moppkt::SocketAddr& addr);

  // Simulated crash / process stop: resets every live upload connection,
  // discards withheld acks, and refuses further ingest. The farm
  // registration (if any) must be removed by the caller; the object must
  // stay alive until in-flight events drain (connections hold a plain
  // pointer), which a composition root gets for free by destroying it after
  // the event loop finishes.
  void Shutdown();

  // Telemetry (moptel): builds an internal registry over the collector's
  // counters and store, plus a flight recorder for snapshot / durable-ack
  // lifecycle events, and serves the Prometheus-style text exposition at
  // `addr` on `farm`. Idempotent per (farm, addr); Shutdown() removes the
  // registration along with the upload listener's connections. `loop`
  // (optional) timestamps flight-recorder events and trace spans.
  void ServeMetrics(mopnet::ServerFarm* farm, const moppkt::SocketAddr& addr,
                    mopsim::EventLoop* loop = nullptr);
  // Null until ServeMetrics is called.
  moptel::Registry* telemetry_registry() const { return registry_.get(); }
  moptel::FlightRecorder* flight_recorder() const { return recorder_.get(); }

  // Live forensics endpoint: serves a JSON document with the flight
  // recorder's event stream and the retained record traces.
  // Same connect-read-close protocol as the metrics endpoint; Shutdown()
  // removes the registration.
  void ServeForensics(mopnet::ServerFarm* farm, const moppkt::SocketAddr& addr);
  std::string RenderForensicsJson() const;

  // ---- Snapshot hooks (serialization lives in fleet/snapshot.*) ----

  // The durable state itself, by reference (no copy), with a `state-export`
  // flight-recorder event: the Snapshotter encodes it in place. Callers that
  // need a copy take one (`auto state = server.ExportState();`).
  const CollectorState& ExportState() const;
  // Moves in a previously exported state (restart recovery), replacing the
  // whole durable state. Call before serving.
  void ImportState(CollectorState&& state);

  // Flushes acks withheld under CollectorOptions::durable_acks: the
  // Snapshotter calls this right after a snapshot covering every fold so
  // far has been written. No-op when nothing is pending.
  void NotifyDurable();
  size_t pending_ack_count() const { return pending_acks_.size(); }

  // Ingests one decoded batch unconditionally (no duplicate-delivery check;
  // tests and the ingest bench may call it directly).
  void IngestBatch(const WireBatch& batch);
  // Decode + ingest one frame payload; returns the number of records
  // accepted, or an error Status on malformed payloads (nothing ingested).
  // A (device_id, batch_seq) pair seen before is acked as accepted but not
  // folded again — the uploader re-sends the identical frame when an ack is
  // lost, and at-least-once delivery must not double-count records.
  // `trace_ids` (from the telemetry frame that preceded this batch on the
  // connection) get their kFolded span right after the batch's records fold.
  moputil::Result<uint32_t> IngestPayload(std::span<const uint8_t> payload,
                                          std::vector<uint64_t> trace_ids = {});
  // Decode + fold one telemetry frame payload: health deltas into the
  // HealthStore, sampled trace entries into the TraceStore (device-side
  // spans plus a kReceived span stamped now). Appends the frame's trace ids
  // to `trace_ids_out` (may be null) so the connection can hand them to the
  // following batch. Duplicate (device, seq) frames are not re-folded; a
  // newer-format frame is skipped cleanly. Returns an error only for
  // malformed payloads.
  moputil::Status IngestTelemetry(std::span<const uint8_t> payload,
                                  std::vector<uint64_t>* trace_ids_out);

  // The live durable state, read without a recorder event (FleetView).
  const CollectorState& state() const { return state_; }
  const Counters& counters() const { return state_; }
  const AggregateStore& store() const { return state_.store; }
  const HealthStore& health() const { return state_.health; }
  const Interner& apps() const { return state_.apps; }
  const moptel::TraceStore& traces() const { return traces_; }

  // Retained raw records (empty unless CollectorOptions::retain_records).
  const mopcrowd::CrowdDataset& dataset() const { return dataset_; }

  // ---- Queries over the streaming aggregates ----
  // Thin wrappers over the shared query plane (aggregate_store.h), which
  // mopfleet::FleetView reuses for the merged multi-collector view.

  using AppStat = mopcollect::AppStat;
  using IspDnsStat = mopcollect::IspDnsStat;
  std::vector<AppStat> TcpAppStats(size_t min_count = 1) const {
    return TcpAppStatsOf(state_.store, state_.apps, min_count);
  }
  std::vector<IspDnsStat> IspDnsStats(size_t min_count = 1) const {
    return IspDnsStatsOf(state_.store, state_.isps, min_count);
  }

 private:
  class Behavior;

  CollectorOptions opts_;
  CollectorState state_;
  mopcrowd::CrowdDataset dataset_;
  // device_id -> index into dataset_.devices() (retain mode only).
  std::unordered_map<uint32_t, size_t> device_index_;
  bool shut_down_ = false;
  // Live upload connections, so Shutdown() can sever them (Behavior
  // registers in OnConnect, deregisters in OnClosed / its destructor).
  std::unordered_map<const Behavior*, std::weak_ptr<mopnet::ServerConn>> live_conns_;
  // Positive acks withheld until the next durable snapshot (durable_acks).
  struct PendingAck {
    std::shared_ptr<mopnet::ServerConn> conn;
    std::vector<uint8_t> frame;
  };
  std::vector<PendingAck> pending_acks_;

  // Forensics plane.
  moptel::TraceStore traces_;
  // Trace ids whose folds are covered by the next durable snapshot: their
  // kDurable span is stamped when NotifyDurable() flushes the acks.
  std::vector<uint64_t> durable_trace_pending_;
  mopnet::ServerFarm* forensics_farm_ = nullptr;
  moppkt::SocketAddr forensics_addr_;

  // Telemetry plane (ServeMetrics); null when not enabled. The fold counter
  // and batch histogram are owned by registry_; raw pointers are stable.
  std::unique_ptr<moptel::Registry> registry_;
  std::unique_ptr<moptel::FlightRecorder> recorder_;
  moptel::Counter* folds_applied_ = nullptr;     // one fold per record
  moptel::Histogram* batch_records_ = nullptr;   // records per accepted batch
  mopnet::ServerFarm* metrics_farm_ = nullptr;
  moppkt::SocketAddr metrics_addr_;
  mopsim::EventLoop* loop_ = nullptr;  // timestamps for recorder events

  int64_t TelemetryNow() const;
};

}  // namespace mopcollect

#endif  // MOPEYE_COLLECTOR_SERVER_H_
