// Device-side upload agent of the crowdsourcing loop.
//
// Drains the engine's MeasurementStore on a size/age policy — a batch goes
// out when at least `min_batch_records` have accumulated, or when the oldest
// pending record is `max_batch_age` old — encodes it with the wire codec,
// and ships it to the collector over a protected mopnet TCP connection.
// Uploads are opportunistic like the measurements themselves: everything
// runs in event-loop callbacks off the relay hot path, and failures
// (connect refused, reset, missing ack) re-queue the records and back off
// exponentially, so no measurement is lost while the collector is away.
//
// Fleet mode: constructed with a failover-ordered collector address list
// (mopfleet::FleetRouter::PlanFor puts the device's home shard first), the
// uploader rotates to the next address once backoff against the current one
// is exhausted *without ever having connected* — but a frame that may have
// reached a collector (the connection got as far as writing it) stays
// pinned to that address until acked. Pinning is what preserves the
// (device_id, batch_seq) dedup contract across failover: dedup state is
// per-collector, so re-sending a possibly-delivered frame anywhere else
// could double-count it.
#ifndef MOPEYE_COLLECTOR_UPLOADER_H_
#define MOPEYE_COLLECTOR_UPLOADER_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "collector/wire.h"
#include "core/measurement.h"
#include "core/service.h"
#include "net/socket.h"
#include "sim/event_loop.h"
#include "telemetry/metrics.h"
#include "util/time.h"

namespace mopcollect {

struct UploaderPolicy {
  // Flush when this many records are pending...
  size_t min_batch_records = 200;
  // ...or when the oldest pending record reaches this age.
  moputil::SimDuration max_batch_age = 60 * moputil::kSecond;
  // One batch never exceeds this many records (stays far below the frame cap).
  size_t max_records_per_batch = 5000;
  // Store poll cadence (upload-side only; the relay never waits on this).
  moputil::SimDuration poll_interval = 5 * moputil::kSecond;
  // Exponential backoff after a failed upload, doubling up to the max.
  moputil::SimDuration initial_backoff = 2 * moputil::kSecond;
  moputil::SimDuration max_backoff = 120 * moputil::kSecond;
  // A connected upload with no ack by this deadline counts as failed.
  moputil::SimDuration ack_timeout = 30 * moputil::kSecond;
  // Cross-tier record tracing: a record whose trace id falls in a 1/N hash
  // slice rides the telemetry frame with its device-side span timings.
  // 0 (default) disables trace piggybacking entirely.
  uint32_t trace_sample_period = 0;
  // With health export enabled, pending deltas that found no record batch to
  // ride within this interval go out on a zero-record batch, so a quiet
  // device still reports crowd health.
  moputil::SimDuration health_export_interval = 60 * moputil::kSecond;
};

class Uploader : public mopeye::EngineService {
 public:
  struct Counters {
    uint64_t batches_sent = 0;    // acked by the collector
    uint64_t records_sent = 0;    // records in acked batches
    uint64_t batches_rejected = 0;  // collector nacked (records dropped)
    uint64_t upload_failures = 0;   // connect/reset/timeout, will retry
    uint64_t failovers = 0;         // rotated to the next collector shard
    uint64_t telemetry_frames = 0;  // piggybacked telemetry frames staged
    uint64_t health_entries = 0;    // health deltas across those frames
    uint64_t traces_exported = 0;   // sampled record traces across them
  };

  // `net` and `store` must outlive the uploader. `device_id` stamps every
  // record of this device on the wire.
  Uploader(mopnet::NetContext* net, mopeye::MeasurementStore* store,
           const moppkt::SocketAddr& collector, uint32_t device_id,
           UploaderPolicy policy = UploaderPolicy());
  // Fleet overload: `collectors` is the failover order (home shard first —
  // see mopfleet::FleetRouter::PlanFor). Must be non-empty.
  Uploader(mopnet::NetContext* net, mopeye::MeasurementStore* store,
           std::vector<moppkt::SocketAddr> collectors, uint32_t device_id,
           UploaderPolicy policy = UploaderPolicy());
  ~Uploader() override;

  Uploader(const Uploader&) = delete;
  Uploader& operator=(const Uploader&) = delete;

  // Starts the poll loop. Idempotent.
  void Start();
  // Stops polling and aborts any in-flight upload (its records return to the
  // pending queue; a later Start() resumes where it left off).
  void Stop();

  // Drains the store and uploads everything pending now, size/age policy
  // aside (engine shutdown path). With health export enabled this also
  // flushes any pending health delta, even on a zero-record batch.
  void FlushNow();

  // Enables piggybacked device-health export: metrics of `registry` whose
  // name starts with any of `allow_prefixes` (empty = every metric) are
  // snapshotted per upload and their deltas since the last *acked* export
  // ride a telemetry frame ahead of the batch frame. The registry must
  // outlive the uploader. Telemetry is pure enrichment: collectors that
  // predate it skip the frame and the measurement path is unchanged.
  void EnableHealthExport(const moptel::Registry* registry,
                          std::vector<std::string> allow_prefixes);

  const Counters& counters() const { return counters_; }
  size_t pending_records() const { return pending_.size() + inflight_.size(); }
  // The collector address the next attempt will use.
  const moppkt::SocketAddr& current_collector() const;

  // EngineService: registered on a MopEyeEngine, the uploader starts with
  // the engine and Stop() triggers the final flush (the upload itself
  // completes on the event loop afterwards).
  std::string_view service_name() const override { return "uploader"; }
  void OnEngineStart() override { Start(); }
  void OnEngineStop() override { FlushNow(); }
  // Surfaces the upload counters on the engine's telemetry registry (called
  // by RegisterService when Config::telemetry is on).
  void RegisterMetrics(moptel::Registry* registry) override;

 private:
  void SchedulePoll();
  void Poll();
  // Takes new records out of the store; returns true if any arrived.
  void DrainStore();
  bool ShouldFlush() const;
  void StartUpload();
  // Health deltas of `cur` against the last acked baseline (unchanged
  // metrics are omitted; an omitted metric loses nothing because baselines
  // advance only to snapshots that actually shipped).
  std::vector<WireHealthEntry> HealthDeltas(
      const std::vector<moptel::MetricSample>& cur) const;
  bool HasHealthDelta() const;
  // Assembles the telemetry frame for the next batch (first `batch_records`
  // of pending_); stages the registry snapshot it was computed from.
  WireTelemetry BuildTelemetry(size_t batch_records);
  void OnAckReadable();
  void OnUploadFailure();
  void FinishUpload();  // tears down the channel + ack timer
  void CancelTimer(mopsim::TimerId* id);

  mopnet::NetContext* net_;
  mopeye::MeasurementStore* store_;
  // Failover-ordered collector addresses; shard_offset_ rotates through
  // them (0 = home shard).
  std::vector<moppkt::SocketAddr> collectors_;
  size_t shard_offset_ = 0;
  uint32_t device_id_;
  UploaderPolicy policy_;

  bool running_ = false;
  std::deque<mopeye::Measurement> pending_;
  // The batch currently being delivered: its records and the exact encoded
  // frame. Retries re-send the identical frame (same batch_seq), so the
  // collector can recognize a re-delivery whose ack went missing and not
  // fold the records twice. Cleared only on ack.
  std::vector<mopeye::Measurement> inflight_;
  std::vector<uint8_t> inflight_frame_;
  // Set once the in-flight frame has been written toward inflight_addr_:
  // from then on retries are pinned to that collector (it may have folded
  // the batch; only it can dedup the re-delivery).
  bool inflight_possibly_delivered_ = false;
  moppkt::SocketAddr inflight_addr_;
  // Whether the current attempt's connect succeeded (failover triggers only
  // on attempts that never reached the collector).
  bool connected_this_attempt_ = false;
  // Next batch_seq; starts at a device-rng offset so an uploader restart
  // does not collide with sequences the collector already recorded.
  uint32_t next_seq_;
  std::shared_ptr<mopnet::SocketChannel> channel_;
  FrameReader ack_reader_;
  mopsim::TimerId poll_timer_ = mopsim::kInvalidTimer;
  mopsim::TimerId ack_timer_ = mopsim::kInvalidTimer;
  moputil::SimDuration backoff_ = 0;  // 0 = healthy, no backoff
  moputil::SimTime next_attempt_ = 0;

  // Health export state. The *acked* baseline is what the collector has
  // durably folded; the staged snapshot is what the in-flight telemetry
  // frame's deltas were computed from, promoted to baseline on batch ack
  // (the telemetry frame precedes its batch on the same connection, so the
  // batch ack implies the telemetry was processed).
  const moptel::Registry* health_registry_ = nullptr;
  std::vector<std::string> health_prefixes_;
  std::vector<moptel::MetricSample> health_base_;
  std::vector<moptel::MetricSample> health_staged_;
  bool health_staged_valid_ = false;
  moputil::SimTime last_health_flush_ = 0;

  Counters counters_;
};

}  // namespace mopcollect

#endif  // MOPEYE_COLLECTOR_UPLOADER_H_
