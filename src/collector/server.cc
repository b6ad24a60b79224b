#include "collector/server.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "telemetry/export_server.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/metrics.h"

namespace mopcollect {

// Server side of one accepted upload connection: reassembles frames, hands
// batches to the shared CollectorServer, and acks each one. The behavior
// holds a plain pointer to the server (the server outlives the farm
// registration); no persistent callback captures an owner.
class CollectorServer::Behavior : public mopnet::ServerBehavior {
 public:
  explicit Behavior(CollectorServer* server) : server_(server) {}
  ~Behavior() override { server_->live_conns_.erase(this); }

  void OnConnect(mopnet::ServerConn& conn) override {
    if (server_->shut_down_) {
      conn.Reset();
      return;
    }
    ++server_->counters_.connections;
    server_->live_conns_[this] = conn.weak_from_this();
  }

  void OnData(mopnet::ServerConn& conn, std::span<const uint8_t> data) override {
    if (server_->shut_down_) {
      conn.Reset();
      return;
    }
    reader_.Feed(data);
    while (auto payload = reader_.Next()) {
      ++server_->counters_.frames;
      // Forward-compat dispatch: a valid header whose type this collector
      // does not fold is skipped (not nacked, not a stream error), so a
      // newer device talking to an older collector loses enrichment only.
      // Anything with a bad magic/version falls through to the batch path
      // for its byte-identical error handling.
      if (auto raw_type = PeekRawFrameType(*payload); raw_type.ok()) {
        if (raw_type.value() == static_cast<uint8_t>(FrameType::kTelemetry)) {
          moputil::Status st = server_->IngestTelemetry(*payload, &pending_trace_ids_);
          if (!st.ok()) {
            // Malformed telemetry poisons the stream like a malformed
            // batch: close (no ack — telemetry has none to give).
            ++server_->counters_.telemetry_rejected;
            conn.Close();
            return;
          }
          continue;  // no ack: the following batch's ack covers it
        }
        if (raw_type.value() > static_cast<uint8_t>(FrameType::kTelemetry)) {
          ++server_->counters_.frames_skipped;
          continue;
        }
      }
      auto accepted = server_->IngestPayload(*payload, std::move(pending_trace_ids_));
      pending_trace_ids_.clear();
      WireAck ack;
      if (accepted.ok()) {
        ack.records_accepted = accepted.value();
      } else {
        ack.status = 1;
      }
      if (accepted.ok() && server_->opts_.durable_acks) {
        // Ack-after-durable: the receipt leaves only once a snapshot
        // covering this fold has been written (NotifyDurable). A crash in
        // between loses the fold *and* the ack together, so the device
        // re-sends and nothing is lost or double-counted.
        server_->pending_acks_.push_back({conn.shared_from_this(), EncodeAckFrame(ack)});
        continue;
      }
      conn.Send(EncodeAckFrame(ack));
      if (!accepted.ok()) {
        // A malformed batch poisons the whole stream (framing may be off):
        // report and close. Close (not Reset) so the error ack still lands.
        conn.Close();
        return;
      }
    }
    if (!reader_.status().ok()) {
      // Framing violation (oversized length prefix): nothing sane to ack.
      ++server_->counters_.stream_errors;
      conn.Reset();
    }
  }

  void OnClosed(mopnet::ServerConn& conn) override {
    (void)conn;
    server_->live_conns_.erase(this);
  }

 private:
  CollectorServer* server_;
  FrameReader reader_;
  // Trace ids from the last telemetry frame on this connection, waiting for
  // the batch they describe (the uploader writes telemetry + batch in one
  // send, so they arrive back-to-back and in order).
  std::vector<uint64_t> pending_trace_ids_;
};

CollectorServer::CollectorServer(CollectorOptions opts) : opts_(opts) {}

CollectorServer::~CollectorServer() = default;

void CollectorServer::RegisterWith(mopnet::ServerFarm* farm, const moppkt::SocketAddr& addr) {
  farm->AddTcpServer(addr,
                     [this] { return std::make_unique<Behavior>(this); });
}

int64_t CollectorServer::TelemetryNow() const { return loop_ != nullptr ? loop_->Now() : 0; }

void CollectorServer::ServeMetrics(mopnet::ServerFarm* farm, const moppkt::SocketAddr& addr,
                                   mopsim::EventLoop* loop) {
  if (loop != nullptr) {
    loop_ = loop;
  }
  if (registry_ == nullptr) {
    // The collector folds on its connection handler: one lane each.
    registry_ = std::make_unique<moptel::Registry>(1);
    recorder_ = std::make_unique<moptel::FlightRecorder>(1);
    moptel::Registry& reg = *registry_;
    reg.AddExternalCounter("mopeye_collector_connections_total",
                           "Upload connections accepted",
                           [this] { return counters_.connections; });
    reg.AddExternalCounter("mopeye_collector_frames_total",
                           "Upload frames reassembled",
                           [this] { return counters_.frames; });
    reg.AddExternalCounter("mopeye_collector_batches_ok_total",
                           "Batches decoded and folded",
                           [this] { return counters_.batches_ok; });
    reg.AddExternalCounter("mopeye_collector_batches_rejected_total",
                           "Malformed batches nacked",
                           [this] { return counters_.batches_rejected; });
    reg.AddExternalCounter("mopeye_collector_batches_duplicate_total",
                           "Re-deliveries acked without re-folding",
                           [this] { return counters_.batches_duplicate; });
    reg.AddExternalCounter("mopeye_collector_records_ingested_total",
                           "Records folded into the aggregate store",
                           [this] { return counters_.records_ingested; });
    reg.AddExternalCounter("mopeye_collector_stream_errors_total",
                           "Framing violations that reset a connection",
                           [this] { return counters_.stream_errors; });
    reg.AddExternalCounter("mopeye_collector_telemetry_frames_total",
                           "Device telemetry frames decoded, re-deliveries included",
                           [this] { return counters_.telemetry_frames; });
    reg.AddExternalCounter("mopeye_collector_telemetry_duplicate_total",
                           "Telemetry re-deliveries acked without re-folding",
                           [this] { return counters_.telemetry_duplicate; });
    reg.AddExternalCounter("mopeye_collector_telemetry_rejected_total",
                           "Malformed telemetry frames (connection closed)",
                           [this] { return counters_.telemetry_rejected; });
    reg.AddExternalCounter("mopeye_collector_frames_skipped_total",
                           "Frames of unknown types or newer telemetry formats skipped",
                           [this] { return counters_.frames_skipped; });
    folds_applied_ = reg.AddCounter("mopeye_collector_folds_applied_total",
                                    "Aggregate folds applied, one per ingested record");
    batch_records_ = reg.AddHistogram("mopeye_collector_batch_records",
                                      "Records per accepted batch");
    reg.AddExternalGauge("mopeye_collector_store_keys",
                         "Distinct aggregate keys resident",
                         [this] { return static_cast<uint64_t>(store_.key_count()); });
    reg.AddExternalGauge("mopeye_collector_pending_acks",
                         "Acks withheld until the next durable snapshot",
                         [this] { return static_cast<uint64_t>(pending_acks_.size()); });
    reg.AddExternalGauge("mopeye_collector_tracked_devices",
                         "Devices with live duplicate-delivery windows",
                         [this] { return static_cast<uint64_t>(seen_batches_.size()); });
    reg.AddExternalGauge("mopeye_collector_traces_retained",
                         "Sampled record traces resident in the trace store",
                         [this] { return static_cast<uint64_t>(traces_.size()); });
  }
  metrics_farm_ = farm;
  metrics_addr_ = addr;
  // One scrape returns the collector's own registry followed by the crowd
  // health rollups, so a single endpoint answers both "how is this
  // collector" and "how is the fleet's device population".
  moptel::ServeText(farm, addr, [this] {
    return registry_->RenderText() + health_.RenderText();
  });
}

void CollectorServer::ServeForensics(mopnet::ServerFarm* farm,
                                     const moppkt::SocketAddr& addr) {
  forensics_farm_ = farm;
  forensics_addr_ = addr;
  moptel::ServeText(farm, addr, [this] { return RenderForensicsJson(); });
}

std::string CollectorServer::RenderForensicsJson() const {
  std::string out = "{\"flight_recorder\":";
  out += recorder_ != nullptr ? recorder_->RenderJson() : "[]";
  out += ",\"traces\":";
  out += traces_.RenderJson();
  out += "}\n";
  return out;
}

void CollectorServer::Shutdown() {
  shut_down_ = true;
  if (recorder_ != nullptr) {
    recorder_->Record(0, TelemetryNow(), moptel::TraceKind::kLifecycle,
                      "collector-shutdown", pending_acks_.size(), live_conns_.size());
  }
  if (metrics_farm_ != nullptr) {
    // A crashed collector stops answering scrapes too.
    metrics_farm_->RemoveTcpServer(metrics_addr_);
    metrics_farm_ = nullptr;
  }
  if (forensics_farm_ != nullptr) {
    forensics_farm_->RemoveTcpServer(forensics_addr_);
    forensics_farm_ = nullptr;
  }
  // A crash takes the withheld acks with it — that is the durable-ack
  // guarantee working, not a leak: the unacked batches get re-sent.
  pending_acks_.clear();
  auto conns = std::move(live_conns_);
  live_conns_.clear();
  for (auto& [behavior, weak] : conns) {
    if (auto conn = weak.lock()) {
      conn->Reset();
    }
  }
}

CollectorState CollectorServer::ExportState() const {
  if (recorder_ != nullptr) {
    recorder_->Record(0, TelemetryNow(), moptel::TraceKind::kSnapshot, "state-export",
                      store_.key_count(), counters_.records_ingested);
  }
  CollectorState s;
  s.store = store_;
  s.apps = apps_;
  s.isps = isps_;
  s.countries = countries_;
  s.seen_batches.reserve(seen_batches_.size());
  for (const auto& [device, seen] : seen_batches_) {
    s.seen_batches.emplace_back(device,
                                std::vector<uint32_t>(seen.order.begin(), seen.order.end()));
  }
  // Canonical order: the map iterates in hash order, which would make
  // snapshot bytes depend on stdlib internals.
  std::sort(s.seen_batches.begin(), s.seen_batches.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  s.seen_telemetry.reserve(seen_telemetry_.size());
  for (const auto& [device, seen] : seen_telemetry_) {
    s.seen_telemetry.emplace_back(
        device, std::vector<uint32_t>(seen.order.begin(), seen.order.end()));
  }
  std::sort(s.seen_telemetry.begin(), s.seen_telemetry.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  s.health = health_;
  s.connections = counters_.connections;
  s.frames = counters_.frames;
  s.batches_ok = counters_.batches_ok;
  s.batches_rejected = counters_.batches_rejected;
  s.batches_duplicate = counters_.batches_duplicate;
  s.records_ingested = counters_.records_ingested;
  s.stream_errors = counters_.stream_errors;
  s.telemetry_frames = counters_.telemetry_frames;
  s.telemetry_duplicate = counters_.telemetry_duplicate;
  s.telemetry_rejected = counters_.telemetry_rejected;
  s.frames_skipped = counters_.frames_skipped;
  return s;
}

void CollectorServer::ImportState(CollectorState state) {
  if (recorder_ != nullptr) {
    recorder_->Record(0, TelemetryNow(), moptel::TraceKind::kSnapshot, "state-import",
                      state.store.key_count(), state.records_ingested);
  }
  store_ = std::move(state.store);
  apps_ = std::move(state.apps);
  isps_ = std::move(state.isps);
  countries_ = std::move(state.countries);
  seen_batches_.clear();
  for (auto& [device, seqs] : state.seen_batches) {
    SeenBatches& seen = seen_batches_[device];
    for (uint32_t seq : seqs) {
      if (seen.set.insert(seq).second) {
        seen.order.push_back(seq);
      }
    }
  }
  seen_telemetry_.clear();
  for (auto& [device, seqs] : state.seen_telemetry) {
    SeenBatches& seen = seen_telemetry_[device];
    for (uint32_t seq : seqs) {
      if (seen.set.insert(seq).second) {
        seen.order.push_back(seq);
      }
    }
  }
  health_ = std::move(state.health);
  counters_ = Counters();
  counters_.connections = state.connections;
  counters_.frames = state.frames;
  counters_.batches_ok = state.batches_ok;
  counters_.batches_rejected = state.batches_rejected;
  counters_.batches_duplicate = state.batches_duplicate;
  counters_.records_ingested = state.records_ingested;
  counters_.stream_errors = state.stream_errors;
  counters_.telemetry_frames = state.telemetry_frames;
  counters_.telemetry_duplicate = state.telemetry_duplicate;
  counters_.telemetry_rejected = state.telemetry_rejected;
  counters_.frames_skipped = state.frames_skipped;
}

void CollectorServer::NotifyDurable() {
  auto acks = std::move(pending_acks_);
  pending_acks_.clear();
  if (recorder_ != nullptr && !acks.empty()) {
    recorder_->Record(0, TelemetryNow(), moptel::TraceKind::kAck, "durable-ack-flush",
                      acks.size());
  }
  // Folded traces covered by this snapshot reach their terminal hop. Append
  // only — a trace evicted since its fold gets no zombie re-created for it.
  if (!durable_trace_pending_.empty()) {
    int64_t now = TelemetryNow();
    for (uint64_t id : durable_trace_pending_) {
      traces_.AppendSpan(id, moptel::TraceHop::kDurable, now);
    }
    durable_trace_pending_.clear();
  }
  for (auto& pending : acks) {
    pending.conn->Send(std::move(pending.frame));
  }
}

void CollectorServer::IngestBatch(const WireBatch& batch) {
  // Remap the per-batch wire tables onto the global interners once, then
  // fold records through the cached mapping.
  const std::vector<uint16_t> app_map = apps_.InternAll(batch.apps);
  const std::vector<uint16_t> isp_map = isps_.InternAll(batch.isps);
  const std::vector<uint16_t> country_map = countries_.InternAll(batch.countries);

  for (const WireRecord& rec : batch.records) {
    uint16_t app = rec.app_idx == kNoIndex ? kNoneId : app_map[rec.app_idx];
    uint16_t isp = rec.isp_idx == kNoIndex ? kNoneId : isp_map[rec.isp_idx];
    uint16_t country = rec.country_idx == kNoIndex ? kNoneId : country_map[rec.country_idx];
    store_.Add({app, isp, country, rec.net_type, rec.kind}, rec.rtt_ms);
    ++counters_.records_ingested;

    if (opts_.retain_records) {
      mopcrowd::CrowdRecord cr;
      cr.rtt_ms = rec.rtt_ms;
      cr.kind = static_cast<mopcrowd::RecordKind>(rec.kind);
      cr.net_type = rec.net_type;
      cr.app_id = app;
      cr.isp_id = isp;
      cr.country_id = country;
      cr.device_id = rec.device_id;
      cr.domain_id = rec.domain_idx == kNoDomain
                         ? dataset_.InternDomain("")
                         : dataset_.InternDomain(batch.domains[rec.domain_idx]);
      dataset_.Add(cr);

      auto [it, inserted] = device_index_.emplace(rec.device_id, dataset_.devices().size());
      if (inserted) {
        dataset_.devices().emplace_back();
      }
      mopcrowd::DeviceInfo& dev = dataset_.devices()[it->second];
      dev.country_id = country;
      ++dev.measurements;
    }
  }
  if (folds_applied_ != nullptr) {
    folds_applied_->Add(0, batch.records.size());
  }
}

moputil::Result<uint32_t> CollectorServer::IngestPayload(std::span<const uint8_t> payload,
                                                         std::vector<uint64_t> trace_ids) {
  auto batch = DecodeBatchPayload(payload);
  if (!batch.ok()) {
    ++counters_.batches_rejected;
    return batch.status();
  }
  uint32_t records = static_cast<uint32_t>(batch.value().records.size());
  if (CheckAndRecord(&seen_batches_, batch.value().device_id, batch.value().batch_seq)) {
    // Re-delivery of a batch whose ack went missing: confirm receipt but do
    // not fold the records a second time. Any trace ids that rode with it
    // already got their fold spans on first delivery.
    ++counters_.batches_duplicate;
    return records;
  }
  IngestBatch(batch.value());
  ++counters_.batches_ok;
  if (batch_records_ != nullptr) {
    batch_records_->Observe(0, static_cast<double>(records));
  }
  // The batch's traces reach kFolded now, and kDurable once a snapshot
  // covers the fold (durable_acks).
  int64_t now = TelemetryNow();
  for (uint64_t id : trace_ids) {
    traces_.AppendSpan(id, moptel::TraceHop::kFolded, now);
  }
  if (opts_.durable_acks) {
    durable_trace_pending_.insert(durable_trace_pending_.end(), trace_ids.begin(),
                                  trace_ids.end());
  }
  return records;
}

moputil::Status CollectorServer::IngestTelemetry(std::span<const uint8_t> payload,
                                                 std::vector<uint64_t>* trace_ids_out) {
  auto decoded = DecodeTelemetryPayload(payload);
  if (!decoded.ok()) {
    if (decoded.status().code() == moputil::StatusCode::kUnimplemented) {
      // Newer telemetry format than this collector speaks: lose the
      // enrichment, keep the stream (and the batch behind it).
      ++counters_.frames_skipped;
      return moputil::Status();
    }
    return decoded.status();
  }
  const WireTelemetry& t = decoded.value();
  ++counters_.telemetry_frames;
  if (CheckAndRecord(&seen_telemetry_, t.device_id, t.seq)) {
    ++counters_.telemetry_duplicate;
    return moputil::Status();
  }
  health_.Fold(t);
  int64_t now = TelemetryNow();
  for (const WireTraceEntry& te : t.traces) {
    // Device-side spans first (arrival order = lifecycle order), then the
    // collector's own receive stamp.
    for (const WireTraceHop& h : te.hops) {
      traces_.AddSpan(te.trace_id, te.device_hash, te.lane,
                      static_cast<moptel::TraceHop>(h.hop), h.time_ns);
    }
    traces_.AddSpan(te.trace_id, te.device_hash, te.lane,
                    moptel::TraceHop::kReceived, now);
    if (trace_ids_out != nullptr) {
      trace_ids_out->push_back(te.trace_id);
    }
  }
  return moputil::Status();
}

bool CollectorServer::CheckAndRecord(std::unordered_map<uint32_t, SeenBatches>* map,
                                     uint32_t device, uint32_t seq) {
  if (map->size() >= kMaxTrackedDevices && !map->contains(device)) {
    map->erase(map->begin());
  }
  SeenBatches& seen = (*map)[device];
  if (!seen.set.insert(seq).second) {
    return true;
  }
  seen.order.push_back(seq);
  if (seen.order.size() > kSeenBatchWindow) {
    seen.set.erase(seen.order.front());
    seen.order.pop_front();
  }
  return false;
}

}  // namespace mopcollect
