#include "core/packet_mapper.h"

#include "util/logging.h"

namespace mopeye {

namespace {
// Sleep slice a non-parsing socket-connect thread waits for the working
// thread's results (§3.3 picks 50 ms).
constexpr moputil::SimDuration kLazyWaitSlice = moputil::Millis(50);
}  // namespace

PacketToAppMapper::PacketToAppMapper(mopdroid::AndroidDevice* device, const Config* config)
    : device_(device), config_(config) {
  MOP_CHECK(device != nullptr);
  MOP_CHECK(config != nullptr);
}

PacketToAppMapper::Outcome PacketToAppMapper::Lookup(const moppkt::FlowKey& flow) const {
  Outcome out;
  auto it = snapshot_.by_flow.find({flow.local.port, flow.remote});
  if (it != snapshot_.by_flow.end()) {
    out.uid = it->second;
    auto info = device_->package_manager().GetPackageForUid(out.uid);
    if (info) {
      out.label = info->label;
    }
  }
  return out;
}

void PacketToAppMapper::Finish(Outcome outcome, moputil::SimTime requested_at,
                               const std::function<void(Outcome)>& done) {
  outcome.total_latency = device_->loop()->Now() - requested_at;
  overhead_ms_.Add(moputil::ToMillis(outcome.parse_cost));
  done(outcome);
}

void PacketToAppMapper::Map(const moppkt::FlowKey& flow, mopsim::ActorLane* lane,
                            std::function<void(Outcome)> done) {
  ++requests_;
  moputil::SimTime requested_at = device_->loop()->Now();

  if (config_->mapping == Config::MappingStrategy::kCacheBased) {
    auto cached = remote_cache_.find(flow.remote);
    if (cached != remote_cache_.end()) {
      Outcome out;
      out.uid = cached->second;
      auto info = device_->package_manager().GetPackageForUid(out.uid);
      if (info) {
        out.label = info->label;
      }
      // Ground truth from the kernel: was the cached uid actually right?
      int truth = device_->conn_table().LookupUid(flow.proto, flow.local.port, flow.remote);
      if (truth >= 0 && truth != out.uid) {
        ++misattributions_;
      }
      Finish(out, requested_at, done);
      return;
    }
    RunParse(flow, lane, std::move(done), requested_at, 0);
    return;
  }

  if (config_->mapping == Config::MappingStrategy::kNaivePerSyn) {
    RunParse(flow, lane, std::move(done), requested_at, 0);
    return;
  }

  // kLazy: one parser, everyone else sleeps on its snapshot (§3.3). The
  // kernel row exists from the app's connect() call — before the SYN even
  // reaches the relay — so any snapshot containing this flow is usable.
  // (Unlike the remote-endpoint cache, a flow-keyed snapshot can only go
  // stale through ephemeral-port reuse, which takes far longer than a
  // snapshot's lifetime.)
  if (snapshot_.taken_at >= 0) {
    Outcome out = Lookup(flow);
    if (out.uid >= 0) {
      Finish(out, requested_at, done);
      return;
    }
  }
  if (parse_in_progress_) {
    WaitForParse(flow, lane, std::move(done), requested_at, 0);
    return;
  }
  RunParse(flow, lane, std::move(done), requested_at, 0);
}

void PacketToAppMapper::RunParse(const moppkt::FlowKey& flow, mopsim::ActorLane* lane,
                                 std::function<void(Outcome)> done,
                                 moputil::SimTime requested_at, int wait_slices) {
  parse_in_progress_ = true;
  ++parses_;
  moputil::SimDuration cost =
      device_->proc_net().SampleParseCost(flow.proto, device_->rng());
  lane->Submit(0, cost, [this, flow, done = std::move(done), requested_at, wait_slices,
                         cost]() {
    // The actual parse: render the pseudo-files and run the real text parser
    // over them, exactly as the engine would on-device.
    Snapshot snap;
    for (moppkt::IpProto proto : {moppkt::IpProto::kTcp, moppkt::IpProto::kUdp}) {
      std::string text = device_->proc_net().Render(proto);
      auto entries = mopdroid::ParseProcNet(text);
      if (!entries.ok()) {
        continue;
      }
      for (const auto& e : entries.value()) {
        snap.by_flow[{e.local.port, e.remote}] = e.uid;
      }
    }
    snap.taken_at = device_->loop()->Now();
    snapshot_ = std::move(snap);
    parse_in_progress_ = false;

    Outcome out = Lookup(flow);
    out.performed_parse = true;
    out.parse_cost = cost;
    out.wait_slices = wait_slices;
    if (config_->mapping == Config::MappingStrategy::kCacheBased && out.uid >= 0) {
      remote_cache_[flow.remote] = out.uid;
    }
    Finish(out, requested_at, done);
  });
}

void PacketToAppMapper::WaitForParse(const moppkt::FlowKey& flow, mopsim::ActorLane* lane,
                                     std::function<void(Outcome)> done,
                                     moputil::SimTime requested_at, int wait_slices) {
  // Sleeping, not spinning: the thread is off-CPU for the slice (§3.3 picks
  // 50 ms as comfortably larger than a parse).
  device_->loop()->Schedule(
      kLazyWaitSlice,
      [this, flow, lane, done = std::move(done), requested_at, wait_slices]() mutable {
        if (parse_in_progress_) {
          if (wait_slices >= 4) {
            // Parser is stuck behind something; parse ourselves rather than
            // starve the measurement.
            RunParse(flow, lane, std::move(done), requested_at, wait_slices + 1);
            return;
          }
          WaitForParse(flow, lane, std::move(done), requested_at, wait_slices + 1);
          return;
        }
        Outcome out = Lookup(flow);
        if (out.uid < 0) {
          // Snapshot predates our connection row; do our own parse.
          RunParse(flow, lane, std::move(done), requested_at, wait_slices + 1);
          return;
        }
        out.wait_slices = wait_slices + 1;
        Finish(out, requested_at, done);
      });
}

}  // namespace mopeye
