#include "core/tun_reader.h"

#include <algorithm>

#include "util/logging.h"

namespace mopeye {

namespace {
// Haystack-style adaptive polling: reset to the minimum sleep on traffic,
// double on every empty poll up to the maximum.
constexpr moputil::SimDuration kAdaptiveMinSleep = moputil::Millis(1);
constexpr moputil::SimDuration kAdaptiveMaxSleep = moputil::Millis(100);
}  // namespace

TunReader::TunReader(mopsim::EventLoop* loop, mopdroid::TunDevice* tun, const Config* config,
                     moputil::Rng rng, std::vector<LaneSink> sinks)
    : loop_(loop),
      tun_(tun),
      config_(config),
      rng_(rng),
      sinks_(std::move(sinks)),
      lane_(loop, "TunReader"),
      adaptive_sleep_(kAdaptiveMinSleep) {
  MOP_CHECK(tun != nullptr);
  MOP_CHECK(!sinks_.empty());
  for (const LaneSink& sink : sinks_) {
    MOP_CHECK(sink.queue != nullptr);
    MOP_CHECK(sink.selector != nullptr);
  }
  burst_.reserve(static_cast<size_t>(std::max(1, config_->tun_read_batch)));
  dirty_lanes_.reserve(sinks_.size());
  lane_dirty_.assign(sinks_.size(), 0);
}

void TunReader::Start() {
  MOP_CHECK(!started_);
  started_ = true;
  if (config_->read_mode == Config::TunReadMode::kBlocking) {
    tun_->on_outgoing_ready = [this] { OnTunReadable(); };
    blocked_ = true;
    // Catch anything injected before we attached.
    if (tun_->HasOutgoing()) {
      OnTunReadable();
    }
  } else {
    SchedulePoll(config_->read_mode == Config::TunReadMode::kSleepFixed
                     ? config_->sleep_interval
                     : adaptive_sleep_);
  }
}

void TunReader::RequestStop() { stopped_ = true; }

void TunReader::DispatchBurst(std::vector<mopdroid::TunDevice::OutPacket> burst) {
  dispatch_affinity_.Check();
  moputil::SimTime now = loop_->Now();
  for (mopdroid::TunDevice::OutPacket& pkt : burst) {
    packets_read_.Inc(0);
    retrieval_delay_ms_.Add(moputil::ToMillis(now - pkt.injected_at));
    ReadQueue::Item item;
    item.t = now;
    item.pkt = std::move(pkt.data);
    size_t lane = 0;
    if (sinks_.size() > 1) {
      // Flow-affine classification: a header peek, not a full parse —
      // checksum verification and L4 parsing still happen on the owning
      // lane. Unclassifiable packets (the parse will reject them anyway) go
      // to lane 0.
      auto flow = moppkt::PeekFlow(item.pkt.bytes());
      if (flow.ok()) {
        item.flow = flow.value();
        item.flow_valid = true;
        lane = RouteOf(item.flow);
      }
    }
    sinks_[lane].queue->Append(std::move(item));
    if (!lane_dirty_[lane]) {
      lane_dirty_[lane] = 1;
      dirty_lanes_.push_back(lane);
    }
  }
  // One commit (high-water update) and one wakeup per touched lane per
  // burst — §3.2's "reuse the owning lane's selector waiting point", amortized.
  for (size_t lane : dirty_lanes_) {
    lane_dirty_[lane] = 0;
    sinks_[lane].queue->Commit();
    sinks_[lane].selector->Wakeup();
  }
  dirty_lanes_.clear();
  if (steal_board_ != nullptr && sinks_.size() > 1) {
    ProcessStealRequests();
  }
}

// ---- Elephant-flow work stealing ----

void TunReader::ProcessStealRequests() {
  moputil::SimTime now = loop_->Now();
  for (size_t victim = 0; victim < sinks_.size(); ++victim) {
    mopcc::StealBoard<moppkt::FlowKey>::Publication pub;
    if (!steal_board_->Take(victim, &pub)) {
      continue;
    }
    // Stale publications: the flow already re-homed, or a previous handoff
    // for it is still in flight (a flow must change owner one step at a
    // time, or two lanes could both think they are installing it).
    if (RouteOf(pub.flow) != victim || pending_handoffs_.count(pub.flow) != 0) {
      continue;
    }
    // Thief selection: the lane with the smallest simulated backlog. Queue
    // depth is no use here — lanes drain their read queue into their actor
    // queue at dispatch, so the durable overload signal is the actor's
    // free-time horizon.
    auto backlog = [&](size_t i) -> moputil::SimDuration {
      if (sinks_[i].lane == nullptr) {
        return 0;
      }
      moputil::SimTime free_at = sinks_[i].lane->free_at();
      return free_at > now ? free_at - now : 0;
    };
    moputil::SimDuration victim_backlog = backlog(victim);
    if (victim_backlog <= 0) {
      continue;  // load subsided since the publish
    }
    size_t thief = victim;
    moputil::SimDuration best = victim_backlog;
    for (size_t i = 0; i < sinks_.size(); ++i) {
      if (i == victim) {
        continue;
      }
      moputil::SimDuration b = backlog(i);
      if (b < best) {
        best = b;
        thief = i;
      }
    }
    // Only steal into a meaningfully idler lane: a handoff has a cost (two
    // tokens, a state install, parked packets) and re-homing between equally
    // loaded lanes just thrashes.
    if (thief == victim || best * 2 > victim_backlog) {
      continue;
    }
    InitiateSteal(pub.flow, victim, thief);
  }
}

void TunReader::InitiateSteal(const moppkt::FlowKey& flow, size_t victim, size_t thief) {
  // Routing flips first: every packet of this flow dispatched from here on
  // goes to the thief, where the kHandoffIn token (queued before any of
  // them) parks it until the victim's handoff completes.
  overrides_[flow] = thief;
  pending_handoffs_.insert(flow);
  steals_.Inc(0);
  moputil::SimTime now = loop_->Now();

  ReadQueue::Item in;
  in.t = now;
  in.kind = ReadQueue::Kind::kHandoffIn;
  in.flow = flow;
  in.flow_valid = true;
  in.peer_lane = victim;
  sinks_[thief].queue->Append(std::move(in));
  sinks_[thief].queue->Commit();
  sinks_[thief].selector->Wakeup();

  // The victim's token sits behind every packet of the flow it still owns:
  // when it pops the token, its share of the flow is fully processed (lane
  // FIFO), so handing the state over cannot reorder the flow.
  ReadQueue::Item out;
  out.t = now;
  out.kind = ReadQueue::Kind::kHandoffOut;
  out.flow = flow;
  out.flow_valid = true;
  out.peer_lane = thief;
  sinks_[victim].queue->Append(std::move(out));
  sinks_[victim].queue->Commit();
  sinks_[victim].selector->Wakeup();
}

// ---- Blocking mode ----

void TunReader::OnTunReadable() {
  if (!started_ || !blocked_ || draining_) {
    return;
  }
  blocked_ = false;
  draining_ = true;
  lane_.Submit(config_->costs.thread_wake->Sample(rng_), 0, [this] { DrainLoop(); });
}

void TunReader::DrainLoop() {
  if (stopped_ || tun_->closed()) {
    draining_ = false;
    return;  // the dummy packet (if any) released us; exit the thread
  }
  burst_.clear();
  size_t n = tun_->ReadOutgoingBurst(static_cast<size_t>(std::max(1, config_->tun_read_batch)),
                                     &burst_);
  if (n == 0) {
    // Queue drained: back into the blocking read().
    draining_ = false;
    blocked_ = true;
    return;
  }
  // One syscall-class cost for the burst plus the marginal per-mmsghdr cost
  // for each extra packet. At tun_read_batch == 1 this is draw-for-draw the
  // paper's per-packet read() — the baselines depend on that.
  moputil::SimDuration read_cost = config_->costs.tun_read_syscall->Sample(rng_);
  for (size_t i = 1; i < n; ++i) {
    read_cost += config_->costs.tun_read_batch_extra->Sample(rng_);
  }
  if (stage_hist_ != nullptr) {
    stage_hist_->Observe(0, moputil::ToMillis(read_cost));
  }
  lane_.Submit(0, read_cost, [this, burst = std::move(burst_)]() mutable {
    DispatchBurst(std::move(burst));
    DrainLoop();
  });
}

// ---- Polling modes (ToyVpn / Haystack baselines) ----

void TunReader::SchedulePoll(moputil::SimDuration sleep) {
  if (stopped_ || tun_->closed()) {
    return;
  }
  loop_->Schedule(sleep, [this] { Poll(); });
}

void TunReader::Poll() {
  if (stopped_ || tun_->closed()) {
    return;
  }
  size_t drained = 0;
  size_t batch = static_cast<size_t>(std::max(1, config_->tun_read_batch));
  while (true) {
    burst_.clear();
    size_t n = tun_->ReadOutgoingBurst(batch, &burst_);
    if (n == 0) {
      break;
    }
    drained += n;
    moputil::SimDuration read_cost = config_->costs.tun_read_syscall->Sample(rng_);
    for (size_t i = 1; i < n; ++i) {
      read_cost += config_->costs.tun_read_batch_extra->Sample(rng_);
    }
    if (stage_hist_ != nullptr) {
      stage_hist_->Observe(0, moputil::ToMillis(read_cost));
    }
    lane_.Submit(0, read_cost,
                 [this, burst = std::move(burst_)]() mutable { DispatchBurst(std::move(burst)); });
  }
  if (drained == 0) {
    // An empty read() still costs a syscall — the polling CPU tax Table 4
    // charges Haystack for.
    empty_polls_.Inc(0);
    lane_.Occupy(0, config_->costs.tun_read_syscall->Sample(rng_));
  }

  moputil::SimDuration next;
  if (config_->read_mode == Config::TunReadMode::kSleepFixed) {
    // ToyVpn's "intelligent sleep": skip the sleep while packets keep coming.
    next = drained > 0 ? moputil::Micros(50) : config_->sleep_interval;
  } else {
    if (drained > 0) {
      adaptive_sleep_ = kAdaptiveMinSleep;
    } else {
      adaptive_sleep_ = std::min(adaptive_sleep_ * 2, kAdaptiveMaxSleep);
    }
    next = adaptive_sleep_;
  }
  SchedulePoll(next);
}

}  // namespace mopeye
