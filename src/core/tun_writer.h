// Tunnel write path (paper §3.5.1).
//
// Egress is queue-sharded (thread model v4): worker lanes with
// Config::lane_tun_write flush their own gathered bursts to their assigned
// tun queue (Config::tun_queues), and only packets from non-lane producers —
// connect threads, DNS temp threads — come through here, onto queue 0. In
// the paper model (tun_queues = 1, lane_tun_write off) queue 0 IS the single
// shared fd and every packet takes this path. Two schemes:
//
//  * kDirectWrite — the producing thread writes the fd itself: it eats the
//    write() cost plus any contention stall on the shared fd.
//  * kQueueWrite  — producers enqueue; the dedicated TunWriter thread drains.
//    The enqueue itself has two variants: oldPut (wait/notify: the producer
//    pays a notify() with a 1-5 ms tail whenever the writer is parked) and
//    newPut (the paper's sleep counter: the writer spins a bounded number of
//    check rounds before parking, so producers almost never pay a notify).
//
// With Config::worker_lanes > 1 every lane feeds this one writer, so it
// drains its whole queue per writev-style submission instead of paying one
// write() per packet; one lane keeps the paper's per-packet write().
//
// Producer overhead per packet is recorded — those samples ARE Table 1.
#ifndef MOPEYE_CORE_TUN_WRITER_H_
#define MOPEYE_CORE_TUN_WRITER_H_

#include <deque>

#include "android/tun_device.h"
#include "concurrent/lane_affinity.h"
#include "core/config.h"
#include "netpkt/packet_buf.h"
#include "sim/actor.h"
#include "util/stats.h"

namespace moptel {
class Histogram;
}  // namespace moptel

namespace mopeye {

class TunWriter {
 public:
  TunWriter(mopsim::EventLoop* loop, mopdroid::TunDevice* tun, const Config* config,
            moputil::Rng rng);

  // Hands one packet to the write path, called by a producing lane at the
  // instant it finishes building the packet. The pooled buffer travels to
  // the tun write untouched (no copy, no allocation). Returns the
  // producer-visible overhead; the caller must occupy its own lane for that
  // long (the engine submits a follow-up task).
  moputil::SimDuration SubmitPacket(moppkt::PacketBuf packet);

  void Stop();

  const moputil::Samples& producer_overhead_ms() const { return producer_overhead_ms_; }
  // Delay of each actual write() to the tunnel (the TunWriter thread's cost
  // under queueWrite; equal to the producer overhead under directWrite).
  // With worker_lanes > 1 (batched drains), one sample covers a whole burst.
  const moputil::Samples& tunnel_write_ms() const { return tunnel_write_ms_; }
  size_t packets_written() const { return packets_written_; }
  // Write submissions issued (== packets_written unless batching coalesced
  // bursts into single writev-style drains).
  size_t write_bursts() const { return write_bursts_; }
  size_t queue_high_water() const { return queue_high_water_; }
  moputil::SimDuration writer_busy_time() const { return lane_.busy_time() + spin_busy_; }
  // Times the writer actually parked in wait() (newPut should keep this low).
  int waits() const { return waits_; }
  // Times a producer paid a notify because the writer was parked.
  int notifies() const { return notifies_; }

  // Telemetry: every tunnel write cost (per packet, or per burst with
  // batching) lands in `h` (lane 0 — the writer is a single actor). Null
  // (the default) disables observation.
  void set_stage_histogram(moptel::Histogram* h) { stage_hist_ = h; }

 private:
  enum class WriterState { kProcessing, kSpinning, kWaiting };

  void Pump();

  mopsim::EventLoop* loop_;
  mopdroid::TunDevice* tun_;
  const Config* config_;
  moputil::Rng rng_;
  mopsim::ActorLane lane_;
  // Debug-only: the drain loop (Pump) belongs to the writer context alone;
  // producers only ever touch the queue through SubmitPacket.
  mopcc::LaneAffinityChecker pump_affinity_;

  std::deque<moppkt::PacketBuf> queue_;
  WriterState state_ = WriterState::kWaiting;
  uint64_t spin_epoch_ = 0;  // invalidates a scheduled spin-expiry
  moputil::SimTime spin_started_ = 0;
  moputil::SimDuration spin_busy_ = 0;  // CPU burned in check loops
  bool stopped_ = false;

  // directWrite contention tracking on the shared fd.
  moputil::SimTime fd_busy_until_ = 0;

  moputil::Samples producer_overhead_ms_;
  moputil::Samples tunnel_write_ms_;
  size_t packets_written_ = 0;
  size_t write_bursts_ = 0;
  // Exported by the engine via AddExternalGauge (the writer predates the
  // registry and its accessor is part of the resources() report contract).
  size_t queue_high_water_ = 0;  // moplint-allow: raw-counter
  int waits_ = 0;
  int notifies_ = 0;
  moptel::Histogram* stage_hist_ = nullptr;
};

}  // namespace mopeye

#endif  // MOPEYE_CORE_TUN_WRITER_H_
