// Deterministic kernels for the thread-model-v4 egress path: the multi-queue
// tun fan-out/round-robin drain and the per-flush virtual-time cost law
// (shared vs exclusively-owned queue). Numbering starts at 2: kernel 1
// replayed a gather-buffer ACK coalescing rule the engine no longer has.
//
// Everything here is virtual time or pure logic drawn from seeded RNGs, so
// the output is byte-stable and checked in under bench/baselines/ — unlike
// micro_hotpath's wall-clock kernels, diff_baselines.sh gates this binary.
#include <cstdio>
#include <string>
#include <vector>

#include "android/tun_device.h"
#include "baselines/presets.h"
#include "bench/bench_util.h"
#include "netpkt/packet.h"
#include "netpkt/packet_buf.h"
#include "netpkt/tcp.h"
#include "sim/event_loop.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/time.h"

namespace {

void RunQueueFanoutTable(uint64_t seed) {
  mopbench::PrintHeader("Egress kernel 2",
                        "multi-queue fan-out + round-robin drain (flow-hash sharding)");

  constexpr size_t kFlows = 64;
  constexpr size_t kPackets = 512;
  moputil::Table t({"queues", "per-queue packets (min..max)", "drain sweeps", "fifo ok"});
  for (size_t queues : {1u, 2u, 4u, 8u}) {
    mopsim::EventLoop loop;
    mopdroid::TunDevice tun(&loop);
    if (queues > 1) {
      tun.ConfigureQueues(queues);
    }
    moppkt::BufPool pool;
    moputil::Rng rng(seed ^ queues);
    // Per-flow sequence stamps so the drain can prove per-flow FIFO order.
    std::vector<uint32_t> next_seq(kFlows, 101);
    std::vector<uint16_t> order(kPackets);
    for (auto& flow_idx : order) {
      flow_idx = static_cast<uint16_t>(
          rng.UniformInt(0, static_cast<int64_t>(kFlows) - 1));
    }
    for (uint16_t flow_idx : order) {
      moppkt::TcpSegmentSpec spec;
      spec.src_port = static_cast<uint16_t>(40000 + flow_idx);
      spec.dst_port = 443;
      spec.seq = next_seq[flow_idx];
      next_seq[flow_idx] += 1460;
      spec.flags = moppkt::AckFlag();
      tun.InjectOutgoing(pool.AcquireCopy(moppkt::BuildTcpDatagram(
          spec, moppkt::IpAddr(10, 0, 0, 2), moppkt::IpAddr(93, 1, 2, 3))));
    }
    uint64_t qmin = kPackets, qmax = 0;
    for (size_t q = 0; q < queues; ++q) {
      uint64_t n = tun.queue_packets_out(q);
      qmin = n < qmin ? n : qmin;
      qmax = n > qmax ? n : qmax;
    }
    // Drain in bursts of 32; per-flow seq numbers must come back monotonic.
    std::vector<uint32_t> seen_seq(kFlows, 0);
    bool fifo_ok = true;
    size_t sweeps = 0;
    std::vector<mopdroid::TunDevice::OutPacket> burst;
    while (tun.ReadOutgoingBurst(32, &burst) > 0) {
      ++sweeps;
      for (const auto& pkt : burst) {
        auto parsed = moppkt::ParsePacket(pkt.data.bytes());
        uint16_t flow_idx = static_cast<uint16_t>(parsed.value().tcp->src_port - 40000);
        if (parsed.value().tcp->seq <= seen_seq[flow_idx]) {
          fifo_ok = false;
        }
        seen_seq[flow_idx] = parsed.value().tcp->seq;
      }
      burst.clear();
    }
    t.AddRow({std::to_string(queues),
              std::to_string(qmin) + ".." + std::to_string(qmax),
              std::to_string(sweeps), fifo_ok ? "yes" : "NO"});
  }
  std::printf("%s\n", t.Render().c_str());
}

void RunFlushCostTable(uint64_t seed) {
  mopbench::PrintHeader("Egress kernel 3",
                        "gathered flush virtual cost: shared fd vs exclusive queue");

  const mopeye::CostModels costs = mopbase::MopEyeConfig().costs;
  constexpr int kFlushes = 20000;
  moputil::Table t({"burst", "shared p50", "shared p99", "shared p99.9", "exclusive p50",
                    "exclusive p99", "exclusive p99.9"});
  for (size_t burst : {1u, 8u, 64u}) {
    moputil::Samples shared, exclusive;
    moputil::Rng rng(seed ^ (burst * 0x9e3779b9u));
    for (int i = 0; i < kFlushes; ++i) {
      // Same draw order as MopEyeEngine::FlushLaneWrites: syscall, then the
      // within-queue contention stall (skipped on an exclusive queue), then
      // one marginal cost per extra packet.
      moputil::SimDuration base = costs.tun_write_syscall->Sample(rng);
      moputil::SimDuration stall = costs.tun_write_contention->Sample(rng);
      moputil::SimDuration extras = 0;
      for (size_t p = 1; p < burst; ++p) {
        extras += costs.tun_write_batch_extra->Sample(rng);
      }
      shared.Add(moputil::ToMillis(base + stall + extras));
      exclusive.Add(moputil::ToMillis(base + extras));
    }
    t.AddRow({std::to_string(burst), mopbench::Ms(shared.Percentile(50)),
              mopbench::Ms(shared.Percentile(99)), mopbench::Ms(shared.Percentile(99.9)),
              mopbench::Ms(exclusive.Percentile(50)), mopbench::Ms(exclusive.Percentile(99)),
              mopbench::Ms(exclusive.Percentile(99.9))});
  }
  std::printf("%s\n", t.Render().c_str());
  std::printf("Expected shape: identical p50s (the stall is a tail effect; 97.2%% of the\n"
              "contention mixture is zero), with the shared columns carrying the multi-ms\n"
              "stall bands at p99/p99.9 that the exclusive queue never draws.\n");
}

}  // namespace

int main(int argc, char** argv) {
  auto flags = mopbench::ParseFlags(argc, argv);
  RunQueueFanoutTable(flags.seed);
  RunFlushCostTable(flags.seed);
  return 0;
}
