// Per-layer unit costs, measured from outside by timing each layer's public
// functions on inputs shaped like the workload's traffic (mean tun datagram
// size, event-heap depth; crowd-generated batches). Each cost is the least of
// five timed repetitions of a fixed-iteration loop, as the timed phase keeps
// each chunk's least CPU. Results feed the per-layer table and the
// attribution (count x unit cost) of the timed phase.
#include <algorithm>
#include <chrono>
#include <memory>
#include <vector>

#include "collector/server.h"
#include "collector/wire.h"
#include "core/tcp_state_machine.h"
#include "netpkt/checksum.h"
#include "netpkt/packet.h"
#include "netpkt/packet_buf.h"
#include "netpkt/tcp.h"
#include "netpkt/tcp_template.h"
#include "perfbench/runner/bench.h"
#include "perfbench/runner/crowd_gen.h"
#include "sim/actor.h"
#include "sim/event_loop.h"
#include "telemetry/metrics.h"
#include "util/rng.h"

namespace perfbench {
namespace {

constexpr int kReps = 5;

// Keeps timed results observable so the optimizer cannot drop the work.
volatile uint64_t g_sink = 0;

double NowNs() {
  return std::chrono::duration<double, std::nano>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Least over kReps of (loop time / ops); `body` runs `ops` operations.
template <typename Body>
double NsPerOp(double ops, Body body) {
  std::vector<double> reps;
  for (int i = 0; i < kReps; ++i) {
    double t0 = NowNs();
    body();
    reps.push_back((NowNs() - t0) / ops);
  }
  return *std::min_element(reps.begin(), reps.end());
}

moppkt::FlowKey BenchFlow() {
  moppkt::FlowKey f;
  f.local = {moppkt::IpAddr(10, 0, 0, 2), 40000};
  f.remote = {moppkt::IpAddr(93, 1, 2, 3), 443};
  return f;
}

std::vector<uint8_t> DataDatagram(size_t payload_bytes) {
  std::vector<uint8_t> payload(payload_bytes, 0x55);
  moppkt::TcpSegmentSpec spec;
  spec.src_port = 40000;
  spec.dst_port = 443;
  spec.seq = 101;
  spec.ack = 5001;
  spec.flags = moppkt::PshAckFlag();
  spec.payload = payload;
  return moppkt::BuildTcpDatagram(spec, moppkt::IpAddr(10, 0, 0, 2), moppkt::IpAddr(93, 1, 2, 3));
}

}  // namespace

void MeasureUnitCosts(const TrafficShape& shape, uint64_t seed, Result& r) {
  const size_t payload = static_cast<size_t>(
      std::clamp(shape.mean_packet_bytes - 40.0, 0.0, 1460.0));
  const size_t depth = static_cast<size_t>(std::max(shape.heap_depth, 1.0));

  // sim: one ScheduleAt plus its run, with `depth` other events pending.
  {
    mopsim::EventLoop loop;
    for (size_t i = 0; i < depth; ++i) {
      loop.ScheduleAt(moputil::kHour * 1000 + static_cast<int64_t>(i), [] {});
    }
    constexpr int kBurst = 64, kRounds = 2000;
    r.Set("sim.event_ns", NsPerOp(kBurst * kRounds, [&] {
            for (int round = 0; round < kRounds; ++round) {
              moputil::SimTime base = loop.Now();
              for (int j = 1; j <= kBurst; ++j) {
                loop.ScheduleAt(base + j, [] { g_sink = g_sink + 1; });
              }
              loop.RunUntil(base + kBurst);
            }
          }));
    mopsim::ActorLane lane(&loop, "unit-cost");
    r.Set("sim.actor_submit_ns", NsPerOp(kBurst * kRounds, [&] {
            for (int round = 0; round < kRounds; ++round) {
              for (int j = 0; j < kBurst; ++j) {
                lane.Submit(0, 10, [] { g_sink = g_sink + 1; });
              }
              loop.RunUntil(lane.free_at());
            }
          }));
  }

  // netpkt: parse at the workload's mean size and at 64 bytes, template
  // emit, checksum, pool acquire/release.
  {
    constexpr int kIters = 200000;
    std::vector<uint8_t> pkt = DataDatagram(payload);
    r.Set("netpkt.parse_ns", NsPerOp(kIters, [&] {
            for (int i = 0; i < kIters; ++i) {
              auto parsed = moppkt::ParsePacket(pkt);
              g_sink = g_sink + (parsed.ok() ? parsed.value().raw.size() : 0);
            }
          }));
    std::vector<uint8_t> small = DataDatagram(24);
    r.Set("netpkt.parse_64b_ns", NsPerOp(kIters, [&] {
            for (int i = 0; i < kIters; ++i) {
              auto parsed = moppkt::ParsePacket(small);
              g_sink = g_sink + (parsed.ok() ? parsed.value().raw.size() : 0);
            }
          }));
    std::vector<uint8_t> body(payload, 0x42);
    moppkt::TcpPacketTemplate tmpl(moppkt::IpAddr(93, 1, 2, 3), moppkt::IpAddr(10, 0, 0, 2), 443,
                                   40000);
    moppkt::PacketBuf out = moppkt::BufPool::Default().Acquire();
    uint16_t ip_id = 0;
    r.Set("netpkt.template_emit_ns", NsPerOp(kIters, [&] {
            for (int i = 0; i < kIters; ++i) {
              g_sink = g_sink + tmpl.Emit(1, 2, moppkt::PshAckFlag(), 65535, ip_id++, body,
                                          out.writable());
            }
          }));
    std::vector<uint8_t> kib(1024);
    moputil::Rng rng(seed);
    for (uint8_t& b : kib) {
      b = static_cast<uint8_t>(rng.NextU32());
    }
    r.Set("netpkt.checksum_ns_per_kib", NsPerOp(kIters, [&] {
            for (int i = 0; i < kIters; ++i) {
              g_sink = g_sink + moppkt::ChecksumPartial(kib, static_cast<uint32_t>(i));
            }
          }));
    r.Set("netpkt.bufpool_pair_ns", NsPerOp(kIters, [&] {
            for (int i = 0; i < kIters; ++i) {
              moppkt::PacketBuf b = moppkt::BufPool::Default().Acquire();
              g_sink = g_sink + b.capacity();
            }
          }));
  }

  // core: one in-order data segment through the relay's TCP state machine.
  {
    constexpr int kIters = 200000;
    std::vector<uint8_t> pkt = DataDatagram(payload);
    auto parsed = moppkt::ParsePacket(pkt);
    moppkt::TcpSegment seg = *parsed.value().tcp;
    mopeye::TcpStateMachine sm(BenchFlow(), 5000, 1460, 65535);
    moppkt::TcpSegment syn;
    syn.flags = moppkt::SynFlag();
    syn.seq = 100;
    sm.NoteSyn(syn);
    (void)sm.MakeSynAck();
    moppkt::TcpSegment ack;
    ack.flags = moppkt::AckFlag();
    ack.seq = 101;
    ack.ack = 5001;
    (void)sm.OnAppSegment(ack);
    uint32_t next = 101;
    r.Set("core.tcp_sm_ns", NsPerOp(kIters, [&] {
            for (int i = 0; i < kIters; ++i) {
              seg.seq = next;
              auto o = sm.OnAppSegment(seg);
              g_sink = g_sink + o.to_socket.size();
              next += static_cast<uint32_t>(payload);
            }
          }));
  }

  // telemetry: one stage-histogram observation of engine-like samples.
  {
    constexpr int kIters = 500000;
    moptel::Registry reg(1);
    moptel::Histogram* h = reg.AddHistogram("unit_cost_ms", "unit cost");
    moputil::Rng rng(seed ^ 0x7e1e);
    std::vector<double> xs(4096);
    for (double& x : xs) {
      x = rng.LogNormalMedian(0.009, 0.35);
    }
    r.Set("telemetry.observe_ns", NsPerOp(kIters, [&] {
            for (int i = 0; i < kIters; ++i) {
              h->Observe(0, xs[static_cast<size_t>(i) & 4095]);
            }
          }));
    g_sink = g_sink + h->Count();
  }
}

void MeasureCollectorUnitCosts(uint64_t seed, Result& r) {
  // One collector's share of crowd_ingest's 1000 batches from 400 devices.
  constexpr size_t kBatches = 333;
  CrowdGenerator gen(seed, 400);
  std::vector<std::vector<mopeye::Measurement>> batches;
  std::vector<std::pair<uint32_t, uint32_t>> ids;
  for (size_t i = 0; i < kBatches; ++i) {
    uint32_t device = 0, seq = 0;
    batches.push_back(gen.NextBatch(&device, &seq));
    ids.emplace_back(device, seq);
  }
  const double records = static_cast<double>(kBatches * CrowdGenerator::kRecordsPerBatch);

  std::vector<std::vector<uint8_t>> frames(kBatches);
  r.Set("collector.encode_ns_per_record", NsPerOp(records, [&] {
          for (size_t i = 0; i < kBatches; ++i) {
            mopcollect::BatchBuilder builder(ids[i].first, ids[i].second);
            for (const auto& m : batches[i]) {
              builder.Add(m);
            }
            frames[i] = mopcollect::EncodeBatchFrame(builder.TakeBatch());
          }
        }));
  std::vector<mopcollect::WireBatch> decoded(kBatches);
  r.Set("collector.decode_ns_per_record", NsPerOp(records, [&] {
          for (size_t i = 0; i < kBatches; ++i) {
            auto b = mopcollect::DecodeBatchPayload({frames[i].data() + 4, frames[i].size() - 4});
            if (b.ok()) {
              decoded[i] = std::move(b).value();
            }
          }
        }));

  // Each repetition folds into a fresh collector; the filled ones are
  // destroyed after the clock stops.
  std::vector<std::unique_ptr<mopcollect::CollectorServer>> servers;
  r.Set("collector.fold_ns_per_record", NsPerOp(records, [&] {
          servers.push_back(std::make_unique<mopcollect::CollectorServer>());
          for (const auto& b : decoded) {
            servers.back()->IngestBatch(b);
          }
        }));
  g_sink = g_sink + servers.back()->store().samples_folded();
}

}  // namespace perfbench
