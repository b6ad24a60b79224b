// google-benchmark micro benches over the relay's hot paths: packet
// parse/build, checksums, DNS codec, the TCP state machine, telemetry
// observations, the simulator's event core, the simulated kernel's socket
// receive path, and the whole engine relaying a bulk workload.
//
// The README performance section records before/after numbers for the
// zero-copy refactor; re-run with --benchmark_min_time=0.2s when updating it.
#include <benchmark/benchmark.h>

#include <array>
#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "android/tun_device.h"
#include "baselines/presets.h"
#include "core/ack_coalesce.h"
#include "core/tcp_state_machine.h"
#include "net/net_context.h"
#include "net/server.h"
#include "net/socket.h"
#include "netpkt/checksum.h"
#include "netpkt/dns.h"
#include "netpkt/packet.h"
#include "netpkt/packet_buf.h"
#include "netpkt/tcp.h"
#include "netpkt/tcp_template.h"
#include "sim/actor.h"
#include "sim/event_loop.h"
#include "telemetry/metrics.h"
#include "tests/test_world.h"
#include "util/rng.h"
#include "util/time.h"

namespace {

moppkt::FlowKey BenchFlow() {
  moppkt::FlowKey f;
  f.local = {moppkt::IpAddr(10, 0, 0, 2), 40000};
  f.remote = {moppkt::IpAddr(93, 1, 2, 3), 443};
  return f;
}

void BM_ChecksumPayload(benchmark::State& state) {
  std::vector<uint8_t> data(static_cast<size_t>(state.range(0)), 0xAB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(moppkt::Checksum(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_ChecksumPayload)->Arg(64)->Arg(1460);

// Forced-implementation variants so the scalar/SSE2/AVX2 gap is visible in
// one run; unsupported impls are skipped rather than silently falling back.
void BM_ChecksumPayloadImpl(benchmark::State& state) {
  auto impl = static_cast<moppkt::ChecksumImpl>(state.range(0));
  if (!moppkt::ChecksumImplSupported(impl)) {
    state.SkipWithError("impl not supported on this machine");
    return;
  }
  state.SetLabel(moppkt::ChecksumImplName(impl));
  std::vector<uint8_t> data(static_cast<size_t>(state.range(1)), 0xAB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(moppkt::ChecksumPartialWith(impl, data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(1));
}
BENCHMARK(BM_ChecksumPayloadImpl)
    ->ArgsProduct({{static_cast<int64_t>(moppkt::ChecksumImpl::kScalar),
                    static_cast<int64_t>(moppkt::ChecksumImpl::kSse2),
                    static_cast<int64_t>(moppkt::ChecksumImpl::kAvx2)},
                   {64, 1460, 9000}});

void BM_BuildTcpDatagram(benchmark::State& state) {
  std::vector<uint8_t> payload(static_cast<size_t>(state.range(0)), 0x42);
  moppkt::TcpSegmentSpec spec;
  spec.src_port = 443;
  spec.dst_port = 40000;
  spec.seq = 1;
  spec.ack = 2;
  spec.flags = moppkt::PshAckFlag();
  spec.payload = payload;
  moppkt::IpAddr src(93, 1, 2, 3), dst(10, 0, 0, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(moppkt::BuildTcpDatagram(spec, src, dst));
  }
}
BENCHMARK(BM_BuildTcpDatagram)->Arg(0)->Arg(1460);

void BM_ParsePacket(benchmark::State& state) {
  // View-based parse: no ownership transfer, no copy — the packet is parsed
  // in place exactly as the engine parses a pooled tun-read buffer.
  std::vector<uint8_t> payload(static_cast<size_t>(state.range(0)), 0x42);
  moppkt::TcpSegmentSpec spec;
  spec.src_port = 40000;
  spec.dst_port = 443;
  spec.flags = moppkt::PshAckFlag();
  spec.payload = payload;
  auto pkt = moppkt::BuildTcpDatagram(spec, moppkt::IpAddr(10, 0, 0, 2),
                                      moppkt::IpAddr(93, 1, 2, 3));
  for (auto _ : state) {
    benchmark::DoNotOptimize(moppkt::ParsePacket(pkt));
  }
}
BENCHMARK(BM_ParsePacket)->Arg(0)->Arg(1460);

void BM_BuildTcpDatagramInto(benchmark::State& state) {
  // In-place build into a pooled slab: the allocation-free variant of
  // BM_BuildTcpDatagram.
  std::vector<uint8_t> payload(static_cast<size_t>(state.range(0)), 0x42);
  moppkt::TcpSegmentSpec spec;
  spec.src_port = 443;
  spec.dst_port = 40000;
  spec.seq = 1;
  spec.ack = 2;
  spec.flags = moppkt::PshAckFlag();
  spec.payload = payload;
  moppkt::IpAddr src(93, 1, 2, 3), dst(10, 0, 0, 2);
  moppkt::BufPool pool;
  moppkt::PacketBuf buf = pool.Acquire();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        moppkt::BuildTcpDatagramInto(spec, src, dst, 7, 64, buf.writable()));
  }
}
BENCHMARK(BM_BuildTcpDatagramInto)->Arg(0)->Arg(1460);

void BM_TemplateEmit(benchmark::State& state) {
  // Per-flow prototype stamping (header memcpy + RFC 1624 incremental
  // checksums): what the engine does for every steady-state segment.
  std::vector<uint8_t> payload(static_cast<size_t>(state.range(0)), 0x42);
  moppkt::IpAddr src(93, 1, 2, 3), dst(10, 0, 0, 2);
  moppkt::TcpPacketTemplate tmpl(src, dst, 443, 40000);
  moppkt::BufPool pool;
  moppkt::PacketBuf buf = pool.Acquire();
  uint16_t ip_id = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tmpl.Emit(1, 2, moppkt::PshAckFlag(), 65535, ip_id++,
                                       payload, buf.writable()));
  }
}
BENCHMARK(BM_TemplateEmit)->Arg(0)->Arg(1460);

void BM_ChecksumIncremental(benchmark::State& state) {
  // RFC 1624 header-edit update vs re-summing the packet.
  uint16_t csum = 0x1234;
  uint16_t word = 0;
  for (auto _ : state) {
    csum = moppkt::ChecksumIncrementalUpdate(csum, word, static_cast<uint16_t>(word + 1));
    ++word;
    benchmark::DoNotOptimize(csum);
  }
}
BENCHMARK(BM_ChecksumIncremental);

void BM_RelayHotPath(benchmark::State& state) {
  // The full steady-state relay of one 1460-byte data segment: pooled parse
  // -> TCP state machine -> template-stamped ACK, zero allocations.
  std::vector<uint8_t> payload(1460, 0x55);
  moppkt::FlowKey flow = BenchFlow();
  moppkt::BufPool pool;

  // Prebuild the inbound data packet once; each iteration re-parses it from
  // a pooled buffer like a fresh tun read.
  moppkt::TcpSegmentSpec data_spec;
  data_spec.src_port = flow.local.port;
  data_spec.dst_port = flow.remote.port;
  data_spec.seq = 101;
  data_spec.ack = 5001;
  data_spec.flags = moppkt::PshAckFlag();
  data_spec.payload = payload;
  auto wire = moppkt::BuildTcpDatagram(data_spec, flow.local.ip, flow.remote.ip);
  moppkt::PacketBuf in = pool.AcquireCopy(wire);
  moppkt::PacketBuf out = pool.Acquire();
  moppkt::TcpPacketTemplate tmpl(flow.remote.ip, flow.local.ip, flow.remote.port,
                                 flow.local.port);

  mopeye::TcpStateMachine sm(flow, 5000, 1460, 65535);
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

  uint16_t ip_id = 0;
  uint32_t expected_seq = 101;
  for (auto _ : state) {
    auto parsed = moppkt::ParsePacket(in.bytes());
    auto seg = *parsed.value().tcp;
    seg.seq = expected_seq;  // keep the segment in-order across iterations
    auto sm_out = sm.OnAppSegment(seg);
    benchmark::DoNotOptimize(sm_out.to_socket.data());
    out.set_size(tmpl.Emit(sm.snd_nxt(), sm.rcv_nxt(), moppkt::AckFlag(), 65535,
                           ip_id++, {}, out.writable()));
    expected_seq += 1460;
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 1460);
}
BENCHMARK(BM_RelayHotPath);

// ---- Per-packet relay iteration, with and without telemetry ----
//
// The engine's actual per-segment path is wider than the BM_RelayHotPath
// kernel: every tun read is copied into a pooled buffer, hops the
// TunReader->lane queue, is lane-dispatched by flow hash, looked up in the
// flow table, parsed, run through the state machine, and the stamped reply
// hops the lane->TunWriter queue. Both hops are std::deque push/pop, the
// container the engine's ReadQueue and TunWriter use; no lock, because the
// lanes are actors on one loop thread. Both variants below run that full
// iteration and draw the same lognormal stage-cost samples the engine's
// DelayModels produce; the telemetry variant additionally performs the three
// per-segment stage observations (dispatch, parse, tcp) the engine adds with
// Config::telemetry on. The README records the throughput delta between the
// two; the acceptance bar is <= 2%.
struct RelayIterationFixture {
  static constexpr size_t kTickMask = 4095;

  std::vector<uint8_t> payload = std::vector<uint8_t>(1460, 0x55);
  moppkt::FlowKey flow = BenchFlow();
  moppkt::BufPool pool;
  std::deque<moppkt::PacketBuf> read_q;
  std::deque<moppkt::PacketBuf> write_q;
  std::unordered_map<moppkt::FlowKey, int, moppkt::FlowKeyHash> flows;
  std::vector<uint8_t> wire;
  moppkt::TcpPacketTemplate tmpl{flow.remote.ip, flow.local.ip, flow.remote.port,
                                 flow.local.port};
  mopeye::TcpStateMachine sm{flow, 5000, 1460, 65535};
  std::vector<int64_t> ticks = std::vector<int64_t>(kTickMask + 1);

  RelayIterationFixture() {
    moppkt::TcpSegmentSpec data_spec;
    data_spec.src_port = flow.local.port;
    data_spec.dst_port = flow.remote.port;
    data_spec.seq = 101;
    data_spec.ack = 5001;
    data_spec.flags = moppkt::PshAckFlag();
    data_spec.payload = payload;
    wire = moppkt::BuildTcpDatagram(data_spec, flow.local.ip, flow.remote.ip);

    // A realistic uid mix in the flow table so the lookup is not a
    // single-entry cache hit.
    for (int i = 0; i < 64; ++i) {
      moppkt::FlowKey k = flow;
      k.local.port = static_cast<uint16_t>(40000 + i);
      flows[k] = 10150 + (i % 4);
    }

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

    // Pre-sample stage costs from the same distribution family the engine's
    // cost models use (engine.cc samples these regardless of telemetry; the
    // telemetry variant pays only the ms conversion and the Observe).
    moputil::Rng rng(0x7e1e);
    moputil::LogNormalDelay cost(moputil::Micros(9), 0.35, moputil::Micros(3),
                                 moputil::Micros(120));
    for (int64_t& t : ticks) t = cost.Sample(rng);
  }

  // One full relay iteration; returns the sampled stage-cost base index.
  template <typename Telemetry>
  void Run(benchmark::State& state, Telemetry&& observe) {
    uint16_t ip_id = 0;
    uint32_t expected_seq = 101;
    size_t it = 0;
    for (auto _ : state) {
      moppkt::PacketBuf in = pool.AcquireCopy(wire);  // tun read -> pooled buf
      read_q.push_back(std::move(in));                // TunReader -> lane hop
      moppkt::PacketBuf pkt = std::move(read_q.front());
      read_q.pop_front();
      size_t lane = moppkt::FlowLaneOf(flow, 4);  // flow-affine dispatch
      benchmark::DoNotOptimize(lane);             // the engine computes this either way
      auto fit = flows.find(flow);                // per-packet flow-table lookup
      benchmark::DoNotOptimize(fit->second);
      auto parsed = moppkt::ParsePacket(pkt.bytes());
      auto seg = *parsed.value().tcp;
      seg.seq = expected_seq;  // keep the segment in-order across iterations
      auto sm_out = sm.OnAppSegment(seg);
      benchmark::DoNotOptimize(sm_out.to_socket.data());
      moppkt::PacketBuf out = pool.Acquire();
      out.set_size(tmpl.Emit(sm.snd_nxt(), sm.rcv_nxt(), moppkt::AckFlag(), 65535,
                             ip_id++, {}, out.writable()));
      write_q.push_back(std::move(out));  // lane -> TunWriter hop
      moppkt::PacketBuf flushed = std::move(write_q.front());
      write_q.pop_front();
      benchmark::DoNotOptimize(flushed.bytes().data());
      // The engine samples its three stage costs whether or not telemetry is
      // on; both variants consume them, only one observes them.
      size_t base = (it += 3) & kTickMask;
      int64_t dispatch_t = ticks[base];
      int64_t parse_t = ticks[(base + 1) & kTickMask];
      int64_t tcp_t = ticks[(base + 2) & kTickMask];
      benchmark::DoNotOptimize(dispatch_t + parse_t + tcp_t);
      observe(lane, dispatch_t, parse_t, tcp_t);
      expected_seq += 1460;
    }
    state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 1460);
  }
};

void BM_HistogramObserve(benchmark::State& state) {
  // One stage-histogram observation with engine-like lognormal samples: the
  // unit cost the per-segment telemetry hooks pay (cell-table fast path; the
  // exact log() fallback only on bucket-boundary slivers).
  moptel::Registry registry(4);
  moptel::Histogram* h = registry.AddHistogram("bench_ms", "bench");
  moputil::Rng rng(0x7e1e);
  moputil::LogNormalDelay cost(moputil::Micros(9), 0.35, moputil::Micros(3),
                               moputil::Micros(120));
  constexpr size_t kMask = 4095;
  std::vector<double> ms(kMask + 1);
  for (double& v : ms) v = moputil::ToMillis(cost.Sample(rng));
  size_t i = 0;
  for (auto _ : state) {
    h->Observe(1, ms[i++ & kMask]);
  }
}
BENCHMARK(BM_HistogramObserve);

void BM_RelayPerPacket(benchmark::State& state) {
  RelayIterationFixture fx;
  fx.Run(state, [](size_t, int64_t, int64_t, int64_t) {});
}
BENCHMARK(BM_RelayPerPacket);

void BM_RelayPerPacketTelemetry(benchmark::State& state) {
  RelayIterationFixture fx;
  moptel::Registry registry(4);
  moptel::Histogram* stage_dispatch =
      registry.AddHistogram("mopeye_relay_stage_dispatch_ms", "bench");
  moptel::Histogram* stage_parse =
      registry.AddHistogram("mopeye_relay_stage_parse_ms", "bench");
  moptel::Histogram* stage_tcp = registry.AddHistogram("mopeye_relay_stage_tcp_ms", "bench");
  fx.Run(state, [&](size_t lane, int64_t dispatch_t, int64_t parse_t, int64_t tcp_t) {
    stage_dispatch->Observe(lane, moputil::ToMillis(dispatch_t));
    stage_parse->Observe(lane, moputil::ToMillis(parse_t));
    stage_tcp->Observe(lane, moputil::ToMillis(tcp_t));
  });
}
BENCHMARK(BM_RelayPerPacketTelemetry);

// Engine-level relay throughput, telemetry off vs on. The per-packet kernel
// above is an adversarial floor: it strips a relayed segment down to ~250 ns,
// so even a few nanoseconds of instrumentation read as several percent. This
// one answers the question the README records — what Config::telemetry costs
// the actual relay — by pushing the same fixed bulk workload through the real
// engine and wall-clock timing it end to end.
void BM_EngineRelay(benchmark::State& state) {
  const bool telemetry = state.range(0) != 0;
  constexpr int kClients = 6;
  constexpr size_t kBytesPerClient = 2 * 1024 * 1024;
  uint64_t relayed = 0;
  for (auto _ : state) {
    moptest::WorldOptions opts;
    opts.seed = 0x5eed;
    opts.first_hop_one_way = moputil::Micros(200);
    opts.default_path_one_way = moputil::Millis(2);
    // Fat link so the relay engine, not the radio, is the bottleneck.
    opts.uplink_bps = 10e9;
    opts.downlink_bps = 10e9;
    moptest::TestWorld w(opts);
    mopeye::Config cfg = mopbase::MopEyeConfig();
    cfg.worker_lanes = 4;
    cfg.telemetry = telemetry;
    if (!w.StartEngine(cfg).ok()) {
      state.SkipWithError("engine start failed");
      return;
    }
    w.MakeApp(10150, "com.example.bulk", "Bulk");
    std::vector<std::shared_ptr<mopapps::AppTcpConnection>> conns;
    for (int i = 0; i < kClients; ++i) {
      auto addr = w.AddServer(
          moppkt::IpAddr(93, 70, 0, static_cast<uint8_t>(1 + i)), 80,
          moputil::Millis(2),
          [kBytesPerClient] { return std::make_unique<mopnet::BulkSourceBehavior>(kBytesPerClient); });
      auto conn = mopapps::AppTcpConnection::Create(&w.stack(), 10150);
      conns.push_back(conn);
      w.loop().Schedule(moputil::Millis(5) * i,
                        [conn, addr] { conn->Connect(addr, [](moputil::Status) {}); });
    }
    w.loop().RunUntil(moputil::Seconds(120));
    for (const auto& conn : conns) relayed += conn->bytes_received();
  }
  state.SetBytesProcessed(static_cast<int64_t>(relayed));
}
BENCHMARK(BM_EngineRelay)->Arg(0)->Arg(1)->ArgNames({"telemetry"})->Unit(benchmark::kMillisecond);

// The simulated kernel's receive path on its own, which perfbench can only
// time inside the whole relay: one BulkSourceBehavior server streams 2 MiB
// into one SocketChannel on a fresh EventLoop/NetContext, and every readable
// callback drains it into a buffer the size of the engine's socket read
// (kSocketBuffer, 65535 B). Each iteration also pays the handshake and one
// event per MSS segment, as the relay does.
void BM_SocketReceive(benchmark::State& state) {
  constexpr size_t kBytes = 2 * 1024 * 1024;
  constexpr size_t kSocketBuffer = 65535;
  const moppkt::SocketAddr server{moppkt::IpAddr(93, 70, 0, 1), 80};
  std::vector<uint8_t> buf(kSocketBuffer);
  uint64_t received = 0;
  for (auto _ : state) {
    mopsim::EventLoop loop;
    mopnet::PathTable paths;
    paths.SetDefault(std::make_shared<moputil::FixedDelay>(moputil::Millis(2)));
    mopnet::ServerFarm farm;
    farm.AddTcpServer(server, [kBytes] {
      return std::make_unique<mopnet::BulkSourceBehavior>(kBytes);
    });
    mopnet::NetworkProfile profile;
    profile.first_hop_one_way = std::make_shared<moputil::FixedDelay>(moputil::Micros(200));
    profile.uplink_bps = 10e9;
    profile.downlink_bps = 10e9;
    mopnet::NetContext ctx(&loop, profile, &paths, &farm, moputil::Rng(0x5eed));
    auto ch = mopnet::SocketChannel::Create(&ctx);
    mopnet::SocketChannel* raw = ch.get();
    ch->on_readable = [raw, &buf, &received] {
      for (size_t n = raw->Read(buf); n > 0; n = raw->Read(buf)) {
        received += n;
      }
    };
    ch->Connect(server, [](moputil::Status) {});
    loop.Run();
    benchmark::DoNotOptimize(buf.data());
    benchmark::ClobberMemory();
  }
  if (received != static_cast<uint64_t>(state.iterations()) * kBytes) {
    state.SkipWithError("stream did not arrive whole");
  }
  state.SetBytesProcessed(static_cast<int64_t>(received));
}
BENCHMARK(BM_SocketReceive)->Unit(benchmark::kMicrosecond);

// The event core on its own, as a hold model: Arg events stay pending, and
// each iteration schedules one at a random point ahead of the clock and runs
// the earliest (its task stops the loop, so Run() returns after one event).
// The args are the mean heap depths perfbench measured (attrib.heap_depth):
// 121 on relay_short_flows, 17,157 on relay_bulk.
void BM_EventLoopChurn(benchmark::State& state) {
  const auto depth = static_cast<size_t>(state.range(0));
  const auto horizon = static_cast<int64_t>(2 * depth);
  moputil::Rng rng(0xc4u);
  std::vector<moputil::SimDuration> delays(4096);
  for (auto& d : delays) {
    d = rng.UniformInt(1, horizon);
  }
  mopsim::EventLoop loop;
  auto stop = [&loop] { loop.Stop(); };
  for (size_t i = 0; i < depth; ++i) {
    loop.ScheduleAt(delays[i % delays.size()], stop);
  }
  size_t next = 0;
  for (auto _ : state) {
    loop.ScheduleAt(loop.Now() + delays[next++ & (delays.size() - 1)], stop);
    benchmark::DoNotOptimize(loop.Run());
  }
  if (loop.pending_events() != depth) {
    state.SkipWithError("heap depth drifted");
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_EventLoopChurn)->Arg(128)->Arg(16384);

// One ActorLane::Submit of a task with a 48-byte capture (a shared handle
// among it), plus the run of its event.
void BM_ActorLaneSubmit(benchmark::State& state) {
  mopsim::EventLoop loop;
  mopsim::ActorLane lane(&loop, "bench");
  uint64_t sink = 0;
  auto handle = std::make_shared<uint64_t>(3);
  std::array<uint64_t, 3> words = {1, 2, 3};
  auto task = [words, handle, sink_ptr = &sink] { *sink_ptr += words[2] + *handle; };
  static_assert(sizeof(task) == 48);
  for (auto _ : state) {
    lane.Submit(0, 1, task);
    loop.RunUntil(lane.free_at());
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_ActorLaneSubmit);

void BM_DnsEncodeDecode(benchmark::State& state) {
  auto query = moppkt::DnsMessage::Query(1234, "graph.facebook.com");
  for (auto _ : state) {
    auto bytes = moppkt::EncodeDns(query);
    benchmark::DoNotOptimize(moppkt::DecodeDns(bytes));
  }
}
BENCHMARK(BM_DnsEncodeDecode);

void BM_TcpStateMachineRelay(benchmark::State& state) {
  // One full handshake + data exchange per iteration.
  std::vector<uint8_t> payload(1460, 0x55);
  for (auto _ : state) {
    mopeye::TcpStateMachine sm(BenchFlow(), 5000, 1460, 65535);
    moppkt::TcpSegment syn;
    syn.src_port = 40000;
    syn.dst_port = 443;
    syn.flags = moppkt::SynFlag();
    syn.seq = 100;
    syn.mss = 1460;
    sm.NoteSyn(syn);
    benchmark::DoNotOptimize(sm.MakeSynAck());
    moppkt::TcpSegment ack;
    ack.flags = moppkt::AckFlag();
    ack.seq = 101;
    ack.ack = 5001;
    benchmark::DoNotOptimize(sm.OnAppSegment(ack));
    moppkt::TcpSegment data;
    data.flags = moppkt::PshAckFlag();
    data.seq = 101;
    data.ack = 5001;
    data.payload = payload;
    benchmark::DoNotOptimize(sm.OnAppSegment(data));
    benchmark::DoNotOptimize(sm.MakeData(payload));
  }
}
BENCHMARK(BM_TcpStateMachineRelay);

// The gather-tail coalescing decision (thread model v4): for each emitted
// pure ACK, compare its GatherMeta against the buffer tail and either
// replace the tail (same flow, superseded cumulative ACK) or append. Arg 0
// is an ACK run split across flows (never coalesces — the miss path); arg 1
// is a same-flow run (always coalesces — the hit path).
void BM_AckCoalesce(benchmark::State& state) {
  const bool same_flow = state.range(0) != 0;
  constexpr size_t kRun = 64;
  std::vector<mopeye::GatherMeta> metas(kRun);
  for (size_t i = 0; i < kRun; ++i) {
    moppkt::TcpSegmentSpec spec;
    spec.src_port = 443;
    spec.dst_port = same_flow ? 40000 : static_cast<uint16_t>(40000 + i);
    spec.seq = 5001;
    spec.ack = 101 + static_cast<uint32_t>(i) * 1460;
    spec.flags = moppkt::AckFlag();
    moppkt::FlowKey flow = BenchFlow();
    flow.local.port = spec.dst_port;
    metas[i] = mopeye::MetaForSpec(flow, spec);
  }
  std::vector<mopeye::GatherMeta> gather;
  gather.reserve(kRun);
  uint64_t coalesced = 0;
  for (auto _ : state) {
    gather.clear();
    for (const auto& meta : metas) {
      if (!gather.empty() && mopeye::AckSupersedes(gather.back(), meta)) {
        gather.back() = meta;
        ++coalesced;
      } else {
        gather.push_back(meta);
      }
    }
    benchmark::DoNotOptimize(gather.size());
  }
  state.counters["coalesced_per_run"] =
      state.iterations() > 0
          ? static_cast<double>(coalesced) / static_cast<double>(state.iterations())
          : 0;
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * kRun);
}
BENCHMARK(BM_AckCoalesce)->Arg(0)->Arg(1)->ArgNames({"same_flow"});

// Multi-queue tun fan-out + round-robin drain (thread model v4): inject a
// 64-packet burst of 16 distinct flows (flow-hash classified onto the
// queues) and drain it with one ReadOutgoingBurst sweep. Arg = attached
// queue count; 1 is the paper's single shared fd.
void BM_QueueFlush(benchmark::State& state) {
  const size_t queues = static_cast<size_t>(state.range(0));
  constexpr size_t kBurst = 64;
  constexpr size_t kFlows = 16;
  moppkt::BufPool pool;
  std::vector<std::vector<uint8_t>> wires;
  for (size_t i = 0; i < kFlows; ++i) {
    moppkt::TcpSegmentSpec spec;
    spec.src_port = static_cast<uint16_t>(40000 + i);
    spec.dst_port = 443;
    spec.seq = 101;
    spec.ack = 5001;
    spec.flags = moppkt::AckFlag();
    wires.push_back(moppkt::BuildTcpDatagram(spec, moppkt::IpAddr(10, 0, 0, 2),
                                             moppkt::IpAddr(93, 1, 2, 3)));
  }
  mopsim::EventLoop loop;
  mopdroid::TunDevice tun(&loop);
  if (queues > 1) {
    tun.ConfigureQueues(queues);
  }
  std::vector<mopdroid::TunDevice::OutPacket> burst;
  burst.reserve(kBurst);
  for (auto _ : state) {
    for (size_t i = 0; i < kBurst; ++i) {
      tun.InjectOutgoing(pool.AcquireCopy(wires[i % kFlows]));
    }
    burst.clear();
    while (tun.ReadOutgoingBurst(kBurst, &burst) > 0) {
      burst.clear();
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * kBurst);
}
BENCHMARK(BM_QueueFlush)->Arg(1)->Arg(8)->ArgNames({"queues"});

}  // namespace

BENCHMARK_MAIN();
