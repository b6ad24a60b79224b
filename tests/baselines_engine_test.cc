// Baseline models and engine stress/failure-injection tests.
#include <gtest/gtest.h>

#include <cmath>

#include "baselines/mobiperf.h"
#include "baselines/presets.h"
#include "tests/test_world.h"

namespace {

using moptest::TestWorld;
using moptest::WorldOptions;
using moputil::Millis;

TEST(MobiPerf, OverstatesRttByTensOfMs) {
  WorldOptions opts;
  opts.first_hop_one_way = Millis(1);
  TestWorld w(opts);
  auto addr = w.AddServer(moppkt::IpAddr(93, 80, 0, 1), 80, Millis(18));
  mopbase::MobiPerfProber prober(&w.device().net(),
                                 mopbase::MobiPerfProber::Options::Default(),
                                 moputil::Rng(17));
  std::vector<double> runs;
  prober.Measure(addr, [&](std::vector<double> r) { runs = std::move(r); });
  w.loop().Run();
  ASSERT_EQ(runs.size(), 10u);
  double mean = 0;
  for (double r : runs) {
    mean += r;
  }
  mean /= 10.0;
  // Wire RTT is 38 ms; MobiPerf's reading must exceed it by >= 8 ms (the
  // paper saw 12-79 ms of inflation).
  EXPECT_GT(mean, 38.0 + 8.0);
  EXPECT_LT(mean, 38.0 + 90.0);
}

TEST(MobiPerf, MsFlooringQuantizes) {
  WorldOptions opts;
  TestWorld w(opts);
  auto addr = w.AddServer(moppkt::IpAddr(93, 80, 0, 2), 80, Millis(5));
  auto options = mopbase::MobiPerfProber::Options::Default();
  options.floor_to_ms = true;
  mopbase::MobiPerfProber prober(&w.device().net(), options, moputil::Rng(18));
  std::vector<double> runs;
  prober.Measure(addr, [&](std::vector<double> r) { runs = std::move(r); });
  w.loop().Run();
  for (double r : runs) {
    EXPECT_EQ(r, std::floor(r));  // integral milliseconds only
  }
}

TEST(Presets, HaystackUndoesTheOptimizations) {
  auto cfg = mopbase::HaystackConfig();
  EXPECT_EQ(cfg.read_mode, mopeye::Config::TunReadMode::kSleepAdaptive);
  EXPECT_EQ(cfg.put_scheme, mopeye::Config::PutScheme::kOldPut);
  EXPECT_EQ(cfg.mapping, mopeye::Config::MappingStrategy::kCacheBased);
  EXPECT_EQ(cfg.protect_mode, mopeye::Config::ProtectMode::kPerSocket);
  EXPECT_NE(cfg.content_inspection, nullptr);
  EXPECT_GT(cfg.extra_memory_base, 0u);
  auto mop = mopbase::MopEyeConfig();
  EXPECT_EQ(mop.read_mode, mopeye::Config::TunReadMode::kBlocking);
  EXPECT_EQ(mop.content_inspection, nullptr);
}

TEST(Presets, HaystackRelayStillDeliversCorrectly) {
  TestWorld w;
  ASSERT_TRUE(w.StartEngine(mopbase::HaystackConfig()).ok());
  auto addr = w.AddServer(moppkt::IpAddr(93, 80, 0, 3), 7, Millis(5),
                          [] { return std::make_unique<mopnet::EchoBehavior>(); });
  auto* app = w.MakeApp(10330, "com.example.hay", "Hay");
  auto c = std::shared_ptr<mopapps::AppConn>(app->CreateConn().release());
  size_t got = 0;
  c->on_data = [&](size_t n) { got += n; };
  c->Connect(addr, [c](moputil::Status st) {
    ASSERT_TRUE(st.ok());
    c->SendBytes(30000);
  });
  w.RunMs(10000);
  EXPECT_EQ(got, 30000u);  // slower, but correct
}

TEST(EngineStress, ManyConcurrentClients) {
  TestWorld w;
  ASSERT_TRUE(w.StartEngine().ok());
  std::vector<moppkt::SocketAddr> addrs;
  for (int i = 0; i < 4; ++i) {
    addrs.push_back(w.AddServer(moppkt::IpAddr(93, 81, 0, static_cast<uint8_t>(i + 1)), 80,
                                Millis(5 + i * 7)));
  }
  std::vector<mopapps::App*> apps;
  for (int i = 0; i < 6; ++i) {
    apps.push_back(w.MakeApp(10340 + i, "com.example.stress" + std::to_string(i),
                             "Stress" + std::to_string(i)));
  }
  std::vector<std::shared_ptr<mopapps::AppConn>> conns;
  int completed = 0;
  for (int round = 0; round < 8; ++round) {
    for (size_t a = 0; a < apps.size(); ++a) {
      auto c = std::shared_ptr<mopapps::AppConn>(apps[a]->CreateConn().release());
      auto addr = addrs[(round + a) % addrs.size()];
      c->Connect(addr, [c, &completed](moputil::Status st) {
        if (st.ok()) {
          ++completed;
          c->Send(mopnet::EncodeSizedRequest(5000));
        }
      });
      conns.push_back(c);
    }
    w.RunMs(120);
  }
  w.RunMs(10000);
  EXPECT_EQ(completed, 48);
  EXPECT_EQ(w.engine().store().CountKind(mopeye::MeasureKind::kTcpConnect), 48u);
  EXPECT_EQ(w.engine().mapper().misattributions(), 0);
  EXPECT_EQ(w.engine().counters().parse_errors, 0u);
  // Every measurement names the right app for its uid.
  for (const auto& r : w.engine().store().records()) {
    ASSERT_GE(r.uid, 10340);
    EXPECT_EQ(r.app, "Stress" + std::to_string(r.uid - 10340));
  }
}

TEST(EngineStress, StopMidTrafficIsClean) {
  TestWorld w;
  ASSERT_TRUE(w.StartEngine().ok());
  auto addr = w.AddServer(moppkt::IpAddr(93, 81, 0, 9), 80, Millis(10));
  auto* app = w.MakeApp(10350, "com.example.midstop", "MidStop");
  auto c = std::shared_ptr<mopapps::AppConn>(app->CreateConn().release());
  c->Connect(addr, [c](moputil::Status st) {
    if (st.ok()) {
      c->Send(mopnet::EncodeSizedRequest(2000000));
    }
  });
  w.RunMs(60);  // mid-transfer
  w.engine().Stop();
  w.RunMs(2000);
  EXPECT_FALSE(w.engine().running());
  EXPECT_EQ(w.engine().active_clients(), 0u);
}

TEST(EngineStress, NonDnsUdpIsRelayed) {
  TestWorld w;
  ASSERT_TRUE(w.StartEngine().ok());
  // A UDP echo service on port 9999.
  moppkt::SocketAddr udp_server{moppkt::IpAddr(93, 81, 0, 10), 9999};
  w.paths().SetPath(udp_server.ip, std::make_shared<moputil::FixedDelay>(Millis(5)));
  w.farm().AddUdpServer(udp_server, [](const moppkt::SocketAddr&,
                                       std::span<const uint8_t> payload,
                                       const mopnet::UdpReplyFn& reply) {
    reply(std::vector<uint8_t>(payload.begin(), payload.end()), Millis(1));
  });
  // App sends a raw UDP datagram through the tunnel and awaits the echo.
  uint16_t port = w.stack().AllocatePort();
  bool got_echo = false;
  w.stack().RegisterUdp(port, [&](const moppkt::ParsedPacket& pkt) {
    got_echo = pkt.is_udp() && pkt.udp->payload.size() == 4;
  });
  std::vector<uint8_t> payload{1, 2, 3, 4};
  w.stack().Send(moppkt::BuildUdpDatagram(port, 9999, payload, w.device().tun_address(),
                                          udp_server.ip));
  w.RunMs(2000);
  EXPECT_TRUE(got_echo);
  // Not DNS: no DNS measurement must appear.
  EXPECT_EQ(w.engine().store().CountKind(mopeye::MeasureKind::kDns), 0u);
}

TEST(EngineStress, NonDnsUdpAssociationIsCollectedAfterItGoesIdle) {
  TestWorld w;
  ASSERT_TRUE(w.StartEngine().ok());
  moppkt::SocketAddr udp_server{moppkt::IpAddr(93, 81, 0, 12), 9999};
  w.paths().SetPath(udp_server.ip, std::make_shared<moputil::FixedDelay>(Millis(5)));
  // The echo server notes the source port of every datagram: the port of the
  // relay's external socket for the association.
  std::vector<uint16_t> source_ports;
  w.farm().AddUdpServer(udp_server, [&](const moppkt::SocketAddr& from,
                                        std::span<const uint8_t> payload,
                                        const mopnet::UdpReplyFn& reply) {
    source_ports.push_back(from.port);
    reply(std::vector<uint8_t>(payload.begin(), payload.end()), Millis(1));
  });
  uint16_t port = w.stack().AllocatePort();
  w.stack().RegisterUdp(port, [](const moppkt::ParsedPacket&) {});
  auto send = [&] {
    std::vector<uint8_t> payload{1, 2, 3, 4};
    w.stack().Send(moppkt::BuildUdpDatagram(port, 9999, payload, w.device().tun_address(),
                                            udp_server.ip));
  };
  // One datagram every 50 s from 0 s to 200 s: the flow is active at every
  // idle check, including the second one, at about 120 s.
  for (int i = 0; i < 5; ++i) {
    send();
    w.RunMs(50000);
  }
  // Silent from 200 s on, then one more datagram at 400 s.
  w.RunMs(150000);
  send();
  w.RunMs(2000);
  ASSERT_EQ(source_ports.size(), 6u);
  for (size_t i = 1; i < 5; ++i) {
    EXPECT_EQ(source_ports[i], source_ports[0]) << "datagram " << i;
  }
  // The association went idle and was collected; the new one has a new
  // socket.
  EXPECT_NE(source_ports[5], source_ports[0]);
}

TEST(EngineStress, MeasurementCsvExportRoundTrips) {
  TestWorld w;
  ASSERT_TRUE(w.StartEngine().ok());
  auto addr = w.AddServer(moppkt::IpAddr(93, 81, 0, 11), 80, Millis(10));
  auto* app = w.MakeApp(10360, "com.example.csv", "CsvApp");
  auto c = std::shared_ptr<mopapps::AppConn>(app->CreateConn().release());
  c->Connect(addr, [](moputil::Status) {});
  w.RunMs(1000);
  std::string csv = w.engine().store().ToCsv();
  EXPECT_NE(csv.find("time_ms,kind,uid,app"), std::string::npos);
  EXPECT_NE(csv.find("CsvApp"), std::string::npos);
  EXPECT_NE(csv.find("93.81.0.11:80"), std::string::npos);
}

}  // namespace
