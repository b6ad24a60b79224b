// Unit/ablation tests for the §3 mechanisms: mapping strategies, tun read
// modes, and the write schemes.
#include <gtest/gtest.h>

#include "baselines/presets.h"
#include "tests/test_world.h"

namespace {

using moptest::TestWorld;
using moptest::WorldOptions;
using moputil::Millis;

// ---- Mapping strategies (§3.3) ----

TEST(Mapper, CacheStrategyMisattributesSharedEndpoints) {
  // The paper's example: the Facebook app and Chrome hitting the same server
  // ip:port must not share a cached uid.
  TestWorld w;
  mopeye::Config cfg;
  cfg.mapping = mopeye::Config::MappingStrategy::kCacheBased;
  ASSERT_TRUE(w.StartEngine(cfg).ok());
  auto addr = w.AddServer(moppkt::IpAddr(31, 13, 79, 251), 443, Millis(10));
  auto* facebook = w.MakeApp(10220, "com.facebook.katana", "Facebook");
  auto* chrome = w.MakeApp(10221, "com.android.chrome", "Chrome");

  auto c1 = std::shared_ptr<mopapps::AppConn>(facebook->CreateConn().release());
  c1->Connect(addr, [](moputil::Status) {});
  w.RunMs(1000);
  auto c2 = std::shared_ptr<mopapps::AppConn>(chrome->CreateConn().release());
  c2->Connect(addr, [](moputil::Status) {});
  w.RunMs(1000);

  // The cache maps the shared remote endpoint to Facebook's uid, so Chrome's
  // connection is misattributed — and the engine knows it.
  EXPECT_EQ(w.engine().mapper().misattributions(), 1);
  const auto& recs = w.engine().store().records();
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(recs[1].app, "Facebook");  // wrong on purpose
}

TEST(Mapper, LazyStrategyNeverMisattributes) {
  TestWorld w;
  ASSERT_TRUE(w.StartEngine().ok());
  auto addr = w.AddServer(moppkt::IpAddr(31, 13, 79, 251), 443, Millis(10));
  auto* facebook = w.MakeApp(10220, "com.facebook.katana", "Facebook");
  auto* chrome = w.MakeApp(10221, "com.android.chrome", "Chrome");
  auto c1 = std::shared_ptr<mopapps::AppConn>(facebook->CreateConn().release());
  c1->Connect(addr, [](moputil::Status) {});
  w.RunMs(1000);
  auto c2 = std::shared_ptr<mopapps::AppConn>(chrome->CreateConn().release());
  c2->Connect(addr, [](moputil::Status) {});
  w.RunMs(1000);
  EXPECT_EQ(w.engine().mapper().misattributions(), 0);
  const auto& recs = w.engine().store().records();
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(recs[0].app, "Facebook");
  EXPECT_EQ(recs[1].app, "Chrome");
}

TEST(Mapper, LazySharesOneParseAcrossConcurrentConnects) {
  TestWorld w;
  ASSERT_TRUE(w.StartEngine().ok());
  auto addr = w.AddServer(moppkt::IpAddr(93, 50, 0, 1), 80, Millis(30));
  auto* app = w.MakeApp(10222, "com.example.burst", "Burst");
  // Six simultaneous connections: one parse should serve (most of) them.
  std::vector<std::shared_ptr<mopapps::AppConn>> conns;
  for (int i = 0; i < 6; ++i) {
    auto c = std::shared_ptr<mopapps::AppConn>(app->CreateConn().release());
    c->Connect(addr, [](moputil::Status) {});
    conns.push_back(c);
  }
  w.RunMs(3000);
  EXPECT_EQ(w.engine().mapper().requests(), 6);
  EXPECT_LE(w.engine().mapper().parses(), 2);
  EXPECT_EQ(w.engine().store().size(), 6u);
  for (const auto& r : w.engine().store().records()) {
    EXPECT_EQ(r.app, "Burst");
  }
}

TEST(Mapper, NaiveStrategyBlocksMainWorker) {
  // Naive parsing occupies the MainWorker for multiple ms per SYN.
  TestWorld w;
  mopeye::Config cfg;
  cfg.mapping = mopeye::Config::MappingStrategy::kNaivePerSyn;
  ASSERT_TRUE(w.StartEngine(cfg).ok());
  auto addr = w.AddServer(moppkt::IpAddr(93, 50, 0, 2), 80, Millis(10));
  auto* app = w.MakeApp(10223, "com.example.slow", "Slow");
  auto c = std::shared_ptr<mopapps::AppConn>(app->CreateConn().release());
  c->Connect(addr, [](moputil::Status) {});
  w.RunMs(1000);
  EXPECT_EQ(w.engine().mapper().parses(), 1);
  EXPECT_GT(w.engine().mapper().overhead_ms().Max(), 3.0);
}

// ---- Tun read modes (§3.1) ----

TEST(TunRead, BlockingRetrievalIsSubMillisecond) {
  TestWorld w;
  ASSERT_TRUE(w.StartEngine().ok());
  auto addr = w.AddServer(moppkt::IpAddr(93, 51, 0, 1), 80, Millis(10));
  auto* app = w.MakeApp(10230, "com.example.fast", "Fast");
  for (int i = 0; i < 10; ++i) {
    auto c = std::shared_ptr<mopapps::AppConn>(app->CreateConn().release());
    c->Connect(addr, [c](moputil::Status) { c->Close(); });
    w.RunMs(300);
  }
  const auto& delays = w.engine().tun_reader()->retrieval_delay_ms();
  ASSERT_GT(delays.count(), 0u);
  EXPECT_LT(delays.Percentile(99), 1.0);
}

TEST(TunRead, FixedSleepRetrievalIsTensOfMs) {
  TestWorld w;
  mopeye::Config cfg = mopbase::ToyVpnConfig();
  ASSERT_TRUE(w.StartEngine(cfg).ok());
  auto addr = w.AddServer(moppkt::IpAddr(93, 51, 0, 2), 80, Millis(10));
  auto* app = w.MakeApp(10231, "com.example.toy", "Toy");
  for (int i = 0; i < 8; ++i) {
    auto c = std::shared_ptr<mopapps::AppConn>(app->CreateConn().release());
    c->Connect(addr, [](moputil::Status) {});
    w.RunMs(400);
  }
  const auto& delays = w.engine().tun_reader()->retrieval_delay_ms();
  ASSERT_GT(delays.count(), 0u);
  // SYNs land mid-sleep: mean retrieval tens of ms, far beyond blocking mode.
  EXPECT_GT(delays.Mean(), 10.0);
}

TEST(TunRead, PollingBurnsIdleCpu) {
  WorldOptions opts;
  TestWorld w(opts);
  mopeye::Config cfg;
  cfg.read_mode = mopeye::Config::TunReadMode::kSleepFixed;
  cfg.sleep_interval = Millis(5);
  ASSERT_TRUE(w.StartEngine(cfg).ok());
  w.RunMs(5000);  // no traffic at all
  EXPECT_GT(w.engine().tun_reader()->empty_polls(), 500u);
  EXPECT_GT(w.engine().tun_reader()->busy_time(), 0);
}

TEST(TunRead, BlockingIdleCostsNothing) {
  TestWorld w;
  ASSERT_TRUE(w.StartEngine().ok());
  w.RunMs(5000);
  EXPECT_EQ(w.engine().tun_reader()->empty_polls(), 0u);
  EXPECT_EQ(w.engine().tun_reader()->busy_time(), 0);
}

// ---- Write schemes (§3.5.1) ----

TEST(TunWrite, NewPutAvoidsNotifies) {
  auto run = [](mopeye::Config::PutScheme scheme) {
    TestWorld w(WorldOptions{});
    mopeye::Config cfg;
    cfg.put_scheme = scheme;
    EXPECT_TRUE(w.StartEngine(cfg).ok());
    auto addr = w.AddServer(moppkt::IpAddr(93, 52, 0, 1), 80, Millis(10));
    auto* app = w.MakeApp(10240, "com.example.writer", "Writer");
    for (int i = 0; i < 6; ++i) {
      auto c = std::shared_ptr<mopapps::AppConn>(app->CreateConn().release());
      c->Connect(addr, [c](moputil::Status st) {
        if (st.ok()) {
          c->Send(mopnet::EncodeSizedRequest(40000));
        }
      });
      w.RunMs(500);
    }
    return std::make_pair(w.engine().tun_writer()->notifies(),
                          w.engine().tun_writer()->packets_written());
  };
  auto [old_notifies, old_packets] = run(mopeye::Config::PutScheme::kOldPut);
  auto [new_notifies, new_packets] = run(mopeye::Config::PutScheme::kNewPut);
  EXPECT_GT(old_packets, 0u);
  EXPECT_GT(new_packets, 0u);
  EXPECT_LT(new_notifies, old_notifies);
}

TEST(TunWrite, AllSchemesDeliverAllPackets) {
  for (auto scheme : {mopeye::Config::WriteScheme::kDirectWrite,
                      mopeye::Config::WriteScheme::kQueueWrite}) {
    TestWorld w;
    mopeye::Config cfg;
    cfg.write_scheme = scheme;
    ASSERT_TRUE(w.StartEngine(cfg).ok());
    auto addr = w.AddServer(moppkt::IpAddr(93, 52, 0, 2), 7, Millis(5),
                            [] { return std::make_unique<mopnet::EchoBehavior>(); });
    auto* app = w.MakeApp(10241, "com.example.all", "All");
    auto c = std::shared_ptr<mopapps::AppConn>(app->CreateConn().release());
    size_t got = 0;
    c->on_data = [&](size_t n) { got += n; };
    c->Connect(addr, [c](moputil::Status st) {
      ASSERT_TRUE(st.ok());
      c->SendBytes(20000);
    });
    w.RunMs(5000);
    EXPECT_EQ(got, 20000u) << "scheme " << static_cast<int>(scheme);
  }
}

TEST(TunWrite, BatchedDrainCoalescesBurstsAndDeliversEverything) {
  // More than one worker lane makes the TunWriter drain its whole queue per
  // writev-style submission: the burst of data packets a 40 KB download
  // produces must arrive intact while costing measurably fewer write
  // submissions than packets written.
  TestWorld w;
  mopeye::Config cfg;
  cfg.worker_lanes = 2;
  ASSERT_TRUE(w.StartEngine(cfg).ok());
  auto addr = w.AddServer(moppkt::IpAddr(93, 52, 0, 3), 7, Millis(5),
                          [] { return std::make_unique<mopnet::EchoBehavior>(); });
  auto* app = w.MakeApp(10242, "com.example.batch", "Batch");
  auto c = std::shared_ptr<mopapps::AppConn>(app->CreateConn().release());
  size_t got = 0;
  c->on_data = [&](size_t n) { got += n; };
  c->Connect(addr, [c](moputil::Status st) {
    ASSERT_TRUE(st.ok());
    c->SendBytes(40000);
  });
  w.RunMs(5000);
  EXPECT_EQ(got, 40000u);
  auto* writer = w.engine().tun_writer();
  EXPECT_GT(writer->packets_written(), 0u);
  EXPECT_LT(writer->write_bursts(), writer->packets_written());
}

// ---- Timestamp ablation sweep (§2.4) ----

class TimestampSweep : public ::testing::TestWithParam<double> {};

TEST_P(TimestampSweep, BlockingModeWithinOneMsAtAnyRtt) {
  double one_way = GetParam();
  TestWorld w;
  ASSERT_TRUE(w.StartEngine().ok());
  auto addr = w.AddServer(moppkt::IpAddr(93, 53, 0, 1), 80, moputil::Millis(one_way));
  auto* app = w.MakeApp(10250, "com.example.sweep", "Sweep");
  for (int i = 0; i < 5; ++i) {
    auto c = std::shared_ptr<mopapps::AppConn>(app->CreateConn().release());
    c->Connect(addr, [](moputil::Status) {});
    w.RunMs(one_way * 2 + 200);
  }
  auto rtts = w.engine().store().RttsMs();
  auto wire = w.device().net().capture().AllHandshakeRtts(addr);
  ASSERT_EQ(wire.size(), rtts.count());
  double wire_mean = 0;
  for (auto r : wire) {
    wire_mean += moputil::ToMillis(r);
  }
  wire_mean /= static_cast<double>(wire.size());
  EXPECT_NEAR(rtts.Mean(), wire_mean, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Rtts, TimestampSweep, ::testing::Values(1.0, 5.0, 25.0, 120.0, 250.0));

}  // namespace
