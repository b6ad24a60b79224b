#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/tcp_state_machine.h"
#include "netpkt/checksum.h"
#include "netpkt/dns.h"
#include "netpkt/ip.h"
#include "netpkt/packet.h"
#include "netpkt/packet_buf.h"
#include "netpkt/tcp.h"
#include "netpkt/tcp_template.h"
#include "netpkt/udp.h"
#include "util/rng.h"

// Global allocation counter for the zero-allocation hot-path test. Overriding
// operator new/delete in the test binary counts every heap allocation made by
// any code linked into it; the test measures the delta across the relay
// chain.
namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

// GCC pairs the replaced operator new with the malloc-family it sees inside
// and warns about new/free mismatches at inlined call sites; the pairing is
// intentional here (new=malloc, delete=free), so silence the false positive.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new[](size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new(size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void* operator new[](size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

#pragma GCC diagnostic pop

namespace {

using moppkt::IpAddr;

TEST(IpAddr, ParseAndFormat) {
  auto a = IpAddr::Parse("10.0.0.2");
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a.value().ToString(), "10.0.0.2");
  EXPECT_EQ(a.value().value(), 0x0A000002u);
}

TEST(IpAddr, ParseRejectsMalformed) {
  EXPECT_FALSE(IpAddr::Parse("").ok());
  EXPECT_FALSE(IpAddr::Parse("1.2.3").ok());
  EXPECT_FALSE(IpAddr::Parse("1.2.3.4.5").ok());
  EXPECT_FALSE(IpAddr::Parse("256.1.1.1").ok());
  EXPECT_FALSE(IpAddr::Parse("a.b.c.d").ok());
  EXPECT_FALSE(IpAddr::Parse("1..2.3").ok());
}

TEST(IpAddr, ConstexprCtor) {
  constexpr IpAddr a(192, 168, 1, 1);
  EXPECT_EQ(a.ToString(), "192.168.1.1");
}

TEST(Checksum, Rfc1071Example) {
  // Classic example from RFC 1071 §3.
  std::vector<uint8_t> data{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7};
  uint32_t partial = moppkt::ChecksumPartial(data);
  EXPECT_EQ(moppkt::ChecksumFinish(partial), static_cast<uint16_t>(~0xddf2 & 0xffff));
}

TEST(Checksum, OddLengthPads) {
  std::vector<uint8_t> data{0xab};
  EXPECT_EQ(moppkt::Checksum(data), static_cast<uint16_t>(~0xab00 & 0xffff));
}

TEST(Checksum, VerifiesToZero) {
  // Any buffer with its own checksum folded in verifies to 0.
  moputil::Rng rng(3);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<uint8_t> data(2 * (2 + rng.UniformInt(0, 20)), 0);
    for (auto& b : data) {
      b = static_cast<uint8_t>(rng.NextU32());
    }
    data[0] = data[1] = 0;
    uint16_t c = moppkt::Checksum(data);
    data[0] = static_cast<uint8_t>(c >> 8);
    data[1] = static_cast<uint8_t>(c & 0xff);
    EXPECT_EQ(moppkt::Checksum(data), 0);
  }
}

// Every available SIMD implementation must be bit-identical to the scalar
// oracle on every alignment, length, odd tail, and chained-initial case the
// relay can produce (and then some).
TEST(ChecksumSimd, ActiveImplIsSupported) {
  moppkt::ChecksumImpl active = moppkt::ActiveChecksumImpl();
  EXPECT_TRUE(moppkt::ChecksumImplSupported(active));
  EXPECT_TRUE(moppkt::ChecksumImplSupported(moppkt::ChecksumImpl::kScalar));
  EXPECT_STRNE(moppkt::ChecksumImplName(active), "unknown");
  // The public entry point must match whatever the active impl computes.
  std::vector<uint8_t> data(1460);
  moputil::Rng rng(7);
  for (auto& b : data) {
    b = static_cast<uint8_t>(rng.NextU32());
  }
  EXPECT_EQ(moppkt::ChecksumPartial(data),
            moppkt::ChecksumPartialWith(active, data));
  EXPECT_EQ(moppkt::ChecksumPartial(data),
            moppkt::ChecksumPartialScalar(data));
}

TEST(ChecksumSimd, AllImplsMatchScalarAcrossAlignmentsAndLengths) {
  constexpr size_t kMax = 9000;
  constexpr size_t kMaxOffset = 64;
  std::vector<uint8_t> arena(kMax + kMaxOffset + 1);
  moputil::Rng rng(20160516);
  for (auto& b : arena) {
    b = static_cast<uint8_t>(rng.NextU32());
  }
  // Adversarial region for the fold/carry paths: a run of 0xff makes the
  // intermediate sums hug the ≡0 (mod 0xffff) boundary.
  for (size_t i = 256; i < 512; ++i) {
    arena[i] = 0xff;
  }

  const moppkt::ChecksumImpl impls[] = {moppkt::ChecksumImpl::kSse2,
                                        moppkt::ChecksumImpl::kAvx2};
  // Dense lengths through the vector-width boundaries, then strides to 9000,
  // plus the MTU/jumbo sizes the relay actually emits.
  std::vector<size_t> lengths;
  for (size_t len = 0; len <= 130; ++len) {
    lengths.push_back(len);
  }
  for (size_t len = 131; len <= kMax; len += 257) {
    lengths.push_back(len);
  }
  for (size_t len : {511u, 512u, 513u, 1459u, 1460u, 1461u, 8999u, 9000u}) {
    lengths.push_back(len);
  }

  for (size_t offset = 0; offset <= kMaxOffset; ++offset) {
    if (offset > 16 && offset != 32 && offset != 63 && offset != 64) {
      continue;  // dense through 16, then the interesting cache-line cases
    }
    for (size_t len : lengths) {
      std::span<const uint8_t> region(arena.data() + offset, len);
      uint32_t want = moppkt::ChecksumPartialScalar(region);
      uint32_t want_chained = moppkt::ChecksumPartialScalar(region, 0x1f2f3);
      for (moppkt::ChecksumImpl impl : impls) {
        if (!moppkt::ChecksumImplSupported(impl)) {
          continue;
        }
        ASSERT_EQ(moppkt::ChecksumPartialWith(impl, region), want)
            << moppkt::ChecksumImplName(impl) << " offset=" << offset
            << " len=" << len;
        ASSERT_EQ(moppkt::ChecksumPartialWith(impl, region, 0x1f2f3),
                  want_chained)
            << moppkt::ChecksumImplName(impl) << " chained offset=" << offset
            << " len=" << len;
      }
    }
  }
}

TEST(ChecksumSimd, RandomFuzzWithChainedInitials) {
  moputil::Rng rng(42);
  const moppkt::ChecksumImpl impls[] = {moppkt::ChecksumImpl::kSse2,
                                        moppkt::ChecksumImpl::kAvx2};
  for (int trial = 0; trial < 2000; ++trial) {
    size_t len = rng.UniformInt(0, 2048);
    size_t offset = rng.UniformInt(0, 32);
    std::vector<uint8_t> arena(offset + len);
    for (auto& b : arena) {
      b = static_cast<uint8_t>(rng.NextU32());
    }
    uint32_t initial = rng.NextU32() & 0x3ffff;
    std::span<const uint8_t> region(arena.data() + offset, len);
    uint32_t want = moppkt::ChecksumPartialScalar(region, initial);
    for (moppkt::ChecksumImpl impl : impls) {
      if (!moppkt::ChecksumImplSupported(impl)) {
        continue;
      }
      ASSERT_EQ(moppkt::ChecksumPartialWith(impl, region, initial), want)
          << moppkt::ChecksumImplName(impl) << " trial=" << trial
          << " len=" << len << " offset=" << offset;
    }
  }
}

TEST(Ipv4, RoundTrip) {
  moppkt::Ipv4Header h;
  h.protocol = 6;
  h.src = IpAddr(10, 0, 0, 2);
  h.dst = IpAddr(93, 2, 3, 4);
  h.identification = 777;
  h.ttl = 63;
  std::vector<uint8_t> payload{1, 2, 3, 4, 5};
  auto pkt = moppkt::BuildIpv4(h, payload);
  auto parsed = moppkt::ParseIpv4(pkt);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().src, h.src);
  EXPECT_EQ(parsed.value().dst, h.dst);
  EXPECT_EQ(parsed.value().identification, 777);
  EXPECT_EQ(parsed.value().ttl, 63);
  EXPECT_EQ(parsed.value().total_length, 25);
  EXPECT_EQ(parsed.value().payload_bytes(), 5u);
}

TEST(Ipv4, RejectsCorruptChecksum) {
  moppkt::Ipv4Header h;
  h.protocol = 17;
  h.src = IpAddr(1, 1, 1, 1);
  h.dst = IpAddr(2, 2, 2, 2);
  auto pkt = moppkt::BuildIpv4(h, {});
  pkt[12] ^= 0xff;
  EXPECT_FALSE(moppkt::ParseIpv4(pkt).ok());
}

TEST(Ipv4, RejectsTruncatedAndBadVersion) {
  std::vector<uint8_t> tiny(10, 0);
  EXPECT_FALSE(moppkt::ParseIpv4(tiny).ok());
  moppkt::Ipv4Header h;
  h.src = IpAddr(1, 1, 1, 1);
  h.dst = IpAddr(2, 2, 2, 2);
  auto pkt = moppkt::BuildIpv4(h, {});
  pkt[0] = 0x65;  // version 6
  EXPECT_FALSE(moppkt::ParseIpv4(pkt).ok());
}

TEST(TcpFlags, RoundTripAndNames) {
  moppkt::TcpFlags f = moppkt::SynAckFlag();
  EXPECT_EQ(moppkt::TcpFlags::FromByte(f.ToByte()), f);
  EXPECT_EQ(f.ToString(), "SYN|ACK");
  EXPECT_EQ(moppkt::TcpFlags{}.ToString(), "none");
}

TEST(Tcp, RoundTripWithOptions) {
  IpAddr src(10, 0, 0, 2), dst(93, 1, 2, 3);
  std::vector<uint8_t> payload{9, 8, 7};
  moppkt::TcpSegmentSpec spec;
  spec.src_port = 40001;
  spec.dst_port = 443;
  spec.seq = 0xdeadbeef;
  spec.ack = 0x01020304;
  spec.flags = moppkt::PshAckFlag();
  spec.window = 31337;
  spec.mss = 1460;
  spec.window_scale = 7;
  spec.payload = payload;
  auto seg_bytes = moppkt::BuildTcp(spec, src, dst);
  auto parsed = moppkt::ParseTcp(seg_bytes, src, dst);
  ASSERT_TRUE(parsed.ok());
  const auto& seg = parsed.value();
  EXPECT_EQ(seg.src_port, 40001);
  EXPECT_EQ(seg.dst_port, 443);
  EXPECT_EQ(seg.seq, 0xdeadbeefu);
  EXPECT_EQ(seg.ack, 0x01020304u);
  EXPECT_EQ(seg.window, 31337);
  ASSERT_TRUE(seg.mss.has_value());
  EXPECT_EQ(*seg.mss, 1460);
  ASSERT_TRUE(seg.window_scale.has_value());
  EXPECT_EQ(*seg.window_scale, 7);
  EXPECT_EQ(std::vector<uint8_t>(seg.payload.begin(), seg.payload.end()), payload);
}

TEST(Tcp, ChecksumCoversPseudoHeader) {
  IpAddr src(10, 0, 0, 2), dst(93, 1, 2, 3);
  moppkt::TcpSegmentSpec spec;
  spec.src_port = 1;
  spec.dst_port = 2;
  spec.flags = moppkt::SynFlag();
  auto bytes = moppkt::BuildTcp(spec, src, dst);
  // Same bytes against different address pair must fail.
  EXPECT_TRUE(moppkt::ParseTcp(bytes, src, dst).ok());
  EXPECT_FALSE(moppkt::ParseTcp(bytes, src, IpAddr(93, 1, 2, 4)).ok());
}

TEST(Tcp, SeqArithmeticWraps) {
  EXPECT_TRUE(moppkt::SeqLt(0xfffffff0u, 0x10u));
  EXPECT_TRUE(moppkt::SeqGt(0x10u, 0xfffffff0u));
  EXPECT_TRUE(moppkt::SeqLe(5u, 5u));
  EXPECT_TRUE(moppkt::SeqGe(5u, 5u));
}

TEST(Udp, RoundTrip) {
  IpAddr src(10, 0, 0, 2), dst(8, 8, 8, 8);
  std::vector<uint8_t> payload{1, 2, 3};
  auto bytes = moppkt::BuildUdp(40002, 53, payload, src, dst);
  auto parsed = moppkt::ParseUdp(bytes, src, dst);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().src_port, 40002);
  EXPECT_EQ(parsed.value().dst_port, 53);
  EXPECT_EQ(parsed.value().payload.size(), 3u);
}

TEST(Udp, RejectsBadChecksum) {
  IpAddr src(10, 0, 0, 2), dst(8, 8, 8, 8);
  auto bytes = moppkt::BuildUdp(1, 2, std::vector<uint8_t>{5, 6}, src, dst);
  bytes.back() ^= 0x55;
  EXPECT_FALSE(moppkt::ParseUdp(bytes, src, dst).ok());
}

TEST(Dns, QueryRoundTrip) {
  auto q = moppkt::DnsMessage::Query(77, "graph.facebook.com");
  auto bytes = moppkt::EncodeDns(q);
  auto decoded = moppkt::DecodeDns(bytes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().id, 77);
  EXPECT_FALSE(decoded.value().is_response);
  ASSERT_EQ(decoded.value().questions.size(), 1u);
  EXPECT_EQ(decoded.value().questions[0].name, "graph.facebook.com");
}

TEST(Dns, AnswerUsesCompression) {
  auto q = moppkt::DnsMessage::Query(5, "mme.whatsapp.net");
  auto a = moppkt::DnsMessage::Answer(q, IpAddr(31, 13, 79, 251), 300);
  auto bytes = moppkt::EncodeDns(a);
  // The answer name must be a 2-byte compression pointer, not a re-encoding.
  auto q_bytes = moppkt::EncodeDns(q);
  EXPECT_LT(bytes.size(), q_bytes.size() + 2 + 2 + 2 + 2 + 4 + 2 + 4 + 4);
  auto decoded = moppkt::DecodeDns(bytes);
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded.value().answers.size(), 1u);
  EXPECT_EQ(decoded.value().answers[0].name, "mme.whatsapp.net");
  EXPECT_EQ(decoded.value().answers[0].address, IpAddr(31, 13, 79, 251));
}

TEST(Dns, NxDomain) {
  auto q = moppkt::DnsMessage::Query(6, "nope.invalid");
  auto r = moppkt::DnsMessage::NxDomain(q);
  auto decoded = moppkt::DecodeDns(moppkt::EncodeDns(r));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().rcode, moppkt::DnsRcode::kNxDomain);
  EXPECT_TRUE(decoded.value().answers.empty());
}

TEST(Dns, RejectsTruncatedAndLoops) {
  EXPECT_FALSE(moppkt::DecodeDns(std::vector<uint8_t>{1, 2, 3}).ok());
  // Self-referencing compression pointer at offset 12.
  std::vector<uint8_t> evil{0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0xc0, 12, 0, 1, 0, 1};
  EXPECT_FALSE(moppkt::DecodeDns(evil).ok());
}

TEST(Dns, ValidatesNames) {
  EXPECT_TRUE(moppkt::IsValidDnsName("a.b.c"));
  EXPECT_FALSE(moppkt::IsValidDnsName(""));
  EXPECT_FALSE(moppkt::IsValidDnsName("a..b"));
  EXPECT_FALSE(moppkt::IsValidDnsName(std::string(64, 'x') + ".com"));
  EXPECT_FALSE(moppkt::IsValidDnsName(std::string(254, 'x')));
}

// The Into-encoder must emit the exact byte stream EncodeDns does —
// including compression pointers — for every message shape the relay
// produces. The e2e paths (DNS server, clients) now serialize through it.
TEST(Dns, EncodeIntoIsByteIdenticalToEncodeDns) {
  auto q1 = moppkt::DnsMessage::Query(77, "graph.facebook.com");
  auto a1 = moppkt::DnsMessage::Answer(q1, IpAddr(31, 13, 79, 251), 300);
  auto nx = moppkt::DnsMessage::NxDomain(q1);
  // Multi-question + opaque-rdata answer exercises the non-A branch and
  // cross-record compression.
  moppkt::DnsMessage multi = q1;
  multi.questions.push_back({"mme.graph.facebook.com", moppkt::DnsType::kAaaa, 1});
  moppkt::DnsRecord txt;
  txt.name = "graph.facebook.com";
  txt.type = moppkt::DnsType::kCname;
  txt.rdata = {1, 2, 3, 4, 5};
  multi.answers.push_back(txt);
  for (const auto& msg : {q1, a1, nx, multi}) {
    auto reference = moppkt::EncodeDns(msg);
    std::vector<uint8_t> buf(moppkt::DnsEncodedSizeBound(msg), 0xee);
    size_t n = moppkt::EncodeDnsInto(msg, buf);
    ASSERT_LE(n, buf.size());
    buf.resize(n);
    EXPECT_EQ(buf, reference);
  }
}

TEST(Dns, PeekDnsQueryReadsFirstQuestionWithoutDecoding) {
  auto q = moppkt::DnsMessage::Query(4242, "e1.whatsapp.net");
  auto bytes = moppkt::EncodeDns(q);
  moppkt::DnsQueryView view;
  ASSERT_TRUE(moppkt::PeekDnsQuery(bytes, &view).ok());
  EXPECT_EQ(view.id, 4242);
  EXPECT_FALSE(view.is_response);
  EXPECT_EQ(view.qdcount, 1);
  EXPECT_EQ(view.qtype, moppkt::DnsType::kA);
  EXPECT_EQ(view.name_view(), "e1.whatsapp.net");

  // Responses peek too (the view reports is_response; compression in the
  // answer section is never touched).
  auto a = moppkt::DnsMessage::Answer(q, IpAddr(1, 2, 3, 4));
  auto a_bytes = moppkt::EncodeDns(a);
  ASSERT_TRUE(moppkt::PeekDnsQuery(a_bytes, &view).ok());
  EXPECT_TRUE(view.is_response);
  EXPECT_EQ(view.name_view(), "e1.whatsapp.net");
}

TEST(Dns, PeekDnsQueryRejectsMalformedInput) {
  moppkt::DnsQueryView view;
  EXPECT_FALSE(moppkt::PeekDnsQuery(std::vector<uint8_t>{1, 2, 3}, &view).ok());
  // Self-referencing compression pointer in the question name.
  std::vector<uint8_t> evil{0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0xc0, 12, 0, 1, 0, 1};
  EXPECT_FALSE(moppkt::PeekDnsQuery(evil, &view).ok());
  // Question name cut off mid-label.
  auto bytes = moppkt::EncodeDns(moppkt::DnsMessage::Query(1, "abcdef.example.com"));
  EXPECT_FALSE(
      moppkt::PeekDnsQuery(std::span<const uint8_t>(bytes.data(), 15), &view).ok());
  // A pointer chain that assembles a name past 253 bytes must be refused,
  // not truncated: 32 jumps x 63-byte labels.
  std::vector<uint8_t> longname{0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0};
  size_t label_at = longname.size();
  longname.push_back(63);
  for (int i = 0; i < 63; ++i) {
    longname.push_back('x');
  }
  // Each hop: pointer back to the label, which falls through to the next
  // pointer... simpler: one label then pointer to itself-with-label loops
  // grow the name each jump.
  longname.push_back(0xc0);
  longname.push_back(static_cast<uint8_t>(label_at));
  EXPECT_FALSE(moppkt::PeekDnsQuery(longname, &view).ok());
}

TEST(Packet, ClassifiesTcp) {
  IpAddr src(10, 0, 0, 2), dst(93, 5, 6, 7);
  moppkt::TcpSegmentSpec spec;
  spec.src_port = 40000;
  spec.dst_port = 80;
  spec.flags = moppkt::SynFlag();
  spec.mss = 1460;
  auto dgram = moppkt::BuildTcpDatagram(spec, src, dst);
  auto pkt = moppkt::ParsePacket(dgram);
  ASSERT_TRUE(pkt.ok());
  EXPECT_TRUE(pkt.value().is_tcp());
  auto flow = pkt.value().flow();
  EXPECT_EQ(flow.local.ToString(), "10.0.0.2:40000");
  EXPECT_EQ(flow.remote.ToString(), "93.5.6.7:80");
  EXPECT_EQ(flow.proto, moppkt::IpProto::kTcp);
}

TEST(Packet, ClassifiesUdp) {
  IpAddr src(10, 0, 0, 2), dst(8, 8, 8, 8);
  auto dgram = moppkt::BuildUdpDatagram(40001, 53, std::vector<uint8_t>{1}, src, dst);
  auto pkt = moppkt::ParsePacket(dgram);
  ASSERT_TRUE(pkt.ok());
  EXPECT_TRUE(pkt.value().is_udp());
}

TEST(Packet, FlowKeyHashAndEquality) {
  moppkt::FlowKey a, b;
  a.proto = b.proto = moppkt::IpProto::kTcp;
  a.local = b.local = {IpAddr(10, 0, 0, 2), 40000};
  a.remote = b.remote = {IpAddr(93, 5, 6, 7), 80};
  EXPECT_EQ(a, b);
  EXPECT_EQ(moppkt::FlowKeyHash{}(a), moppkt::FlowKeyHash{}(b));
  b.remote.port = 81;
  EXPECT_FALSE(a == b);
}

// Property sweep: TCP build->parse round-trips across payload sizes.
class TcpRoundTrip : public ::testing::TestWithParam<size_t> {};

TEST_P(TcpRoundTrip, PayloadSurvives) {
  size_t n = GetParam();
  moputil::Rng rng(static_cast<uint64_t>(n) + 1);
  std::vector<uint8_t> payload(n);
  for (auto& b : payload) {
    b = static_cast<uint8_t>(rng.NextU32());
  }
  IpAddr src(10, 0, 0, 2), dst(93, 9, 9, 9);
  moppkt::TcpSegmentSpec spec;
  spec.src_port = 1234;
  spec.dst_port = 80;
  spec.seq = rng.NextU32();
  spec.flags = moppkt::PshAckFlag();
  spec.payload = payload;
  auto dgram = moppkt::BuildTcpDatagram(spec, src, dst);
  auto pkt = moppkt::ParsePacket(dgram);
  ASSERT_TRUE(pkt.ok());
  ASSERT_TRUE(pkt.value().is_tcp());
  EXPECT_EQ(std::vector<uint8_t>(pkt.value().tcp->payload.begin(),
                                 pkt.value().tcp->payload.end()),
            payload);
}

INSTANTIATE_TEST_SUITE_P(Sizes, TcpRoundTrip,
                         ::testing::Values(0, 1, 2, 7, 100, 536, 1000, 1459, 1460));

// Property sweep: random DNS names round-trip with compression.
class DnsRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(DnsRoundTrip, RandomNames) {
  moputil::Rng rng(static_cast<uint64_t>(GetParam()));
  std::string name;
  int labels = static_cast<int>(rng.UniformInt(1, 5));
  for (int i = 0; i < labels; ++i) {
    if (i) {
      name += '.';
    }
    int len = static_cast<int>(rng.UniformInt(1, 20));
    for (int j = 0; j < len; ++j) {
      name += static_cast<char>('a' + rng.UniformInt(0, 25));
    }
  }
  auto q = moppkt::DnsMessage::Query(static_cast<uint16_t>(rng.NextU32()), name);
  auto a = moppkt::DnsMessage::Answer(q, IpAddr(static_cast<uint32_t>(rng.NextU32())));
  auto decoded = moppkt::DecodeDns(moppkt::EncodeDns(a));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().questions[0].name, name);
  EXPECT_EQ(decoded.value().answers[0].name, name);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DnsRoundTrip, ::testing::Range(0, 20));

// Fuzz-ish: random bytes never crash the parsers.
TEST(Packet, RandomBytesNeverCrash) {
  moputil::Rng rng(99);
  for (int trial = 0; trial < 2000; ++trial) {
    size_t n = static_cast<size_t>(rng.UniformInt(0, 120));
    std::vector<uint8_t> junk(n);
    for (auto& b : junk) {
      b = static_cast<uint8_t>(rng.NextU32());
    }
    (void)moppkt::ParsePacket(junk);
    (void)moppkt::DecodeDns(junk);
  }
}

// ---- Fast checksum path (word-at-a-time) ----

namespace reference {
// The original byte-pair implementation, kept as the oracle for the
// unrolled word-at-a-time path.
uint32_t ChecksumPartial(std::span<const uint8_t> data, uint32_t initial = 0) {
  uint32_t sum = initial;
  size_t i = 0;
  for (; i + 1 < data.size(); i += 2) {
    sum += (static_cast<uint32_t>(data[i]) << 8) | data[i + 1];
  }
  if (i < data.size()) {
    sum += static_cast<uint32_t>(data[i]) << 8;
  }
  return sum;
}
}  // namespace reference

TEST(Checksum, FastPathMatchesReferenceAtEveryLength) {
  // Sweep every length through the 32/8/4/2/1-byte tails, random content.
  moputil::Rng rng(7);
  for (size_t n = 0; n <= 130; ++n) {
    std::vector<uint8_t> data(n);
    for (auto& b : data) {
      b = static_cast<uint8_t>(rng.NextU32());
    }
    EXPECT_EQ(moppkt::ChecksumFinish(moppkt::ChecksumPartial(data)),
              moppkt::ChecksumFinish(reference::ChecksumPartial(data)))
        << "length " << n;
  }
}

TEST(Checksum, OddLengthTailsAndBoundaries) {
  // Lengths straddling the unroll boundaries with a hot (carry-heavy) fill.
  for (size_t n : {1u, 7u, 8u, 9u, 31u, 32u, 33u, 63u, 64u, 65u, 1459u, 1460u, 1461u}) {
    std::vector<uint8_t> data(n, 0xff);
    EXPECT_EQ(moppkt::ChecksumFinish(moppkt::ChecksumPartial(data)),
              moppkt::ChecksumFinish(reference::ChecksumPartial(data)))
        << "length " << n;
  }
}

TEST(Checksum, ChainedRegionsMatchContiguous) {
  // Chaining even-length regions must equal one pass over the concatenation
  // (the pseudo-header + segment pattern every L4 checksum uses).
  moputil::Rng rng(11);
  for (int trial = 0; trial < 50; ++trial) {
    size_t a = 2 * rng.UniformInt(0, 20);
    size_t b = rng.UniformInt(0, 40);  // last region may be odd
    std::vector<uint8_t> data(a + b);
    for (auto& x : data) {
      x = static_cast<uint8_t>(rng.NextU32());
    }
    std::span<const uint8_t> all(data);
    uint32_t chained = moppkt::ChecksumPartial(all.subspan(a), moppkt::ChecksumPartial(all.subspan(0, a)));
    EXPECT_EQ(moppkt::ChecksumFinish(chained),
              moppkt::ChecksumFinish(moppkt::ChecksumPartial(all)))
        << "a=" << a << " b=" << b;
  }
}

TEST(Checksum, ChainsOntoPseudoHeaderInitial) {
  // Initial values larger than 16 bits (a pseudo-header sum) must chain the
  // same through both implementations.
  IpAddr src(10, 0, 0, 2), dst(93, 1, 2, 3);
  std::vector<uint8_t> seg(41, 0xee);
  uint32_t initial = moppkt::PseudoHeaderSum(src, dst, 6, static_cast<uint16_t>(seg.size()));
  EXPECT_EQ(moppkt::ChecksumFinish(moppkt::ChecksumPartial(seg, initial)),
            moppkt::ChecksumFinish(reference::ChecksumPartial(seg, initial)));
}

// ---- RFC 1624 incremental update ----

TEST(Checksum, IncrementalUpdateMatchesRecomputeProperty) {
  // Random 20-byte headers, random word edits: the incremental update of the
  // embedded checksum must equal a full recompute after the edit.
  moputil::Rng rng(23);
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<uint8_t> hdr(20);
    for (auto& b : hdr) {
      b = static_cast<uint8_t>(rng.NextU32());
    }
    // Fold a valid checksum into words 5 (offset 10), like IPv4.
    hdr[10] = hdr[11] = 0;
    uint16_t csum = moppkt::Checksum(hdr);
    hdr[10] = static_cast<uint8_t>(csum >> 8);
    hdr[11] = static_cast<uint8_t>(csum & 0xff);

    // Edit one random non-checksum 16-bit word.
    size_t word = rng.UniformInt(0, 9);
    if (word == 5) {
      word = 6;
    }
    size_t off = word * 2;
    uint16_t old_word = static_cast<uint16_t>((hdr[off] << 8) | hdr[off + 1]);
    uint16_t new_word = static_cast<uint16_t>(rng.NextU32());
    hdr[off] = static_cast<uint8_t>(new_word >> 8);
    hdr[off + 1] = static_cast<uint8_t>(new_word & 0xff);

    uint16_t incremental = moppkt::ChecksumIncrementalUpdate(csum, old_word, new_word);
    hdr[10] = hdr[11] = 0;
    uint16_t recomputed = moppkt::Checksum(hdr);
    EXPECT_EQ(incremental, recomputed) << "trial " << trial;
  }
}

TEST(Checksum, IncrementalUpdateHandlesRfc1624CornerCase) {
  // The case RFC 1624 §3 shows RFC 1141 getting wrong: checksum 0xdd2f,
  // word 0x5555 -> 0x3285 must give 0x0000, not 0xffff.
  EXPECT_EQ(moppkt::ChecksumIncrementalUpdate(0xdd2f, 0x5555, 0x3285), 0x0000);
}

TEST(Checksum, IncrementalUpdate32MatchesTwoWordEdits) {
  moputil::Rng rng(29);
  for (int trial = 0; trial < 200; ++trial) {
    uint16_t csum = static_cast<uint16_t>(rng.NextU32());
    uint32_t old_value = rng.NextU32();
    uint32_t new_value = rng.NextU32();
    uint16_t via_words = moppkt::ChecksumIncrementalUpdate(
        moppkt::ChecksumIncrementalUpdate(csum, static_cast<uint16_t>(old_value >> 16),
                                          static_cast<uint16_t>(new_value >> 16)),
        static_cast<uint16_t>(old_value & 0xffff), static_cast<uint16_t>(new_value & 0xffff));
    EXPECT_EQ(moppkt::ChecksumIncrementalUpdate32(csum, old_value, new_value), via_words);
  }
}

// ---- FlowKeyHash spread ----

TEST(Packet, FlowKeyHashSpreadsSameSubnetFlows) {
  // The adversarial shape for the old xor/multiply hash: one /24 of clients
  // talking to one server, ports from a small contiguous range — exactly the
  // engine's client map under load. Require near-uniform bucket occupancy.
  constexpr size_t kBuckets = 1024;
  std::vector<int> buckets(kBuckets, 0);
  size_t n = 0;
  for (int host = 0; host < 64; ++host) {
    for (uint16_t port = 40000; port < 40064; ++port) {
      moppkt::FlowKey k;
      k.proto = moppkt::IpProto::kTcp;
      k.local = {IpAddr(10, 0, 0, static_cast<uint8_t>(host)), port};
      k.remote = {IpAddr(93, 184, 216, 34), 443};
      ++buckets[moppkt::FlowKeyHash{}(k) % kBuckets];
      ++n;
    }
  }
  // Expected load 4/bucket; a full-avalanche hash stays in single digits
  // (binomial tail), while the old mixer put hundreds in a few buckets.
  int max_bucket = 0;
  for (int b : buckets) {
    max_bucket = std::max(max_bucket, b);
  }
  EXPECT_LE(max_bucket, 16) << n << " keys";
}

// ---- PacketBuf / BufPool ----

TEST(BufPool, ReusesSlabsAndCountsStats) {
  moppkt::BufPool pool(2048, 16);
  {
    moppkt::PacketBuf a = pool.Acquire();
    moppkt::PacketBuf b = pool.Acquire();
    EXPECT_EQ(pool.stats().slab_allocs, 2u);
    EXPECT_EQ(pool.stats().in_use, 2u);
    a.Assign(std::vector<uint8_t>{1, 2, 3});
    EXPECT_EQ(a.size(), 3u);
    EXPECT_EQ(a.capacity(), 2048u);
  }
  EXPECT_EQ(pool.stats().in_use, 0u);
  EXPECT_EQ(pool.stats().free_count, 2u);
  // Steady state: no new slab allocations, only free-list reuse.
  for (int i = 0; i < 100; ++i) {
    moppkt::PacketBuf c = pool.Acquire();
    c.Assign(std::vector<uint8_t>{9});
  }
  EXPECT_EQ(pool.stats().slab_allocs, 2u);
  EXPECT_EQ(pool.stats().acquires, 102u);
}

TEST(BufPool, OversizeRequestsBypassTheFreeList) {
  moppkt::BufPool pool(2048, 16);
  {
    moppkt::PacketBuf big = pool.AcquireSized(10000);
    EXPECT_GE(big.capacity(), 10000u);
    big.set_size(10000);
  }
  EXPECT_EQ(pool.stats().oversize_allocs, 1u);
  EXPECT_EQ(pool.stats().free_count, 0u);  // never pooled
}

// A PacketBuf is a unique handle: there is no copy to count, and a move
// (which task captures rely on) cannot throw.
static_assert(!std::is_copy_constructible_v<moppkt::PacketBuf>);
static_assert(!std::is_copy_assignable_v<moppkt::PacketBuf>);
static_assert(std::is_nothrow_move_constructible_v<moppkt::PacketBuf>);

TEST(BufPool, ConcurrentAcquireReleaseBalances) {
  // Four threads share one pool, and every thread releases buffers another
  // thread acquired. The pool's lock must keep the free list and its stats
  // exact; under TSan this is the pool's race check. Each holder stamps its
  // buffers and checks the stamp before release, so a slab handed to two
  // holders at once shows up as a torn stamp.
  constexpr size_t kThreads = 4;
  constexpr size_t kHeld = 64;    // buffers each thread passes to a neighbour
  constexpr int kChurn = 2000;    // acquire/release pairs per thread per phase
  constexpr size_t kMaxFree = 32;  // below the peak, so releases also free
  moppkt::BufPool pool(2048, kMaxFree);
  std::atomic<int> torn{0};

  auto stamp = [](moppkt::PacketBuf& buf, uint8_t id) { buf.Assign({&id, 1}); };
  auto stamped = [](const moppkt::PacketBuf& buf, uint8_t id) {
    return buf.size() == 1 && buf.data()[0] == id;
  };
  auto churn_once = [&](uint8_t id) {
    moppkt::PacketBuf buf = pool.Acquire();
    stamp(buf, id);
    if (!stamped(buf, id)) torn.fetch_add(1, std::memory_order_relaxed);
  };

  // Phase 1: every thread churns and parks kHeld stamped buffers.
  std::vector<std::vector<moppkt::PacketBuf>> held(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto id = static_cast<uint8_t>(t + 1);
      for (int i = 0; i < kChurn; ++i) {
        churn_once(id);
        if (static_cast<size_t>(i) < kHeld) {
          held[t].push_back(pool.Acquire());
          stamp(held[t].back(), id);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  threads.clear();
  EXPECT_EQ(pool.stats().in_use, kThreads * kHeld);

  // Phase 2: every thread releases its neighbour's buffers while churning.
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      size_t peer = (t + 1) % kThreads;
      auto peer_id = static_cast<uint8_t>(peer + 1);
      for (int i = 0; i < kChurn; ++i) {
        churn_once(static_cast<uint8_t>(t + 1));
        if (static_cast<size_t>(i) < kHeld) {
          moppkt::PacketBuf gone = std::move(held[peer][static_cast<size_t>(i)]);
          if (!stamped(gone, peer_id)) torn.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(torn.load(), 0);
  moppkt::BufPool::Stats s = pool.stats();
  EXPECT_EQ(s.acquires, kThreads * (2 * kChurn + kHeld));
  EXPECT_EQ(s.acquires, s.releases);
  EXPECT_EQ(s.in_use, 0u);
  EXPECT_LE(s.free_count, kMaxFree);
}

// ---- TcpPacketTemplate ----

TEST(TcpTemplate, EmitIsByteIdenticalToGeneralBuilder) {
  IpAddr src(93, 1, 2, 3), dst(10, 0, 0, 2);
  moppkt::TcpPacketTemplate tmpl(src, dst, 443, 40000);
  moputil::Rng rng(31);
  std::vector<moppkt::TcpFlags> flag_sets = {moppkt::AckFlag(), moppkt::PshAckFlag(),
                                             moppkt::FinAckFlag(), moppkt::RstFlag()};
  for (int trial = 0; trial < 100; ++trial) {
    moppkt::TcpSegmentSpec spec;
    spec.src_port = 443;
    spec.dst_port = 40000;
    spec.seq = rng.NextU32();
    spec.ack = rng.NextU32();
    spec.flags = flag_sets[trial % flag_sets.size()];
    spec.window = static_cast<uint16_t>(rng.NextU32());
    std::vector<uint8_t> payload(rng.UniformInt(0, 1460));
    for (auto& b : payload) {
      b = static_cast<uint8_t>(rng.NextU32());
    }
    spec.payload = payload;
    uint16_t ip_id = static_cast<uint16_t>(rng.NextU32());

    ASSERT_TRUE(moppkt::TcpPacketTemplate::Covers(spec));
    std::vector<uint8_t> via_template(40 + payload.size());
    size_t n = tmpl.EmitSpec(spec, ip_id, via_template);
    via_template.resize(n);
    EXPECT_EQ(via_template, moppkt::BuildTcpDatagram(spec, src, dst, ip_id)) << trial;
  }
}

TEST(TcpTemplate, EmittedPacketsParseAndVerify) {
  IpAddr src(93, 1, 2, 3), dst(10, 0, 0, 2);
  moppkt::TcpPacketTemplate tmpl(src, dst, 443, 40000);
  std::vector<uint8_t> payload(777, 0x5a);
  std::vector<uint8_t> out(40 + payload.size());
  size_t n = tmpl.Emit(123456, 654321, moppkt::PshAckFlag(), 31000, 42, payload, out);
  auto pkt = moppkt::ParsePacket(std::span<const uint8_t>(out.data(), n));
  ASSERT_TRUE(pkt.ok());  // both IP and TCP checksums verified by the parse
  ASSERT_TRUE(pkt.value().is_tcp());
  EXPECT_EQ(pkt.value().tcp->seq, 123456u);
  EXPECT_EQ(pkt.value().tcp->ack, 654321u);
  EXPECT_EQ(pkt.value().tcp->payload.size(), payload.size());
  EXPECT_EQ(pkt.value().ip.identification, 42);
}

// ---- In-place builders match the allocating ones ----

TEST(Build, IntoVariantsAreByteIdentical) {
  IpAddr src(10, 0, 0, 2), dst(93, 1, 2, 3);
  moppkt::TcpSegmentSpec spec;
  spec.src_port = 40000;
  spec.dst_port = 443;
  spec.seq = 7;
  spec.ack = 9;
  spec.flags = moppkt::SynFlag();
  spec.mss = 1460;
  spec.window_scale = 7;
  std::vector<uint8_t> payload{1, 2, 3, 4, 5};
  spec.payload = payload;

  std::vector<uint8_t> tcp_into(20 + moppkt::TcpSegmentBytes(spec));
  tcp_into.resize(moppkt::BuildTcpDatagramInto(spec, src, dst, 3, 64, tcp_into));
  EXPECT_EQ(tcp_into, moppkt::BuildTcpDatagram(spec, src, dst, 3));

  std::vector<uint8_t> udp_into(28 + payload.size());
  udp_into.resize(moppkt::BuildUdpDatagramInto(40001, 53, payload, src, dst, 5, udp_into));
  EXPECT_EQ(udp_into, moppkt::BuildUdpDatagram(40001, 53, payload, src, dst, 5));
}

// ---- The zero-allocation steady state ----

TEST(HotPath, SteadyStateRelayPerformsZeroHeapAllocations) {
  // The tentpole acceptance check: once the pool is warm, relaying a
  // 1460-byte TCP data packet — parse -> state machine -> template-stamped
  // ACK — performs zero heap allocations and zero pool slab allocations.
  moppkt::BufPool pool(2048, 64);
  moppkt::FlowKey flow;
  flow.proto = moppkt::IpProto::kTcp;
  flow.local = {IpAddr(10, 0, 0, 2), 40000};
  flow.remote = {IpAddr(93, 1, 2, 3), 443};

  // Inbound 1460-byte data packet as it would arrive from the tun.
  std::vector<uint8_t> payload(1460, 0x55);
  moppkt::TcpSegmentSpec data_spec;
  data_spec.src_port = flow.local.port;
  data_spec.dst_port = flow.remote.port;
  data_spec.seq = 101;
  data_spec.ack = 5001;
  data_spec.flags = moppkt::PshAckFlag();
  data_spec.payload = payload;
  auto wire = moppkt::BuildTcpDatagram(data_spec, flow.local.ip, flow.remote.ip);

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

  moppkt::TcpPacketTemplate tmpl(flow.remote.ip, flow.local.ip, flow.remote.port,
                                 flow.local.port);
  moppkt::PacketBuf in = pool.AcquireCopy(wire);
  moppkt::PacketBuf out = pool.Acquire();

  auto relay_one = [&](uint32_t expected_seq, uint16_t ip_id) {
    auto parsed = moppkt::ParsePacket(in.bytes());
    ASSERT_TRUE(parsed.ok());
    auto seg = *parsed.value().tcp;
    seg.seq = expected_seq;  // keep in-order across iterations
    auto sm_out = sm.OnAppSegment(seg);
    ASSERT_EQ(sm_out.to_socket.size(), 1460u);
    ASSERT_TRUE(sm_out.to_app.empty());
    out.set_size(
        tmpl.Emit(sm.snd_nxt(), sm.rcv_nxt(), moppkt::AckFlag(), 65535, ip_id, {}, out.writable()));
  };

  relay_one(101, 1);  // warm-up

  moppkt::BufPool::Stats pool_before = pool.stats();
  uint64_t heap_before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 100; ++i) {
    relay_one(101 + 1460u * static_cast<uint32_t>(i + 1), static_cast<uint16_t>(i + 2));
  }
  uint64_t heap_after = g_allocations.load(std::memory_order_relaxed);
  moppkt::BufPool::Stats pool_after = pool.stats();

  EXPECT_EQ(heap_after - heap_before, 0u) << "heap allocations on the steady-state path";
  EXPECT_EQ(pool_after.slab_allocs, pool_before.slab_allocs);
  EXPECT_EQ(pool_after.oversize_allocs, pool_before.oversize_allocs);
  EXPECT_EQ(pool_after.copies, pool_before.copies);
}

}  // namespace
