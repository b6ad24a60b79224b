// Client-side TCP over the tunnel.
//
// This is the app's kernel TCP socket: it performs a genuine three-way
// handshake (SYN with MSS option), sequence/ack bookkeeping, windowed data
// transfer with slow-start, retransmission timers, and FIN/RST teardown —
// all as raw IPv4/TCP datagrams through the TUN device. MopEye's user-space
// state machine (src/core) must interoperate with this implementation, which
// keeps the reproduction honest: the relay is tested against real TCP, not a
// mock peer.
#ifndef MOPEYE_APPS_TCP_CLIENT_H_
#define MOPEYE_APPS_TCP_CLIENT_H_

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "apps/tun_stack.h"
#include "netpkt/packet.h"
#include "netpkt/tcp.h"
#include "util/status.h"
#include "util/time.h"

namespace mopapps {

using moputil::SimDuration;
using moputil::SimTime;

enum class AppTcpState {
  kClosed,
  kSynSent,
  kEstablished,
  kFinWait1,
  kFinWait2,
  kCloseWait,
  kLastAck,
  kClosing,
  kTimeWait,
};

const char* AppTcpStateName(AppTcpState s);

class AppTcpConnection : public std::enable_shared_from_this<AppTcpConnection> {
 public:
  static std::shared_ptr<AppTcpConnection> Create(TunNetStack* stack, int uid);
  ~AppTcpConnection();

  // Begins the handshake. `cb` runs when established or failed.
  void Connect(const moppkt::SocketAddr& remote, std::function<void(moputil::Status)> cb);

  // Queues bytes for transmission (segmented by the negotiated MSS, bounded
  // by the peer's advertised window and a slow-start congestion window).
  void Send(std::vector<uint8_t> data);
  // Queues `n` pattern bytes for bulk uploads: byte i is (i * 131) & 0xff.
  // The bytes are materialized and copied into the send queue, as Send does.
  void SendBytes(size_t n);

  // Graceful close (FIN). Pending data is flushed first.
  void Close();
  // Abortive close (RST).
  void Abort();

  std::function<void(std::span<const uint8_t>)> on_data;
  std::function<void()> on_peer_close;
  std::function<void()> on_reset;

  AppTcpState state() const { return state_; }
  const moppkt::SocketAddr& local() const { return local_; }
  const moppkt::SocketAddr& remote() const { return remote_; }
  int uid() const { return uid_; }

  // App-perceived connect latency (SYN sent -> SYN/ACK received).
  SimDuration connect_latency() const { return connect_latency_; }
  uint64_t bytes_sent() const { return bytes_sent_; }
  uint64_t bytes_received() const { return bytes_received_; }
  SimTime first_data_time() const { return first_data_time_; }
  SimTime last_data_time() const { return last_data_time_; }
  int syn_retransmits() const { return syn_retransmits_; }
  int data_retransmits() const { return data_retransmits_; }

  // The MSS the peer advertised in its SYN/ACK (1460 default).
  uint16_t peer_mss() const { return peer_mss_; }

 private:
  AppTcpConnection(TunNetStack* stack, int uid);

  void OnPacket(const moppkt::ParsedPacket& pkt);
  void HandleSynAck(const moppkt::TcpSegment& seg);
  void HandleEstablished(const moppkt::ParsedPacket& pkt);
  void EmitSegment(moppkt::TcpFlags flags, std::span<const uint8_t> payload,
                   bool with_mss = false);
  // Builds the datagram for `spec` in a pooled buffer and hands it to the
  // stack's zero-copy Send — the app side of the relay never materializes a
  // std::vector datagram.
  void SendSpec(const moppkt::TcpSegmentSpec& spec);
  void SendAck();
  // Consumes an in-order payload at rcv_nxt_ (stats, delayed ACK, on_data).
  void AcceptPayload(std::span<const uint8_t> payload);
  // Feeds buffered out-of-order segments once the gap at rcv_nxt_ closes.
  void DrainReassembly();
  void TrySendData();
  void ArmRetransmit(SimDuration delay);
  void OnRetransmitTimer();
  void FailConnect(moputil::Status status);
  void EnterClosed();

  TunNetStack* stack_;
  int uid_;
  AppTcpState state_ = AppTcpState::kClosed;
  moppkt::SocketAddr local_;
  moppkt::SocketAddr remote_;
  std::function<void(moputil::Status)> connect_cb_;
  mopnet::ConnHandle conn_handle_ = 0;

  // Send side.
  uint32_t iss_ = 0;
  uint32_t snd_una_ = 0;
  uint32_t snd_nxt_ = 0;
  uint16_t peer_mss_ = 1460;
  uint32_t peer_window_ = 65535;
  uint32_t cwnd_ = 0;
  std::deque<uint8_t> send_queue_;    // not yet transmitted
  std::deque<uint8_t> unacked_;       // transmitted, awaiting ACK (front = snd_una_)
  bool fin_pending_ = false;
  bool fin_sent_ = false;

  // Receive side.
  uint32_t rcv_nxt_ = 0;
  uint32_t irs_ = 0;  // initial receive sequence (keys reassembly_ wrap-free)
  uint64_t bytes_sent_ = 0;
  uint64_t bytes_received_ = 0;
  // Out-of-order reassembly queue (seq offset from irs_ -> payload), as a
  // kernel keeps one:
  // the tunnel preserves per-flow order on each relay lane, but a gathered
  // lane write racing a flow re-homing can deliver a burst early. Nothing is
  // ever dropped upstream, so buffering until the gap fills is exact.
  std::map<uint32_t, std::vector<uint8_t>> reassembly_;
  // FIN whose sequence position is past rcv_nxt_ (arrived before a gap
  // filled); processed once the reassembly queue drains up to it.
  bool fin_buffered_ = false;
  uint32_t fin_seq_ = 0;

  // Timers / metrics.
  mopsim::TimerId rto_timer_ = mopsim::kInvalidTimer;
  int syn_retransmits_ = 0;
  int data_retransmits_ = 0;
  SimTime syn_time_ = 0;
  SimDuration connect_latency_ = 0;
  SimTime first_data_time_ = 0;
  SimTime last_data_time_ = 0;
  uint16_t ip_id_ = 1;
  int delayed_ack_count_ = 0;

  static constexpr SimDuration kSynRto = moputil::kSecond;
  static constexpr SimDuration kDataRto = moputil::kSecond;
  static constexpr int kMaxSynRetries = 3;
};

}  // namespace mopapps

#endif  // MOPEYE_APPS_TCP_CLIENT_H_
