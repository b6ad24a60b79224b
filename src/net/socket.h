// Kernel-socket stand-ins for MopEye's *external* connections.
//
// SocketChannel mirrors the slice of java.nio.SocketChannel the paper uses:
// connect (run in blocking mode on a socket-connect thread, §2.4),
// non-blocking read/write with a Selector (§2.3 "Processing socket packets"),
// close/reset. Event callbacks fire at exact wire times; all software-side
// latencies (thread wakeup, selector dispatch, parse cost) are added by the
// engine's ActorLanes, so the capture log doubles as tcpdump ground truth.
//
// Payload is not copied in flight. Each segment the server sends arrives as a
// ByteSlice (net/server.h) of the sender's buffer or of the static SendBytes
// pattern, and the receive buffer is a queue of those slices. Read() memcpys
// out of them and drops each slice once all of it has been read; a shared
// buffer is freed with its last slice.
#ifndef MOPEYE_NET_SOCKET_H_
#define MOPEYE_NET_SOCKET_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "net/net_context.h"
#include "net/server.h"
#include "netpkt/ip.h"
#include "util/status.h"

namespace mopnet {

class Selector;

enum class ChannelState {
  kCreated,
  kConnecting,
  kConnected,
  kPeerClosed,   // remote FIN seen, local still open
  kLocalClosed,  // local FIN sent, remote still open
  kClosed,
  kFailed,
};

const char* ChannelStateName(ChannelState s);

// Selector interest ops (java.nio style).
enum SocketInterest : uint32_t {
  kOpRead = 1u << 0,
  kOpWrite = 1u << 1,
  kOpConnect = 1u << 2,
};

enum class SocketEventType {
  kConnected,
  kConnectFailed,
  kReadable,
  kWritable,
  kPeerClosed,
  kReset,
};

class SocketChannel : public std::enable_shared_from_this<SocketChannel> {
 public:
  // Channels are shared_ptr-managed: in-flight wire events hold weak refs and
  // become no-ops if the channel is destroyed first.
  static std::shared_ptr<SocketChannel> Create(NetContext* ctx);
  ~SocketChannel();

  SocketChannel(const SocketChannel&) = delete;
  SocketChannel& operator=(const SocketChannel&) = delete;

  // VpnService.protect() marks the socket as tunnel-bypassing (§3.5.2).
  void set_protected_socket(bool p) { protected_ = p; }
  bool protected_socket() const { return protected_; }
  // Uid of the app owning this socket (for /proc/net and the disallowed-app
  // protection check).
  void set_owner_uid(int uid) { owner_uid_ = uid; }
  int owner_uid() const { return owner_uid_; }

  // Starts the handshake. `cb` fires at the exact SYN/ACK (or failure)
  // instant; the caller models its own thread-wakeup latency on top.
  void Connect(const moppkt::SocketAddr& remote, std::function<void(moputil::Status)> cb);

  // Queues `data` toward the server. Never blocks (kernel buffer semantics).
  // Each MSS piece in flight is a slice of `data`, which is moved, not copied.
  void Write(std::vector<uint8_t> data);

  // Copies up to out.size() unread bytes out of the receive buffer.
  size_t Read(std::span<uint8_t> out);
  // Unread bytes in the receive buffer; O(1).
  size_t available() const { return recv_unread_; }

  // Graceful close: FIN toward the server; half-close only ships pending data.
  void Close();
  // Abortive close: RST.
  void Reset();

  // Selector integration. Register/deregister mirror java.nio; the register()
  // *cost* is paid by the engine (paper §3.4 notes it can be expensive).
  void RegisterWith(Selector* selector, uint32_t interest);
  void SetInterest(uint32_t interest);
  void Deregister();
  // The one sanctioned way a channel changes selectors: the work-stealing
  // re-homing. Extracts any events still queued at the old selector and
  // re-enqueues them (in order) at the new one, so nothing in flight is
  // lost. Interest ops carry over. A never-registered channel just registers.
  void MigrateTo(Selector* selector);

  // Direct callbacks used while not registered with a selector.
  std::function<void()> on_readable;
  std::function<void()> on_peer_close;
  std::function<void()> on_reset;

  ChannelState state() const { return state_; }
  const moppkt::SocketAddr& local() const { return local_; }
  const moppkt::SocketAddr& remote() const { return remote_; }
  NetContext* context() { return ctx_; }
  // SYN / SYN-ACK wire times of the successful handshake attempt.
  moputil::SimTime syn_sent_time() const { return syn_sent_time_; }
  moputil::SimTime synack_recv_time() const { return synack_recv_time_; }
  uint64_t bytes_sent() const { return bytes_sent_; }
  uint64_t bytes_received() const { return bytes_received_; }

  // Number of SYN retransmissions before the handshake resolved.
  int syn_retransmits() const { return syn_retransmits_; }

 private:
  friend class ServerConn;
  explicit SocketChannel(NetContext* ctx);

  void AttemptSyn(int attempt);
  void HandleSynAtServer(moputil::SimDuration syn_ow);
  void CompleteConnect(moputil::SimDuration synack_ow);
  void FailConnect(moputil::Status status);
  void EmitEvent(SocketEventType type);

  // Server-side plumbing (called by ServerConn at wire-arrival times).
  void DeliverFromServer(ByteSlice segment);
  void ServerClosed();
  void ServerReset();

  NetContext* ctx_;
  ChannelState state_ = ChannelState::kCreated;
  moppkt::SocketAddr local_;
  moppkt::SocketAddr remote_;
  bool protected_ = false;
  int owner_uid_ = -1;

  std::function<void(moputil::Status)> connect_cb_;
  moputil::SimTime syn_sent_time_ = 0;
  moputil::SimTime synack_recv_time_ = 0;
  int syn_retransmits_ = 0;

  // Receive buffer: segments in arrival order, none empty. The front one is
  // read from recv_head_ on; recv_unread_ counts every byte not yet read.
  std::deque<ByteSlice> recv_buf_;
  size_t recv_head_ = 0;
  size_t recv_unread_ = 0;
  uint64_t bytes_sent_ = 0;
  uint64_t bytes_received_ = 0;

  // Fixed per-connection one-way delay used for the data phase.
  moputil::SimDuration data_one_way_ = 0;
  // Order guards: the latest arrival scheduled in each direction, so a FIN
  // never overtakes data sent before it.
  moputil::SimTime last_client_delivery_ = 0;
  moputil::SimTime last_server_delivery_ = 0;
  // Client-bound segments and FIN, in last_client_delivery_ order.
  mopsim::EventStream client_deliveries_;

  std::shared_ptr<ServerConn> server_conn_;

  Selector* selector_ = nullptr;
  uint32_t interest_ = 0;

  static constexpr int kMaxSynAttempts = 3;
  static constexpr moputil::SimDuration kSynRetryBase = moputil::kSecond;
};

// Connectionless socket for the DNS relay (paper §2.2: UDP is relayed, DNS is
// measured).
class UdpSocket : public std::enable_shared_from_this<UdpSocket> {
 public:
  static std::shared_ptr<UdpSocket> Create(NetContext* ctx);

  void set_owner_uid(int uid) { owner_uid_ = uid; }
  int owner_uid() const { return owner_uid_; }
  void set_protected_socket(bool p) { protected_ = p; }
  bool protected_socket() const { return protected_; }

  // Sends one datagram; any response is delivered to on_datagram at its
  // exact arrival time.
  void SendTo(const moppkt::SocketAddr& dst, std::vector<uint8_t> payload);
  void Close() { closed_ = true; }

  std::function<void(const moppkt::SocketAddr& from, std::vector<uint8_t> payload)> on_datagram;

  const moppkt::SocketAddr& local() const { return local_; }

 private:
  explicit UdpSocket(NetContext* ctx);

  NetContext* ctx_;
  moppkt::SocketAddr local_;
  int owner_uid_ = -1;
  bool protected_ = false;
  bool closed_ = false;
};

}  // namespace mopnet

#endif  // MOPEYE_NET_SOCKET_H_
