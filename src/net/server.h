// Scriptable remote endpoints: TCP server behaviors, UDP handlers, and the
// domain resolution table. These stand in for the app servers the paper's
// relay connects to (graph.facebook.com, *.whatsapp.net, ...).
//
// TCP payload moves through the simulated network by reference: every MSS
// segment in flight is a ByteSlice of the buffer its send was made from (or
// of the static SendBytes pattern), and the bytes are copied once, by
// SocketChannel::Read, into the reader's buffer.
#ifndef MOPEYE_NET_SERVER_H_
#define MOPEYE_NET_SERVER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "netpkt/ip.h"
#include "sim/event_loop.h"
#include "util/rng.h"
#include "util/time.h"

namespace mopnet {

class NetContext;
class ServerConn;
class SocketChannel;

// A read-only window of `size` payload bytes (never zero). `data` either
// aliases the shared owner of one Send/Write buffer, which lives until the
// last slice of it is read or dropped, or points, owning nothing, into the
// static pattern table behind ServerConn::SendBytes.
struct ByteSlice {
  std::shared_ptr<const uint8_t> data;
  size_t size = 0;

  std::span<const uint8_t> bytes() const { return {data.get(), size}; }
};

// Server-side logic of one accepted TCP connection. Implementations must not
// assume synchronous teardown: the client may reset at any time, after which
// Send/Close on the conn become no-ops.
class ServerBehavior {
 public:
  virtual ~ServerBehavior() = default;
  // Connection accepted (runs at server-side accept time).
  virtual void OnConnect(ServerConn& conn) { (void)conn; }
  // Request bytes arrived.
  virtual void OnData(ServerConn& conn, std::span<const uint8_t> data) {
    (void)conn;
    (void)data;
  }
  // Client sent FIN. Default: close our side too (typical request/response
  // server); long-lived servers override to stay half-open.
  virtual void OnHalfClose(ServerConn& conn);
  // Client reset or the connection fully closed.
  virtual void OnClosed(ServerConn& conn) { (void)conn; }
};

using BehaviorFactory = std::function<std::unique_ptr<ServerBehavior>()>;

// Handle the behavior uses to talk back to its client.
class ServerConn : public std::enable_shared_from_this<ServerConn> {
 public:
  ServerConn(std::weak_ptr<SocketChannel> client, NetContext* ctx,
             moppkt::SocketAddr server_addr, moputil::SimDuration one_way);

  // Streams `data` to the client, one downlink delivery per MSS segment; the
  // segments share `data` instead of copying it.
  void Send(std::vector<uint8_t> data);
  // Streams `n` pattern bytes (cheap bulk data for throughput runs): byte i
  // of each send is i & 0xff. Nothing is materialized; every segment points
  // into one static table.
  void SendBytes(size_t n);
  // Graceful close (FIN after all queued data).
  void Close();
  // Abortive close (RST, immediately).
  void Reset();

  uint64_t bytes_received() const { return bytes_received_; }
  void add_bytes_received(uint64_t n) { bytes_received_ += n; }
  const moppkt::SocketAddr& server_addr() const { return server_addr_; }
  mopsim::EventLoop* loop();
  bool client_alive() const { return !client_.expired(); }

  ServerBehavior* behavior() { return behavior_.get(); }
  void set_behavior(std::unique_ptr<ServerBehavior> b) { behavior_ = std::move(b); }
  moputil::SimDuration one_way() const { return one_way_; }

 private:
  friend class SocketChannel;
  // Schedules one client delivery per MSS of an n-byte send, in order;
  // `slice_at(offset, len)` returns the segment's bytes.
  template <typename SliceAt>
  void Stream(size_t n, SliceAt slice_at);

  std::weak_ptr<SocketChannel> client_;
  NetContext* ctx_;
  moppkt::SocketAddr server_addr_;
  moputil::SimDuration one_way_;
  uint64_t bytes_received_ = 0;
  bool closed_ = false;
  std::unique_ptr<ServerBehavior> behavior_;
};

// UDP request handler: called with the datagram payload; `reply` sends a
// response back to the querying socket after `think` time at the server.
using UdpReplyFn = std::function<void(std::vector<uint8_t> response, moputil::SimDuration think)>;
using UdpHandler =
    std::function<void(const moppkt::SocketAddr& client, std::span<const uint8_t> payload,
                       const UdpReplyFn& reply)>;

// Domain name -> address registry shared by DNS servers and the analysis.
class ResolutionTable {
 public:
  void Add(const std::string& domain, const moppkt::IpAddr& addr);
  // Deterministically assigns an address for `domain` if absent; returns it.
  moppkt::IpAddr AutoAssign(const std::string& domain);
  std::optional<moppkt::IpAddr> Resolve(const std::string& domain) const;
  std::optional<std::string> ReverseLookup(const moppkt::IpAddr& addr) const;
  size_t size() const { return forward_.size(); }

 private:
  std::unordered_map<std::string, moppkt::IpAddr> forward_;
  std::map<moppkt::IpAddr, std::string> reverse_;
};

// All remote endpoints reachable from the simulated world.
class ServerFarm {
 public:
  struct TcpEntry {
    BehaviorFactory factory;
    std::shared_ptr<moputil::DelayModel> accept_delay;  // null = accept instantly
  };

  // Registers a TCP server. Existing registration at `addr` is replaced.
  void AddTcpServer(const moppkt::SocketAddr& addr, BehaviorFactory factory,
                    std::shared_ptr<moputil::DelayModel> accept_delay = nullptr);
  void RemoveTcpServer(const moppkt::SocketAddr& addr);
  const TcpEntry* FindTcp(const moppkt::SocketAddr& addr) const;

  void AddUdpServer(const moppkt::SocketAddr& addr, UdpHandler handler);
  const UdpHandler* FindUdp(const moppkt::SocketAddr& addr) const;

  ResolutionTable& resolution() { return resolution_; }
  const ResolutionTable& resolution() const { return resolution_; }

 private:
  std::map<moppkt::SocketAddr, TcpEntry> tcp_;
  std::map<moppkt::SocketAddr, UdpHandler> udp_;
  ResolutionTable resolution_;
};

// ---- Stock behaviors ----

// Echoes every received byte back to the client.
class EchoBehavior : public ServerBehavior {
 public:
  void OnData(ServerConn& conn, std::span<const uint8_t> data) override;
};

// Streams `total_bytes` to the client as soon as it connects (speedtest
// download direction).
class BulkSourceBehavior : public ServerBehavior {
 public:
  explicit BulkSourceBehavior(size_t total_bytes) : total_bytes_(total_bytes) {}
  void OnConnect(ServerConn& conn) override;

 private:
  size_t total_bytes_;
};

// Consumes uploads silently (speedtest upload direction).
class SinkBehavior : public ServerBehavior {};

// Accepts, then immediately resets (failure injection).
class ResetBehavior : public ServerBehavior {
 public:
  void OnConnect(ServerConn& conn) override { conn.Reset(); }
};

// Request/response server where the *client* chooses the response size: the
// first 8 request bytes carry a big-endian u64 byte count. Requests shorter
// than `request_size` are accumulated first. Lets one registered server play
// every page/chunk size a workload asks for.
class SizeEncodedBehavior : public ServerBehavior {
 public:
  explicit SizeEncodedBehavior(moputil::SimDuration think = 0, size_t request_size = 8)
      : think_(think), request_size_(request_size < 8 ? 8 : request_size) {}
  void OnData(ServerConn& conn, std::span<const uint8_t> data) override;

 private:
  moputil::SimDuration think_;
  size_t request_size_;
  std::vector<uint8_t> buffer_;
};

// Encodes a SizeEncodedBehavior request asking for `response_bytes`, padded
// to `request_size`.
std::vector<uint8_t> EncodeSizedRequest(uint64_t response_bytes, size_t request_size = 8);

// Accepts, then closes gracefully after `delay`.
class CloseAfterBehavior : public ServerBehavior {
 public:
  explicit CloseAfterBehavior(moputil::SimDuration delay) : delay_(delay) {}
  void OnConnect(ServerConn& conn) override;

 private:
  moputil::SimDuration delay_;
};

}  // namespace mopnet

#endif  // MOPEYE_NET_SERVER_H_
