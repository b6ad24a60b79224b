// App abstraction: one installed Android app generating traffic.
//
// Sessions talk to an AppConn interface with two transports behind it:
//  * kTunnel — the app's kernel TCP stack emits raw packets into the TUN
//    (the VPN-active path MopEye relays);
//  * kDirect — plain kernel sockets (the VPN-off baseline used by Table 3's
//    "Baseline" column and by devices before MopEye is enabled).
// App-perceived metrics (connect latency, bytes, timing) are identical in
// shape across transports, so overhead experiments diff them directly.
#ifndef MOPEYE_APPS_APP_H_
#define MOPEYE_APPS_APP_H_

#include <functional>
#include <memory>
#include <string>

#include "apps/dns_client.h"
#include "apps/tcp_client.h"
#include "apps/tun_stack.h"
#include "net/socket.h"
#include "util/status.h"

namespace mopapps {

// Transport-agnostic app connection.
class AppConn {
 public:
  virtual ~AppConn() = default;

  virtual void Connect(const moppkt::SocketAddr& remote,
                       std::function<void(moputil::Status)> cb) = 0;
  virtual void Send(std::vector<uint8_t> data) = 0;
  virtual void SendBytes(size_t n) = 0;
  virtual void Close() = 0;

  // Fired per received batch with its byte count.
  std::function<void(size_t)> on_data;
  std::function<void()> on_peer_close;

  virtual uint64_t bytes_received() const = 0;
  virtual uint64_t bytes_sent() const = 0;
  virtual moputil::SimDuration connect_latency() const = 0;
  virtual moputil::SimTime first_data_time() const = 0;
  virtual moputil::SimTime last_data_time() const = 0;
};

class App {
 public:
  enum class Mode { kTunnel, kDirect };

  // Installs the app on the device (registers uid/package with the package
  // manager). `stack` may be null in kDirect mode.
  App(mopdroid::AndroidDevice* device, TunNetStack* stack, int uid, std::string package,
      std::string label, Mode mode = Mode::kTunnel);

  std::unique_ptr<AppConn> CreateConn();

  // System-wide DNS resolution (through the tunnel in kTunnel mode).
  void Resolve(const std::string& domain,
               std::function<void(moputil::Result<DnsResult>)> cb);

  int uid() const { return uid_; }
  const std::string& package() const { return package_; }
  const std::string& label() const { return label_; }
  Mode mode() const { return mode_; }
  mopdroid::AndroidDevice* device() { return device_; }
  TunNetStack* stack() { return stack_; }

 private:
  mopdroid::AndroidDevice* device_;
  TunNetStack* stack_;
  int uid_;
  std::string package_;
  std::string label_;
  Mode mode_;
  std::unique_ptr<TunDnsClient> dns_;
};

// Measures `count` sequential connect() latencies to `addr` — the "simple
// tool that invokes connect()" from §4.1.2's overhead evaluation.
void ProbeConnectLatency(App* app, const moppkt::SocketAddr& addr, int count,
                         std::function<void(std::vector<moputil::SimDuration>)> done);

}  // namespace mopapps

#endif  // MOPEYE_APPS_APP_H_
