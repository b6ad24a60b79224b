// Per-device network view: the access link pair, the network-type/ISP
// profile, and delay paths to remote servers.
//
// RTT composition follows the paper's analysis axes (§4.2): a first-hop
// component determined by the access network (WiFi vs 2G/3G/LTE), plus a
// per-destination path component (server location / CDN), so per-app, per-ISP
// and per-network-type breakdowns all emerge from the same model.
#ifndef MOPEYE_NET_NET_CONTEXT_H_
#define MOPEYE_NET_NET_CONTEXT_H_

#include <functional>
#include <map>
#include <memory>
#include <string>

#include "net/capture.h"
#include "net/link.h"
#include "netpkt/ip.h"
#include "sim/event_loop.h"
#include "util/rng.h"

namespace mopnet {

class ServerFarm;
class SocketChannel;

enum class NetType { kWifi, k2G, k3G, kLte };

const char* NetTypeName(NetType t);

struct NetworkProfile {
  NetType type = NetType::kWifi;
  std::string isp = "TestNet";
  std::string country = "US";
  // One-way delay device <-> ISP edge (half of the first-hop RTT).
  std::shared_ptr<moputil::DelayModel> first_hop_one_way;
  double uplink_bps = 25e6;
  double downlink_bps = 25e6;
  moppkt::IpAddr dns_server{8, 8, 8, 8};
};

// Path delays beyond the first hop, keyed by server address. Shared between
// devices; per-device first-hop models come from NetworkProfile.
class PathTable {
 public:
  struct PathInfo {
    std::shared_ptr<moputil::DelayModel> one_way;
    double loss = 0.0;
  };

  PathTable();

  void SetDefault(std::shared_ptr<moputil::DelayModel> one_way, double loss = 0.0);
  void SetPath(const moppkt::IpAddr& server, std::shared_ptr<moputil::DelayModel> one_way,
               double loss = 0.0);
  const PathInfo& Lookup(const moppkt::IpAddr& server) const;

 private:
  PathInfo default_;
  std::map<moppkt::IpAddr, PathInfo> paths_;
};

// Everything a socket needs to reach the world from one device.
class NetContext {
 public:
  NetContext(mopsim::EventLoop* loop, NetworkProfile profile, PathTable* paths,
             ServerFarm* farm, moputil::Rng rng);

  mopsim::EventLoop* loop() { return loop_; }
  ServerFarm* farm() { return farm_; }
  const NetworkProfile& profile() const { return profile_; }
  Link& uplink() { return uplink_; }
  Link& downlink() { return downlink_; }
  moputil::Rng& rng() { return rng_; }
  CaptureLog& capture() { return capture_; }

  // Samples the one-way delay to `dst` (first hop + path).
  moputil::SimDuration SampleOneWay(const moppkt::IpAddr& dst);
  // True if a packet toward `dst` is lost on this trial.
  bool SampleLoss(const moppkt::IpAddr& dst);

  const moppkt::IpAddr& external_ip() const { return external_ip_; }
  uint16_t AllocateEphemeralPort();

  // VPN data-loop guard (paper §3.5.2): when a VPN is active, an unprotected
  // socket's packets would be routed back into the tunnel. The checker
  // returns true if the socket may bypass the tunnel. Unset = no VPN.
  void set_protection_checker(std::function<bool(const SocketChannel&)> checker) {
    protection_checker_ = std::move(checker);
  }
  bool MayBypassTunnel(const SocketChannel& ch) const {
    return !protection_checker_ || protection_checker_(ch);
  }
  // Count of sockets that attempted to send while looping back into the VPN.
  int loop_violations() const { return loop_violations_; }
  void NoteLoopViolation() { ++loop_violations_; }

 private:
  mopsim::EventLoop* loop_;
  NetworkProfile profile_;
  PathTable* paths_;
  ServerFarm* farm_;
  moputil::Rng rng_;
  Link uplink_;
  Link downlink_;
  CaptureLog capture_;
  moppkt::IpAddr external_ip_{100, 64, 0, 2};
  uint16_t next_port_ = 33000;
  std::function<bool(const SocketChannel&)> protection_checker_;
  int loop_violations_ = 0;
};

}  // namespace mopnet

#endif  // MOPEYE_NET_NET_CONTEXT_H_
