// Android VpnService API subset, faithful to the parts the paper relies on:
//  * Builder.establish() creates the TUN interface and routes all traffic
//    into it (one consent, then autonomous operation).
//  * protect(socket) marks one socket as tunnel-bypassing — and costs up to
//    several milliseconds per call (§3.5.2).
//  * Builder.addDisallowedApplication(pkg) (SDK >= 21 / Android 5.0) excludes
//    an entire app from the VPN, replacing per-socket protect().
//  * While a VPN is active, an unprotected/non-excluded socket's traffic
//    loops back into the tunnel.
#ifndef MOPEYE_ANDROID_VPN_SERVICE_H_
#define MOPEYE_ANDROID_VPN_SERVICE_H_

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "android/tun_device.h"
#include "net/socket.h"
#include "netpkt/ip.h"
#include "util/rng.h"
#include "util/status.h"

namespace mopdroid {

class AndroidDevice;

class VpnService {
 public:
  class Builder {
   public:
    explicit Builder(VpnService* service);

    Builder& addAddress(const moppkt::IpAddr& addr);
    Builder& addRoute(const moppkt::IpAddr& addr, int prefix);
    Builder& addDnsServer(const moppkt::IpAddr& addr);
    Builder& setSession(const std::string& name);
    // SDK >= 21 only; error on older devices (the engine falls back to
    // per-socket protect(), §3.5.2).
    moputil::Status addDisallowedApplication(const std::string& package);

    // Creates the TUN interface and activates VPN routing. Null on failure
    // (no address configured, or VPN already active).
    TunDevice* establish();

   private:
    VpnService* service_;
    std::vector<moppkt::IpAddr> addresses_;
    std::string session_;
    std::set<std::string> disallowed_;
  };

  explicit VpnService(AndroidDevice* device);
  ~VpnService();

  // Marks `socket` as bypassing the tunnel. Returns the sampled cost of the
  // call, which the invoking thread's lane must pay (it can reach several
  // milliseconds, §3.5.2).
  moputil::SimDuration protect(mopnet::SocketChannel& socket);
  moputil::SimDuration protect(mopnet::UdpSocket& socket);

  // Stops the VPN: closes the TUN fd and removes routing.
  void Stop();

  bool active() const { return tun_ != nullptr && !tun_->closed(); }
  TunDevice* tun() { return tun_.get(); }
  const moppkt::IpAddr& tun_address() const { return tun_address_; }
  int protect_calls() const { return protect_calls_; }

 private:
  friend class Builder;
  moputil::SimDuration SampleProtectCost();

  AndroidDevice* device_;
  std::unique_ptr<TunDevice> tun_;
  moppkt::IpAddr tun_address_;
  std::set<int> disallowed_uids_;
  std::shared_ptr<moputil::DelayModel> protect_cost_;
  int protect_calls_ = 0;
};

}  // namespace mopdroid

#endif  // MOPEYE_ANDROID_VPN_SERVICE_H_
