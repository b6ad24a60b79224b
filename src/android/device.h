// AndroidDevice: one simulated smartphone.
//
// Owns the kernel-side state every other piece hangs off: the network context
// (access link + ISP profile), the kernel connection table, the proc
// filesystem view, the package manager, the SDK version gate, and — once a
// VpnService establishes — the TUN device and VPN routing.
#ifndef MOPEYE_ANDROID_DEVICE_H_
#define MOPEYE_ANDROID_DEVICE_H_

#include <functional>
#include <memory>
#include <string>

#include "android/package_manager.h"
#include "android/proc_net.h"
#include "android/tun_device.h"
#include "net/conn_table.h"
#include "net/net_context.h"
#include "net/server.h"
#include "sim/event_loop.h"
#include "util/rng.h"

namespace mopdroid {

// Android SDK versions the engine branches on.
constexpr int kSdkKitKat = 19;    // Android 4.4
constexpr int kSdkLollipop = 21;  // Android 5.0

class VpnService;

class AndroidDevice {
 public:
  AndroidDevice(mopsim::EventLoop* loop, mopnet::NetworkProfile profile,
                mopnet::PathTable* paths, mopnet::ServerFarm* farm, uint64_t seed,
                int sdk_version = 24);
  ~AndroidDevice();

  mopsim::EventLoop* loop() { return loop_; }
  mopnet::NetContext& net() { return net_; }
  mopnet::KernelConnTable& conn_table() { return conn_table_; }
  ProcNet& proc_net() { return proc_net_; }
  PackageManager& package_manager() { return packages_; }
  moputil::Rng& rng() { return rng_; }
  int sdk_version() const { return sdk_version_; }
  const std::string& model() const { return model_; }

  // ---- VPN integration (used by VpnService) ----
  // Activates VPN routing: all kernel-originated app packets go to `tun`,
  // and unprotected sockets may no longer bypass it.
  void ActivateVpn(TunDevice* tun, const moppkt::IpAddr& tun_address,
                   std::function<bool(int uid)> uid_excluded);
  void DeactivateVpn();
  bool vpn_active() const { return vpn_tun_ != nullptr; }
  TunDevice* vpn_tun() { return vpn_tun_; }
  const moppkt::IpAddr& tun_address() const { return tun_address_; }

  // ---- Kernel packet path (used by the app-side TCP/UDP stack) ----
  // Sends an app datagram: routed into the TUN when a VPN is active. Returns
  // false (packet dropped) when no VPN is active — packet-level transport
  // only exists through the tunnel in this simulation; direct traffic uses
  // socket-level transports.
  bool KernelSendFromApp(moppkt::PacketBuf datagram);
  bool KernelSendFromApp(std::vector<uint8_t> datagram);

  // DownloadManager.enqueue(): triggers a small download by the system
  // download service (uid 1000). Used as the "dummy packet" that releases a
  // blocked tun read on Android 5.0+ (§3.1).
  void DownloadManagerEnqueue();

  // The system DNS resolver address apps use.
  moppkt::IpAddr system_dns() const { return net_.profile().dns_server; }

 private:
  mopsim::EventLoop* loop_;
  mopnet::NetContext net_;
  mopnet::KernelConnTable conn_table_;
  ProcNet proc_net_;
  PackageManager packages_;
  moputil::Rng rng_;
  int sdk_version_;
  std::string model_ = "Nexus 6";

  TunDevice* vpn_tun_ = nullptr;
  moppkt::IpAddr tun_address_;
  uint16_t next_download_port_ = 61000;
};

}  // namespace mopdroid

#endif  // MOPEYE_ANDROID_DEVICE_H_
