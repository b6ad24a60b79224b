// The /proc/net/tcp|tcp6|udp|udp6 pseudo-files and their parse cost.
//
// These four files are the only socket-to-app mapping source available to an
// unprivileged app (paper §2.2): each row carries the connection's addresses
// and the owning app's uid. Rendering follows the real kernel format
// (little-endian hex addresses), and the parser here is the same code the
// engine's mapper runs. Parsing is priced by a calibrated cost model because
// the paper's whole §3.3 (lazy mapping) exists to dodge that cost.
#ifndef MOPEYE_ANDROID_PROC_NET_H_
#define MOPEYE_ANDROID_PROC_NET_H_

#include <memory>
#include <string>
#include <vector>

#include "net/conn_table.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/time.h"

namespace mopdroid {

struct ProcNetEntry {
  moppkt::SocketAddr local;
  moppkt::SocketAddr remote;
  mopnet::ConnState state = mopnet::ConnState::kEstablished;
  int uid = 0;
};

// Cost model for one full parse of the proc files, as a function of the
// number of rows. Calibrated against Fig. 5(a): on a busy phone, >75% of
// parses cost >= 5 ms and >10% cost >= 15 ms.
struct ProcParseCostModel {
  // Fixed syscall/open/read overhead per parse.
  std::shared_ptr<moputil::DelayModel> base;
  // Per-row tokenize/convert cost.
  std::shared_ptr<moputil::DelayModel> per_row;
  // Occasional scheduler/GC spike added on top.
  std::shared_ptr<moputil::DelayModel> spike;

  static ProcParseCostModel Default();

  moputil::SimDuration Sample(size_t rows, moputil::Rng& rng) const;
};

class ProcNet {
 public:
  explicit ProcNet(const mopnet::KernelConnTable* table);

  // Renders the pseudo-file text for `proto` in the kernel's format.
  std::string Render(moppkt::IpProto proto) const;
  size_t RowCount(moppkt::IpProto proto) const;

  // Samples the time one full read+parse of tcp6|tcp (or udp6|udp) takes.
  moputil::SimDuration SampleParseCost(moppkt::IpProto proto, moputil::Rng& rng) const;

 private:
  const mopnet::KernelConnTable* table_;
  ProcParseCostModel cost_;
};

// Parses pseudo-file text back into entries. This is the engine-side parser;
// it must round-trip with ProcNet::Render (tested property-style).
moputil::Result<std::vector<ProcNetEntry>> ParseProcNet(const std::string& text);

}  // namespace mopdroid

#endif  // MOPEYE_ANDROID_PROC_NET_H_
