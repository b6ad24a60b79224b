// Access-link model: serialization delay at a configurable rate plus one-way
// propagation. One Link per direction per device; all flows share it, which is
// what couples relay slowness to app throughput (Table 3).
#ifndef MOPEYE_NET_LINK_H_
#define MOPEYE_NET_LINK_H_

#include <cstddef>

#include "sim/event_loop.h"
#include "util/time.h"

namespace mopnet {

using moputil::SimDuration;
using moputil::SimTime;

class Link {
 public:
  // `bits_per_second` <= 0 means infinite rate (no serialization delay).
  Link(mopsim::EventLoop* loop, double bits_per_second);

  // Schedules `bytes` onto the link no earlier than `earliest`; returns the
  // time the last bit leaves the link. Subsequent transmissions queue behind.
  SimTime DeliverAfter(SimTime earliest, size_t bytes);

  double rate() const { return bps_; }

  // Cumulative bytes scheduled (for throughput accounting).
  uint64_t bytes_carried() const { return bytes_carried_; }
  // Total time the link was occupied transmitting.
  SimDuration busy_time() const { return busy_time_; }

 private:
  mopsim::EventLoop* loop_;
  double bps_;
  SimTime next_free_ = 0;
  uint64_t bytes_carried_ = 0;
  SimDuration busy_time_ = 0;
};

}  // namespace mopnet

#endif  // MOPEYE_NET_LINK_H_
