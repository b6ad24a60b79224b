// Debug-only lane-affinity runtime checker.
//
// The sharded relay's core invariant — a flow's state is only ever touched by
// its owning lane — used to live in comments. LaneAffinityChecker turns it
// into a runtime assertion: a piece of lane-owned state embeds a checker,
// every access calls Check(), and the first access stamps the owner. A later
// access from a different context aborts with both identities in the message.
//
// "Context" is two-level:
//  * Virtual-time lanes (engine WorkerLanes — many lanes multiplexed onto
//    one real thread): a LaneScope on the stack names the lane currently
//    executing.
//  * Outside any LaneScope (the TunReader's dispatch, the TunWriter's pump):
//    the context is the thread id, so a second real thread touching the
//    state is caught too.
//
// Cost: compiled out entirely in NDEBUG builds (empty classes, no members) so
// Release behavior and the checked-in bench baselines cannot drift.
#ifndef MOPEYE_CONCURRENT_LANE_AFFINITY_H_
#define MOPEYE_CONCURRENT_LANE_AFFINITY_H_

#include <cstdint>

#if !defined(NDEBUG) || defined(MOPEYE_FORCE_LANE_CHECKS)
#define MOPEYE_LANE_CHECKS 1
#else
#define MOPEYE_LANE_CHECKS 0
#endif

#if MOPEYE_LANE_CHECKS
#include <atomic>
#include <functional>
#include <thread>

#include "util/logging.h"
#endif

namespace mopcc {

#if MOPEYE_LANE_CHECKS

namespace internal {
// Token of the context executing right now. Lane tokens are odd
// (2 * lane_id + 1), thread tokens even (hash << 1), so the two spaces never
// collide and a token is never 0 (0 = "unbound").
inline thread_local uint64_t tls_lane_token = 0;

inline uint64_t CurrentAffinityToken() {
  if (tls_lane_token != 0) {
    return tls_lane_token;
  }
  uint64_t h = std::hash<std::thread::id>{}(std::this_thread::get_id());
  return (h | 1) << 1;  // even, nonzero
}
}  // namespace internal

// Names the virtual lane executing on this thread for the duration of the
// scope. Nestable; restores the previous token on destruction. Engine worker
// lanes open one at the top of each task.
class LaneScope {
 public:
  explicit LaneScope(uint64_t lane_id) : prev_(internal::tls_lane_token) {
    internal::tls_lane_token = 2 * lane_id + 1;
  }
  ~LaneScope() { internal::tls_lane_token = prev_; }

  LaneScope(const LaneScope&) = delete;
  LaneScope& operator=(const LaneScope&) = delete;

 private:
  uint64_t prev_;
};

// Embed in lane-owned state; call Check() on every access path. First call
// binds the owner; mismatching later calls abort.
class LaneAffinityChecker {
 public:
  void Check() const {
    uint64_t cur = internal::CurrentAffinityToken();
    uint64_t expected = 0;
    if (owner_.compare_exchange_strong(expected, cur, std::memory_order_relaxed)) {
      return;  // first access: bound to this context
    }
    MOP_CHECK(expected == cur)
        << "lane-affinity violation: state owned by context " << expected
        << " accessed from context " << cur
        << (cur & 1 ? " (lane scope)" : " (raw thread)");
  }

  bool bound() const { return owner_.load(std::memory_order_relaxed) != 0; }

 private:
  mutable std::atomic<uint64_t> owner_{0};
};

#else  // !MOPEYE_LANE_CHECKS — Release: zero state, zero code.

class LaneScope {
 public:
  explicit LaneScope(uint64_t) {}
  LaneScope(const LaneScope&) = delete;
  LaneScope& operator=(const LaneScope&) = delete;
};

class LaneAffinityChecker {
 public:
  void Check() const {}
  bool bound() const { return false; }
};

#endif  // MOPEYE_LANE_CHECKS

}  // namespace mopcc

#endif  // MOPEYE_CONCURRENT_LANE_AFFINITY_H_
