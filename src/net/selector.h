// Socket selector modeled after java.nio.Selector as the paper uses it
// (§2.3, §3.2): channels register interest ops; ready events queue; the
// owning thread is woken once per batch. Selector.wakeup() lets TunReader
// nudge the same waiting point when tunnel packets arrive, which is the §3.2
// co-monitoring trick.
//
// Ownership is per worker lane: each MainWorker lane owns one Selector, a
// channel registers with exactly one selector for its lifetime (enforced in
// SocketChannel::RegisterWith), and wakeups therefore only ever schedule the
// lane that owns the flow.
#ifndef MOPEYE_NET_SELECTOR_H_
#define MOPEYE_NET_SELECTOR_H_

#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "sim/event_loop.h"

namespace mopnet {

class SocketChannel;
enum class SocketEventType;

struct ReadyEvent {
  std::shared_ptr<SocketChannel> channel;  // null for a plain wakeup()
  SocketEventType type;
};

// Internal queue entry. Holds the channel weakly so an undrained ready queue
// never extends a closed channel's lifetime; TakeReady() re-promotes to the
// shared_ptr the owner sees and drops events whose channel already died.
struct PendingEvent {
  std::weak_ptr<SocketChannel> channel;
  bool wakeup = false;  // plain Wakeup(): delivered with a null channel
  SocketEventType type;
};

class Selector {
 public:
  explicit Selector(mopsim::EventLoop* loop);

  // Invoked (once per wakeup batch) when the selector has work. The owner
  // drains with TakeReady(). Events arriving while the owner has not yet
  // drained do not retrigger, matching select()-loop batching.
  std::function<void()> on_wakeup;

  // Deregisters `ch`: drops its queued events (and those of channels that
  // already died).
  void RemoveChannel(SocketChannel* ch);

  // Removes `ch`'s queued events and returns them (in order) instead of
  // dropping them — the deliberate cross-lane migration path (work
  // stealing). The new owner re-enqueues them so nothing in flight is lost
  // across the re-homing; plain wakeups stay here.
  std::vector<PendingEvent> ExtractPending(SocketChannel* ch);

  // Queues a channel event and wakes the owner if needed.
  void Enqueue(std::shared_ptr<SocketChannel> ch, SocketEventType type);

  // Selector.wakeup(): wake the owner with no channel event (used by
  // TunReader after pushing to the read queue, §3.2).
  void Wakeup();

  // The engine's way of scheduling a deferred socket-write event for a
  // channel (MopEye triggers write events itself when tunnel data arrives).
  void TriggerWrite(std::shared_ptr<SocketChannel> ch);

  // Drains all queued events. Called by the owner inside on_wakeup handling.
  std::vector<ReadyEvent> TakeReady();

  size_t pending() const { return ready_.size(); }

 private:
  void MaybeWake();

  mopsim::EventLoop* loop_;
  std::deque<PendingEvent> ready_;
  bool wake_scheduled_ = false;
};

}  // namespace mopnet

#endif  // MOPEYE_NET_SELECTOR_H_
