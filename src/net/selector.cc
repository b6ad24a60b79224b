#include "net/selector.h"

#include <algorithm>

#include "net/socket.h"
#include "util/logging.h"

namespace mopnet {

Selector::Selector(mopsim::EventLoop* loop) : loop_(loop) { MOP_CHECK(loop != nullptr); }

void Selector::RemoveChannel(SocketChannel* ch) {
  // Cancelled-key semantics (java.nio): a deregistered channel must not
  // deliver events that were queued before the deregister.
  ready_.erase(std::remove_if(ready_.begin(), ready_.end(),
                              [ch](const PendingEvent& p) {
                                if (p.wakeup) {
                                  return false;
                                }
                                auto s = p.channel.lock();
                                return !s || s.get() == ch;
                              }),
               ready_.end());
}

std::vector<PendingEvent> Selector::ExtractPending(SocketChannel* ch) {
  std::vector<PendingEvent> extracted;
  auto keep = ready_.begin();
  for (auto it = ready_.begin(); it != ready_.end(); ++it) {
    auto s = it->wakeup ? nullptr : it->channel.lock();
    if (s != nullptr && s.get() == ch) {
      extracted.push_back(std::move(*it));
    } else {
      if (keep != it) {
        *keep = std::move(*it);
      }
      ++keep;
    }
  }
  ready_.erase(keep, ready_.end());
  return extracted;
}

void Selector::Enqueue(std::shared_ptr<SocketChannel> ch, SocketEventType type) {
  ready_.push_back(PendingEvent{ch, false, type});
  MaybeWake();
}

void Selector::Wakeup() {
  ready_.push_back(PendingEvent{{}, true, SocketEventType::kReadable});
  MaybeWake();
}

void Selector::TriggerWrite(std::shared_ptr<SocketChannel> ch) {
  ready_.push_back(PendingEvent{ch, false, SocketEventType::kWritable});
  MaybeWake();
}

std::vector<ReadyEvent> Selector::TakeReady() {
  std::vector<ReadyEvent> out;
  out.reserve(ready_.size());
  for (const PendingEvent& p : ready_) {
    if (p.wakeup) {
      out.push_back(ReadyEvent{nullptr, p.type});
    } else if (auto ch = p.channel.lock()) {
      out.push_back(ReadyEvent{std::move(ch), p.type});
    }
    // else: the channel died before the owner drained; drop the event.
  }
  ready_.clear();
  return out;
}

void Selector::MaybeWake() {
  if (wake_scheduled_ || !on_wakeup) {
    return;
  }
  wake_scheduled_ = true;
  loop_->Post([this] {
    wake_scheduled_ = false;
    if (on_wakeup) {
      on_wakeup();
    }
  });
}

}  // namespace mopnet
