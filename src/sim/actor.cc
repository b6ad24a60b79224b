#include "sim/actor.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"

namespace mopsim {

ActorLane::ActorLane(EventLoop* loop, std::string name)
    : loop_(loop),
      name_(std::move(name)),
      log_token_(std::make_shared<const std::string>(name_)) {
  MOP_CHECK(loop != nullptr);
}

namespace {
// Sets the thread-local log lane token for the duration of one task, so log
// lines (and flight-recorder dumps triggered by MOP_CHECK) name the lane
// they ran on. Restores the previous token: a lane task that synchronously
// drives another actor's callback nests correctly.
class ScopedLaneToken {
 public:
  explicit ScopedLaneToken(const char* token) : prev_(moputil::GetLogLaneToken()) {
    moputil::SetLogLaneToken(token);
  }
  ~ScopedLaneToken() { moputil::SetLogLaneToken(prev_); }
  ScopedLaneToken(const ScopedLaneToken&) = delete;
  ScopedLaneToken& operator=(const ScopedLaneToken&) = delete;

 private:
  const char* prev_;
};
}  // namespace

void ActorLane::Occupy(SimDuration wake_latency, SimDuration service) {
  MOP_CHECK_GE(wake_latency, 0);
  MOP_CHECK_GE(service, 0);
  SimTime start = std::max(loop_->Now() + wake_latency, free_at_);
  free_at_ = start + service;
  busy_time_ += service;
  ++tasks_run_;
}

void ActorLane::Submit(SimDuration wake_latency, SimDuration service,
                       std::function<void()> fn) {
  Occupy(wake_latency, service);
  loop_->ScheduleAt(free_at_, [fn = std::move(fn), token = log_token_] {
    ScopedLaneToken lane_token(token->c_str());
    fn();
  });
}

}  // namespace mopsim
