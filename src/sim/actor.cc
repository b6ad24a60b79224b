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

void ActorLane::Occupy(SimDuration wake_latency, SimDuration service) {
  MOP_CHECK_GE(wake_latency, 0);
  MOP_CHECK_GE(service, 0);
  SimTime start = std::max(loop_->Now() + wake_latency, free_at_);
  free_at_ = start + service;
  busy_time_ += service;
  ++tasks_run_;
}

}  // namespace mopsim
