// ActorLane: a simulated thread.
//
// The paper's engine is built from a handful of threads (TunReader, TunWriter,
// MainWorker, and short-lived socket-connect threads, Fig. 4). In the virtual-
// time reproduction each becomes an ActorLane: tasks submitted to a lane run
// serially, each occupying the lane for a sampled service duration, and a
// task that arrives while the lane is busy queues behind it. This is what
// makes "the selector event was delayed several ms because MainWorker was
// busy" (challenge C2, §2.4) an emergent property rather than a constant.
//
// Work whose only effect is the time it takes (a syscall whose result no one
// waits for) is booked with Occupy: it delays later tasks and counts as busy
// time exactly like a Submit, but schedules no event.
//
// Cost model: a lane's tasks run at non-decreasing times, so they form one
// FIFO EventStream on the loop. A backlog of any length adds one key to the
// loop's heap, and each task sits inline in the stream's blocks.
#ifndef MOPEYE_SIM_ACTOR_H_
#define MOPEYE_SIM_ACTOR_H_

#include <memory>
#include <string>
#include <type_traits>
#include <utility>

#include "sim/event_loop.h"
#include "util/logging.h"
#include "util/time.h"

namespace mopsim {

class ActorLane {
 public:
  // `name` is for diagnostics only.
  ActorLane(EventLoop* loop, std::string name);
  ActorLane(const ActorLane&) = delete;
  ActorLane& operator=(const ActorLane&) = delete;

  // Submits a task:
  //   start = max(now + wake_latency, lane free time)
  //   end   = start + service
  // `fn` runs at `end` (its externally visible effects happen when the
  // simulated thread finishes the work), so inside it Now() == end, and the
  // log lane token names this lane. `fn` is wrapped once: it and the lane's
  // token share one Task, so a capture of up to 48 bytes stays inline. The
  // task still runs if the lane is destroyed first.
  template <typename F>
  void Submit(SimDuration wake_latency, SimDuration service, F&& fn) {
    Occupy(wake_latency, service);
    loop_->Enqueue(stream_, free_at_, [fn = std::forward<F>(fn), token = log_token_]() mutable {
      ScopedLaneToken lane_token(token->c_str());
      fn();
    });
  }

  // Books [start, end) exactly as Submit does, but schedules no event.
  void Occupy(SimDuration wake_latency, SimDuration service);

  // Total time this lane spent executing tasks (for the CPU model, Table 4).
  SimDuration busy_time() const { return busy_time_; }
  SimTime free_at() const { return free_at_; }
  bool IsBusyAt(SimTime t) const { return t < free_at_; }
  const std::string& name() const { return name_; }
  size_t tasks_run() const { return tasks_run_; }

 private:
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

  EventLoop* loop_;
  EventStream stream_;
  std::string name_;
  // The lane name, shared into scheduled closures so the log-prefix lane
  // token stays valid even if a task outlives its (retired) lane.
  std::shared_ptr<const std::string> log_token_;
  SimTime free_at_ = 0;
  SimDuration busy_time_ = 0;
  size_t tasks_run_ = 0;
};

// A copy would share the stream handle, merging two lanes' FIFOs.
static_assert(!std::is_copy_constructible_v<ActorLane> && !std::is_move_constructible_v<ActorLane>);

}  // namespace mopsim

#endif  // MOPEYE_SIM_ACTOR_H_
