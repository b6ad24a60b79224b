#include "sim/event_loop.h"

#include <algorithm>

#include "util/logging.h"

namespace mopsim {

namespace {
// Publishes the loop's virtual clock to the log prefix for the duration of a
// Run()/RunUntil(), restoring whatever was installed before (nested RunFor
// inside a driver's Run keeps the same clock; real-thread code that never
// drives a loop keeps none).
class ScopedLogClock {
 public:
  explicit ScopedLogClock(const SimTime* now) : prev_(moputil::GetLogClock()) {
    moputil::SetLogClock(now);
  }
  ~ScopedLogClock() { moputil::SetLogClock(prev_); }
  ScopedLogClock(const ScopedLogClock&) = delete;
  ScopedLogClock& operator=(const ScopedLogClock&) = delete;

 private:
  const int64_t* prev_;
};

constexpr size_t kArity = 4;
}  // namespace

bool EventLoop::Before(const Key& a, const Key& b) {
  return a.when < b.when || (a.when == b.when && a.seq < b.seq);
}

EventLoop::~EventLoop() {
  // Destroy pending captures while the loop is still whole: a capture's
  // destructor may cancel another timer on this loop.
  for (size_t slot = 0; slot < gens_.size(); ++slot) {
    TaskAt(static_cast<uint32_t>(slot)).Reset();
  }
}

TimerId EventLoop::Schedule(SimDuration delay, Task task) {
  MOP_CHECK_GE(delay, 0) << "negative event delay";
  return ScheduleAt(now_ + delay, std::move(task));
}

TimerId EventLoop::ScheduleAt(SimTime when, Task task) {
  if (when < now_) {
    when = now_;
  }
  uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    MOP_CHECK_LT(gens_.size(), size_t{UINT32_MAX}) << "event slab full";
    slot = static_cast<uint32_t>(gens_.size());
    if ((slot & (kChunkSlots - 1)) == 0) {
      chunks_.push_back(std::make_unique<Task[]>(kChunkSlots));
    }
    gens_.push_back(0);
  }
  TaskAt(slot) = std::move(task);
  const uint32_t gen = gens_[slot];
  PushKey(Key{when, next_seq_++, slot, gen});
  ++pending_;
  return (TimerId{gen} << 32) | (TimerId{slot} + 1);
}

bool EventLoop::Cancel(TimerId id) {
  const uint64_t slot = (id & UINT32_MAX) - 1;  // kInvalidTimer wraps out of range
  const auto gen = static_cast<uint32_t>(id >> 32);
  if (slot >= gens_.size() || gens_[slot] != gen) {
    return false;
  }
  // Running tasks have already advanced their generation, so `slot` holds a
  // pending event: retire its id, then destroy the captures before the slot
  // can be reused.
  ++gens_[slot];
  --pending_;
  TaskAt(static_cast<uint32_t>(slot)).Reset();
  free_slots_.push_back(static_cast<uint32_t>(slot));
  return true;
}

void EventLoop::PushKey(const Key& key) {
  size_t i = heap_.size();
  heap_.push_back(key);
  while (i > 0) {
    const size_t parent = (i - 1) / kArity;
    if (!Before(key, heap_[parent])) {
      break;
    }
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = key;
}

void EventLoop::PopTop() {
  const Key last = heap_.back();
  heap_.pop_back();
  const size_t n = heap_.size();
  if (n == 0) {
    return;
  }
  size_t i = 0;
  for (;;) {
    const size_t first = kArity * i + 1;
    if (first >= n) {
      break;
    }
    size_t best = first;
    for (size_t c = first + 1; c < std::min(first + kArity, n); ++c) {
      if (Before(heap_[c], heap_[best])) {
        best = c;
      }
    }
    if (!Before(heap_[best], last)) {
      break;
    }
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = last;
}

bool EventLoop::RunOne(SimTime limit) {
  while (!heap_.empty()) {
    const Key top = heap_.front();
    if (top.when > limit) {
      return false;
    }
    PopTop();
    if (gens_[top.slot] != top.gen) {  // cancelled
      continue;
    }
    ++gens_[top.slot];
    --pending_;
    now_ = top.when;
    // The slot stays off the free list until the task has returned and its
    // captures are gone, so nothing it schedules can land on it.
    Task& task = TaskAt(top.slot);
    task();
    task.Reset();
    free_slots_.push_back(top.slot);
    return true;
  }
  return false;
}

size_t EventLoop::Run() {
  ScopedLogClock clock(&now_);
  stopped_ = false;
  size_t n = 0;
  while (!stopped_ && RunOne(INT64_MAX)) {
    ++n;
  }
  return n;
}

size_t EventLoop::RunUntil(SimTime deadline) {
  ScopedLogClock clock(&now_);
  stopped_ = false;
  size_t n = 0;
  while (!stopped_ && RunOne(deadline)) {
    ++n;
  }
  if (!stopped_ && now_ < deadline) {
    now_ = deadline;
  }
  return n;
}

}  // namespace mopsim
