// Deterministic discrete-event loop on a virtual nanosecond clock.
//
// Every experiment in this repo runs on one EventLoop. Determinism contract:
// events at equal timestamps fire in scheduling order (FIFO tie-break), so a
// fixed seed yields a bit-identical run.
//
// Cost model: scheduling, running and cancelling an event allocate nothing
// in the steady state.
//  * A task is a Task: a move-only void() callable. The loop owns it from
//    Schedule or Enqueue until it has run or been cancelled. Callables of up
//    to Task::kInlineSize (64) bytes whose move cannot throw live inline in
//    the Task; larger ones, or ones whose move may throw, take one heap
//    allocation.
//  * Timers and one-off events (Schedule/ScheduleAt/Post) live in a slab of
//    slots recycled through a free list. A TimerId is the slot plus the
//    slot's 32-bit generation (`generation << 32 | (slot + 1)`, so never
//    kInvalidTimer), and Cancel compares generations in O(1). Cancel
//    destroys the task's captures immediately and frees the slot; an id
//    whose event ran or was cancelled stays dead even after its slot is
//    reused.
//  * A producer whose times never decrease (an ActorLane, a socket's
//    client-bound deliveries) enqueues onto its own FIFO stream instead.
//    Enqueue stamps the task's (when, seq) as ScheduleAt would and stores it
//    inline in fixed-size blocks drawn from one free list shared by every
//    stream. Only a stream's head is keyed in the heap; when it pops, its
//    successor's key goes in. Stream tasks cannot be cancelled.
//  * Order is a 4-ary min-heap of 24-byte keys {when, seq, slot, gen} by
//    (when, seq), where seq counts Schedule and Enqueue calls: that is the
//    FIFO tie-break, and it is why a stream runs its tasks exactly where
//    ScheduleAt would have. The heap holds one key per timer plus one per
//    non-empty stream, so a lane's backlog does not deepen it. A cancelled
//    event's key stays in the heap until it reaches the top, where its stale
//    generation gets it skipped.
#ifndef MOPEYE_SIM_EVENT_LOOP_H_
#define MOPEYE_SIM_EVENT_LOOP_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/time.h"

namespace mopsim {

using moputil::SimDuration;
using moputil::SimTime;

using TimerId = uint64_t;
constexpr TimerId kInvalidTimer = 0;

// A move-only void() callable with inline storage for small captures.
class Task {
 public:
  static constexpr size_t kInlineSize = 64;

  Task() noexcept = default;
  template <typename F, typename Fn = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<Fn, Task> &&
                                        std::is_invocable_r_v<void, Fn&>>>
  Task(F&& fn) {  // NOLINT(google-explicit-constructor)
    if constexpr (kFitsInline<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(fn));
      ops_ = &kInlineOps<Fn>;
    } else {
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(fn)));
      ops_ = &kHeapOps<Fn>;
    }
  }
  Task(Task&& o) noexcept { *this = std::move(o); }
  Task& operator=(Task&& o) noexcept {
    if (this != &o) {
      Reset();
      if (o.ops_ != nullptr) {
        o.ops_->relocate(storage_, o.storage_);
        ops_ = o.ops_;
        o.ops_ = nullptr;
      }
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { Reset(); }

  void operator()() { ops_->invoke(storage_); }

  // Destroys the callable (and its captures), leaving the Task empty. The
  // Task is already empty while the captures' destructors run.
  void Reset() noexcept {
    if (ops_ != nullptr) {
      const Ops* ops = ops_;
      ops_ = nullptr;
      ops->destroy(storage_);
    }
  }

 private:
  struct Ops {
    void (*invoke)(void* self);
    void (*relocate)(void* dst, void* src) noexcept;  // move-construct, destroy src
    void (*destroy)(void* self) noexcept;
  };

  template <typename Fn>
  static constexpr bool kFitsInline = sizeof(Fn) <= kInlineSize &&
                                      alignof(Fn) <= alignof(std::max_align_t) &&
                                      std::is_nothrow_move_constructible_v<Fn>;

  template <typename Fn>
  static constexpr Ops kInlineOps = {
      [](void* self) { (*std::launder(static_cast<Fn*>(self)))(); },
      [](void* dst, void* src) noexcept {
        Fn* from = std::launder(static_cast<Fn*>(src));
        ::new (dst) Fn(std::move(*from));
        from->~Fn();
      },
      [](void* self) noexcept { std::launder(static_cast<Fn*>(self))->~Fn(); },
  };
  template <typename Fn>
  static constexpr Ops kHeapOps = {
      [](void* self) { (**std::launder(static_cast<Fn**>(self)))(); },
      [](void* dst, void* src) noexcept {
        ::new (dst) Fn*(*std::launder(static_cast<Fn**>(src)));
      },
      [](void* self) noexcept { delete *std::launder(static_cast<Fn**>(self)); },
  };

  alignas(std::max_align_t) unsigned char storage_[kInlineSize];
  const Ops* ops_ = nullptr;
};

// An owner's handle on its FIFO event stream. A stream holds a queue in the
// loop only while it has pending tasks: a drained queue is recycled under a
// new generation, so the handle goes stale and the next Enqueue takes a
// fresh queue. The handle touches nothing when destroyed, so an owner may die
// with tasks queued; they still run, in order. It cannot be copied or moved:
// two handles on one queue would merge two streams.
class EventStream {
 public:
  EventStream() = default;
  EventStream(const EventStream&) = delete;
  EventStream& operator=(const EventStream&) = delete;

 private:
  friend class EventLoop;
  uint32_t queue_ = UINT32_MAX;
  uint32_t gen_ = 0;
};

class EventLoop {
 public:
  EventLoop() = default;
  ~EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  SimTime Now() const { return now_; }

  // Schedules `task` to run `delay` from now (>= 0). Returns a cancelable id.
  TimerId Schedule(SimDuration delay, Task task);
  // Schedules at an absolute time (clamped to now if in the past).
  TimerId ScheduleAt(SimTime when, Task task);
  // Runs `task` after all already-scheduled events at the current instant.
  TimerId Post(Task task) { return Schedule(0, std::move(task)); }

  // Cancels a pending event and destroys its task. Returns false if it
  // already ran (or is running), was cancelled, or is unknown.
  bool Cancel(TimerId id);

  // Appends `task` to `stream`, to run at `when` (clamped to now if in the
  // past), after the stream's earlier tasks and wherever ScheduleAt(when,
  // task) would have put it among everything else. A stream's times must
  // never decrease (checked in Debug builds). Cannot be cancelled.
  void Enqueue(EventStream& stream, SimTime when, Task task);

  // Runs until the queue drains or Stop() is called. Returns events executed.
  size_t Run();
  // Runs events with time <= deadline; clock lands on `deadline` afterward
  // (even if the queue drained earlier), so successive RunUntil calls advance
  // monotonically.
  size_t RunUntil(SimTime deadline);
  size_t RunFor(SimDuration d) { return RunUntil(now_ + d); }
  void Stop() { stopped_ = true; }

  // Events scheduled or enqueued, not yet run and not cancelled.
  size_t pending_events() const { return pending_; }

 private:
  struct Key {
    SimTime when;
    uint64_t seq;
    uint32_t slot;  // a slab slot, or kStreamBit | stream queue
    uint32_t gen;
  };
  static_assert(sizeof(Key) == 24);
  static constexpr uint32_t kStreamBit = uint32_t{1} << 31;
  // Orders by (when, seq).
  static bool Before(const Key& a, const Key& b);

  // A stream's tasks, stamped at Enqueue, in blocks that stay put until the
  // loop is destroyed: a queue is a singly linked run of blocks, read from
  // head_pos in its first and appended at tail_pos in its last. An empty
  // queue holds no block.
  struct StreamEntry {
    SimTime when;
    uint64_t seq;
    Task task;
  };
  static constexpr uint32_t kBlockEntries = 32;
  struct Block {
    StreamEntry entries[kBlockEntries];
    Block* next = nullptr;
  };
  struct StreamQueue {
    Block* head = nullptr;
    Block* tail = nullptr;
    uint32_t head_pos = 0;
    uint32_t tail_pos = 0;
    uint32_t gen = 0;  // advances when the queue drains
  };
  Block* AcquireBlock();
  void ReleaseBlock(Block* block);
  // Takes queue `q`'s head task off the pending count and moves it out.
  // Keys its successor into the heap, or recycles the drained queue.
  Task PopStreamHead(uint32_t q);

  // Slots are allocated in fixed chunks so a running task never moves while
  // it schedules more.
  static constexpr size_t kChunkBits = 8;
  static constexpr size_t kChunkSlots = size_t{1} << kChunkBits;
  Task& TaskAt(uint32_t slot) {
    return chunks_[slot >> kChunkBits][slot & (kChunkSlots - 1)];
  }

  void PushKey(const Key& key);
  void PopTop();
  // Pops and runs one event; false if none eligible (w.r.t. limit).
  bool RunOne(SimTime limit);

  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  bool stopped_ = false;
  size_t pending_ = 0;
  std::vector<Key> heap_;
  // gens_[slot] is the generation of the slot's current (or next) event; it
  // advances when that event runs or is cancelled.
  std::vector<uint32_t> gens_;
  std::vector<uint32_t> free_slots_;
  std::vector<std::unique_ptr<Task[]>> chunks_;
  std::vector<StreamQueue> queues_;
  std::vector<uint32_t> free_queues_;
  std::vector<std::unique_ptr<Block>> blocks_;
  Block* free_blocks_ = nullptr;
};

}  // namespace mopsim

#endif  // MOPEYE_SIM_EVENT_LOOP_H_
