#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "sim/actor.h"
#include "sim/event_loop.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/time.h"

// Global allocation counter for the steady-state allocation test. Replacing
// operator new in the test binary counts every heap allocation made by code
// linked into it; the test measures the delta across scheduling and running.
namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

// The replaced operator new pairs with malloc and delete with free; GCC warns
// about that pairing at inlined call sites, so silence the false positive.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new[](size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new(size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void* operator new[](size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

#pragma GCC diagnostic pop

namespace {

using mopsim::ActorLane;
using mopsim::EventLoop;
using mopsim::TimerId;
using moputil::Millis;
using moputil::SimTime;

TEST(EventLoop, RunsInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.Schedule(Millis(3), [&] { order.push_back(3); });
  loop.Schedule(Millis(1), [&] { order.push_back(1); });
  loop.Schedule(Millis(2), [&] { order.push_back(2); });
  loop.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.Now(), Millis(3));
}

TEST(EventLoop, FifoAmongEqualTimestamps) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    loop.Schedule(Millis(5), [&order, i] { order.push_back(i); });
  }
  loop.Run();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(EventLoop, CancelPreventsRun) {
  EventLoop loop;
  bool ran = false;
  auto id = loop.Schedule(Millis(1), [&] { ran = true; });
  EXPECT_TRUE(loop.Cancel(id));
  EXPECT_FALSE(loop.Cancel(id));  // double cancel
  loop.Run();
  EXPECT_FALSE(ran);
}

TEST(EventLoop, CancelAfterRunReturnsFalse) {
  EventLoop loop;
  auto id = loop.Schedule(0, [] {});
  loop.Run();
  EXPECT_FALSE(loop.Cancel(id));
}

TEST(EventLoop, RunUntilAdvancesClockToDeadline) {
  EventLoop loop;
  int count = 0;
  loop.Schedule(Millis(1), [&] { ++count; });
  loop.Schedule(Millis(10), [&] { ++count; });
  loop.RunUntil(Millis(5));
  EXPECT_EQ(count, 1);
  EXPECT_EQ(loop.Now(), Millis(5));
  loop.RunUntil(Millis(20));
  EXPECT_EQ(count, 2);
}

TEST(EventLoop, EventsScheduledDuringRunExecute) {
  EventLoop loop;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 5) {
      loop.Schedule(Millis(1), chain);
    }
  };
  loop.Schedule(0, chain);
  loop.Run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(loop.Now(), Millis(4));
}

TEST(EventLoop, StopHaltsExecution) {
  EventLoop loop;
  int count = 0;
  loop.Schedule(Millis(1), [&] {
    ++count;
    loop.Stop();
  });
  loop.Schedule(Millis(2), [&] { ++count; });
  loop.Run();
  EXPECT_EQ(count, 1);
  loop.Run();  // resumes
  EXPECT_EQ(count, 2);
}

TEST(EventLoop, PastScheduleClampsToNow) {
  EventLoop loop;
  loop.Schedule(Millis(5), [&] {
    bool ran = false;
    loop.ScheduleAt(0, [&ran] { ran = true; });  // in the past
    (void)ran;
  });
  loop.Run();
  EXPECT_EQ(loop.Now(), Millis(5));
}

TEST(EventLoop, StaleIdCannotCancelReusedSlot) {
  EventLoop loop;
  // Ids are `generation << 32 | (slot + 1)`; the low half names the slot.
  auto slot_of = [](TimerId id) { return id & 0xffffffffu; };

  TimerId ran = loop.Schedule(Millis(1), [] {});
  loop.Run();
  bool reused_ran = false;
  TimerId reuse = loop.Schedule(Millis(1), [&] { reused_ran = true; });
  ASSERT_EQ(slot_of(reuse), slot_of(ran));
  EXPECT_NE(reuse, ran);
  EXPECT_FALSE(loop.Cancel(ran));
  EXPECT_EQ(loop.pending_events(), 1u);
  loop.Run();
  EXPECT_TRUE(reused_ran);

  TimerId cancelled = loop.Schedule(Millis(1), [] {});
  EXPECT_TRUE(loop.Cancel(cancelled));
  bool reused_cancelled = false;
  TimerId reuse2 = loop.Schedule(Millis(1), [&] { reused_cancelled = true; });
  ASSERT_EQ(slot_of(reuse2), slot_of(cancelled));
  EXPECT_FALSE(loop.Cancel(cancelled));
  EXPECT_EQ(loop.pending_events(), 1u);
  loop.Run();
  EXPECT_TRUE(reused_cancelled);

  // A running task's own id is already dead.
  TimerId self = mopsim::kInvalidTimer;
  bool self_cancel = true;
  self = loop.Schedule(0, [&] { self_cancel = loop.Cancel(self); });
  loop.Run();
  EXPECT_FALSE(self_cancel);
  EXPECT_FALSE(loop.Cancel(mopsim::kInvalidTimer));
}

// Destroys its capture by bumping a counter.
struct DestroyCounter {
  explicit DestroyCounter(int* n) : destroyed(n) {}
  ~DestroyCounter() { ++*destroyed; }
  DestroyCounter(const DestroyCounter&) = delete;
  DestroyCounter& operator=(const DestroyCounter&) = delete;
  int* destroyed;
};

TEST(EventLoop, MoveOnlyCapturesAreDestroyedOnce) {
  int destroyed = 0;
  int ran = 0;
  auto counter = [&destroyed] { return std::make_unique<DestroyCounter>(&destroyed); };
  // Larger than the inline storage, so it takes the heap fallback.
  std::array<char, 2 * mopsim::Task::kInlineSize> big{};
  {
    EventLoop loop;
    ActorLane lane(&loop, "captures");
    loop.Schedule(Millis(1), [c = counter(), &ran, &destroyed] {
      EXPECT_EQ(destroyed, 2);  // the two cancelled below; its own is alive
      ++ran;
    });
    loop.Schedule(Millis(2), [c = counter(), big, &ran] { ran += 1 + big[0]; });
    lane.Submit(Millis(3), 0, [c = counter(), &ran] { ++ran; });
    TimerId cancel_small = loop.Schedule(Millis(4), [c = counter(), &ran] { ++ran; });
    TimerId cancel_big = loop.Schedule(Millis(4), [c = counter(), big, &ran] { ran += 1 + big[0]; });
    loop.Schedule(Millis(20), [c = counter(), &ran] { ++ran; });
    loop.Schedule(Millis(20), [c = counter(), big, &ran] { ran += 1 + big[0]; });
    lane.Submit(Millis(20), 0, [c = counter(), &ran] { ++ran; });
    EXPECT_EQ(destroyed, 0);

    EXPECT_TRUE(loop.Cancel(cancel_small));
    EXPECT_EQ(destroyed, 1);  // at Cancel, not when its time comes
    EXPECT_TRUE(loop.Cancel(cancel_big));
    EXPECT_EQ(destroyed, 2);
    EXPECT_FALSE(loop.Cancel(cancel_big));
    EXPECT_EQ(destroyed, 2);

    loop.RunUntil(Millis(10));
    EXPECT_EQ(ran, 3);
    EXPECT_EQ(destroyed, 5);  // each right after its run
    EXPECT_EQ(loop.pending_events(), 3u);
  }
  EXPECT_EQ(ran, 3);
  EXPECT_EQ(destroyed, 8);  // the three still pending, at ~EventLoop
}

TEST(EventLoop, SteadyStateTasksAllocateNothing) {
  EventLoop loop;
  constexpr int kLanes = 4;
  std::vector<std::unique_ptr<ActorLane>> lanes;
  for (int i = 0; i < kLanes; ++i) {
    lanes.push_back(std::make_unique<ActorLane>(&loop, "alloc"));
  }
  uint64_t sink = 0;
  auto handle = std::make_shared<uint64_t>(7);  // not trivially copyable
  std::array<uint64_t, 3> words = {1, 2, 3};
  auto task = [words, handle, sink_ptr = &sink] { *sink_ptr += words[1] + *handle; };
  static_assert(sizeof(task) == 48);

  // Every 64 submissions the loop runs until every stream has drained, so
  // each lane's queue is recycled under a new generation eight times a
  // round, and refilled by whichever lane enqueues first.
  constexpr int kBurst = 512;
  auto round = [&] {
    for (int i = 0; i < kBurst; ++i) {
      loop.ScheduleAt(loop.Now() + 1 + i % 7, task);
      lanes[static_cast<size_t>(i % kLanes)]->Submit(1 + i % 3, 2 + i % 5, task);
      if (i % 64 == 63) {
        loop.RunUntil(loop.Now() + 400);
        EXPECT_EQ(loop.pending_events(), 0u);
      }
    }
    loop.Run();
  };
  round();  // warm-up: grows the slab, the heap, the queues and the blocks
  const uint64_t before = g_allocations.load();
  for (int r = 0; r < 4; ++r) {
    round();
  }
  const uint64_t after = g_allocations.load();
  EXPECT_EQ(after - before, 0u);
  EXPECT_EQ(sink, 5u * 2 * kBurst * 9);
}

// Runs a callback when destroyed; a moved-from one does nothing.
class OnDestroy {
 public:
  explicit OnDestroy(std::function<void()> fn) : fn_(std::move(fn)) {}
  OnDestroy(OnDestroy&& other) noexcept : fn_(std::exchange(other.fn_, nullptr)) {}
  OnDestroy& operator=(OnDestroy&&) = delete;
  ~OnDestroy() {
    if (fn_) {
      fn_();
    }
  }

 private:
  std::function<void()> fn_;
};

// ~EventLoop destroys every queued stream task's captures exactly once, in
// run order, also when those destructors cancel a timer, enqueue more work
// or destroy a lane whose tasks are still queued.
TEST(EventLoop, TeardownDestroysStreamCapturesOnce) {
  int destroyed = 0;
  int ran = 0;
  auto counter = [&destroyed] { return std::make_unique<DestroyCounter>(&destroyed); };
  {
    mopsim::EventStream late;  // outlives the loop
    EventLoop loop;
    mopsim::EventStream stream;
    ActorLane lane(&loop, "lane");
    auto doomed = std::make_unique<ActorLane>(&loop, "doomed");
    // A backlog spanning several blocks, of which the first few run.
    for (int i = 0; i < 100; ++i) {
      loop.Enqueue(stream, Millis(1) + i, [c = counter(), &ran] { ++ran; });
    }
    loop.RunUntil(Millis(1) + 4);
    EXPECT_EQ(ran, 5);
    EXPECT_EQ(destroyed, 5);

    const TimerId timer = loop.Schedule(Millis(50), [c = counter(), &ran] { ++ran; });
    lane.Submit(Millis(10), 0, [c = counter(), d = OnDestroy([&loop, timer] {
                                                  EXPECT_TRUE(loop.Cancel(timer));
                                                }),
                                &ran] { ++ran; });
    lane.Submit(Millis(10), 0, [c = counter(), d = OnDestroy([&loop, &late, &counter, &ran] {
                                                  loop.Enqueue(late, Millis(60),
                                                               [c = counter(), &ran] { ++ran; });
                                                }),
                                &ran] { ++ran; });
    doomed->Submit(Millis(30), 0, [c = counter(), &ran] { ++ran; });
    doomed->Submit(Millis(30), 0, [c = counter(), &ran] { ++ran; });
    lane.Submit(Millis(10), 0, [c = counter(), d = std::move(doomed), &ran] { ++ran; });
    EXPECT_EQ(loop.pending_events(), 95u + 1 + 3 + 2);
    EXPECT_EQ(destroyed, 5);
  }
  EXPECT_EQ(ran, 5);
  // 100 stream tasks, the timer, the lanes' five tasks and the one enqueued
  // from a destructor.
  EXPECT_EQ(destroyed, 100 + 1 + 5 + 1);
}

#ifndef NDEBUG
// A stream runs its tasks in enqueue order, so a time that goes back would
// run out of (when, seq) order. Debug builds abort on it.
TEST(EventLoopDeathTest, StreamTimeGoingBackAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        EventLoop loop;
        mopsim::EventStream stream;
        loop.Enqueue(stream, Millis(2), [] {});
        loop.Enqueue(stream, Millis(1), [] {});
      },
      "stream time went back");
}
#endif  // NDEBUG

// The loop against a reference model on generated schedules.
//
// One script drives either loop through a thin adapter, and records what it
// observes: which event runs at what Now(), every Cancel result and
// pending_events() after every step. The script draws from one generator on
// each side, so both sides see the same operations as long as they agree.
// The reference keeps pending events in a set sorted by (when, schedule
// order), plus the set of cancelled ones. It models a stream task as a plain
// ScheduleAt that Cancel cannot reach, and a stream's owner as nothing at
// all: dropping one changes nothing it runs.
class ReferenceLoop {
 public:
  SimTime Now() const { return now_; }
  size_t pending() const { return queue_.size() - cancelled_.size(); }
  size_t labels() const { return when_.size(); }

  void ScheduleAt(SimTime when, std::function<void()> fn) {
    when = std::max(when, now_);
    queue_.emplace(when, when_.size());
    when_.push_back(when);
    fns_.push_back(std::move(fn));
    streamed_.push_back(false);
  }
  void Enqueue(size_t, SimTime when, std::function<void()> fn) {
    ScheduleAt(when, std::move(fn));
    streamed_.back() = true;
  }
  void DropStream(size_t) {}
  bool Cancel(size_t label) {
    if (streamed_[label] || queue_.count({when_[label], label}) == 0 ||
        cancelled_.count(label) != 0) {
      return false;
    }
    cancelled_.insert(label);
    return true;
  }
  bool CancelForged(int) { return false; }
  void RunUntil(SimTime deadline) {
    while (RunOne(deadline)) {
    }
    now_ = std::max(now_, deadline);
  }
  void Run() {
    while (RunOne(INT64_MAX)) {
    }
  }

 private:
  bool RunOne(SimTime limit) {
    while (!queue_.empty() && queue_.begin()->first <= limit) {
      auto [when, label] = *queue_.begin();
      queue_.erase(queue_.begin());
      if (cancelled_.erase(label) != 0) {
        continue;
      }
      now_ = when;
      fns_[label]();
      return true;
    }
    return false;
  }

  SimTime now_ = 0;
  std::set<std::pair<SimTime, size_t>> queue_;
  std::set<size_t> cancelled_;
  std::vector<SimTime> when_;
  std::vector<std::function<void()>> fns_;
  std::vector<bool> streamed_;
};

constexpr size_t kScriptStreams = 4;

class RealLoop {
 public:
  RealLoop() {
    for (auto& stream : streams_) {
      stream = std::make_unique<mopsim::EventStream>();
    }
  }

  SimTime Now() const { return loop_.Now(); }
  size_t pending() const { return loop_.pending_events(); }
  size_t labels() const { return ids_.size(); }

  void ScheduleAt(SimTime when, std::function<void()> fn) {
    ids_.push_back(loop_.ScheduleAt(when, std::move(fn)));
  }
  void Enqueue(size_t stream, SimTime when, std::function<void()> fn) {
    loop_.Enqueue(*streams_[stream], when, std::move(fn));
    ids_.push_back(mopsim::kInvalidTimer);
  }
  // The owner dies with its tasks queued; a new one takes its place.
  void DropStream(size_t stream) { streams_[stream] = std::make_unique<mopsim::EventStream>(); }
  bool Cancel(size_t label) { return loop_.Cancel(ids_[label]); }
  // kInvalidTimer, and an id whose slot was never handed out.
  bool CancelForged(int kind) {
    return loop_.Cancel(kind == 0 ? mopsim::kInvalidTimer : ~TimerId{0});
  }
  void RunUntil(SimTime deadline) { loop_.RunUntil(deadline); }
  void Run() { loop_.Run(); }

 private:
  EventLoop loop_;
  std::array<std::unique_ptr<mopsim::EventStream>, kScriptStreams> streams_;
  std::vector<TimerId> ids_;
};

template <typename Loop>
class ScheduleScript {
 public:
  explicit ScheduleScript(uint64_t seed) : rng_(seed) {
    for (size_t s = 0; s < kScriptStreams; ++s) {
      NewOwner(s);
    }
  }

  std::vector<std::string> Play() {
    for (int step = 0; step < 900; ++step) {
      const uint32_t op = rng_.NextU32() % 100;
      if (op < 30) {
        Schedule(0);
      } else if (op < 50) {
        Enqueue(0, rng_.NextU32() % kScriptStreams, "");
      } else if (op < 53) {
        const size_t s = rng_.NextU32() % kScriptStreams;
        Note("drop s" + std::to_string(s), pending_of_[owner_of_[s]]);
        loop_.DropStream(s);
        NewOwner(s);
      } else if (op < 66) {
        CancelSome();
      } else if (op < 70) {
        Note("forged", loop_.CancelForged(static_cast<int>(rng_.NextU32() % 2)));
      } else {
        const SimTime deadline = loop_.Now() + rng_.NextU32() % 12;
        loop_.RunUntil(deadline);
        Note("until", deadline);
      }
    }
    loop_.Run();
    Note("drained", 0);
    return std::move(trace_);
  }

 private:
  // Equal timestamps are common (few distinct offsets), and some land in
  // the past and are clamped.
  SimTime DrawWhen() {
    const SimTime now = loop_.Now();
    switch (rng_.NextU32() % 6) {
      case 0:
      case 1:
        return now + rng_.NextU32() % 3;
      case 2:
        return now;
      case 3:
        return now - 1 - rng_.NextU32() % 5;
      case 4:
        return now + rng_.NextU32() % 40;
      default:
        return 10;  // an absolute time, past or future
    }
  }

  // A stream's times never decrease, but start at most a few ticks in the
  // past (and are clamped), and repeat often, tying with each other and
  // with the timers drawn above.
  SimTime DrawStreamWhen(size_t owner) {
    SimTime when = std::max(last_of_[owner], loop_.Now() - rng_.NextU32() % 4);
    switch (rng_.NextU32() % 4) {
      case 0:
        break;
      case 1:
      case 2:
        when += rng_.NextU32() % 3;
        break;
      default:
        when += rng_.NextU32() % 40;
    }
    last_of_[owner] = when;
    return when;
  }

  void NewOwner(size_t stream) {
    owner_of_[stream] = pending_of_.size();
    pending_of_.push_back(0);
    enqueued_of_.push_back(0);
    last_of_.push_back(loop_.Now() - rng_.NextU32() % 8);
  }

  void Schedule(int depth) {
    const size_t label = loop_.labels();
    loop_.ScheduleAt(DrawWhen(), [this, label, depth] { RunTask(label, depth, kNoStream); });
    Note("schedule", static_cast<int64_t>(label));
  }

  // `from` tags an enqueue made by a running task onto its own stream or
  // another; a refill is an enqueue onto an owner's drained stream.
  void Enqueue(int depth, size_t stream, const std::string& from) {
    const size_t label = loop_.labels();
    const size_t owner = owner_of_[stream];
    const SimTime when = DrawStreamWhen(owner);
    const char* kind = enqueued_of_[owner] == 0 ? "first" : pending_of_[owner] == 0 ? "refill" : "";
    ++pending_of_[owner];
    ++enqueued_of_[owner];
    loop_.Enqueue(stream, when, [this, label, depth, stream, owner] {
      --pending_of_[owner];
      RunTask(label, depth, stream);
    });
    Note("enqueue s" + std::to_string(stream) + " " + kind + from +
             (when < loop_.Now() ? " past" : ""),
         static_cast<int64_t>(label));
  }

  void CancelSome() {
    if (loop_.labels() == 0) {
      return;
    }
    // Half the draws pick one of the last few events, which are often
    // still pending; the rest pick any id, mostly long dead.
    const size_t labels = loop_.labels();
    const size_t label = rng_.NextU32() % 2 == 0
                             ? labels - 1 - rng_.NextU32() % std::min<size_t>(labels, 8)
                             : rng_.NextU32() % labels;
    Note("cancel " + std::to_string(label), loop_.Cancel(label));
  }

  // Tasks schedule, enqueue (onto their own stream and others) and cancel
  // from inside themselves, including their own (already running) id;
  // nesting is bounded so Run() drains.
  void RunTask(size_t label, int depth, size_t stream) {
    Note("run " + std::to_string(label), loop_.Now());
    const uint32_t ops = rng_.NextU32() % 4;
    for (uint32_t i = 0; i < ops; ++i) {
      const uint32_t op = rng_.NextU32() % 5;
      if (op == 0 && depth < 3) {
        Schedule(depth + 1);
      } else if (op == 1) {
        CancelSome();
      } else if (op == 2) {
        Note("cancel self", loop_.Cancel(label));
      } else if (depth < 3) {
        const size_t target = op == 3 && stream != kNoStream ? stream
                                                              : rng_.NextU32() % kScriptStreams;
        Enqueue(depth + 1, target, target == stream ? " own" : " other");
      }
    }
  }

  void Note(const std::string& what, int64_t value) {
    trace_.push_back(what + " -> " + std::to_string(value) + " @" + std::to_string(loop_.Now()) +
                     " pending " + std::to_string(loop_.pending()));
  }

  static constexpr size_t kNoStream = SIZE_MAX;

  Loop loop_;
  moputil::Rng rng_;
  std::vector<std::string> trace_;
  // Per stream, its current owner; per owner, its pending and enqueued
  // task counts and its latest time.
  std::array<size_t, kScriptStreams> owner_of_{};
  std::vector<int> pending_of_;
  std::vector<int> enqueued_of_;
  std::vector<SimTime> last_of_;
};

TEST(EventLoop, MatchesReferenceModelOnGeneratedSchedules) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const std::vector<std::string> want = ScheduleScript<ReferenceLoop>(seed).Play();
    const std::vector<std::string> got = ScheduleScript<RealLoop>(seed).Play();
    const size_t n = std::min(want.size(), got.size());
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(got[i], want[i]) << "first divergence at step " << i;
    }
    ASSERT_EQ(got.size(), want.size());
    // The generator must exercise every case the model distinguishes.
    auto count = [&](const std::string& prefix, const std::string& result) {
      return std::count_if(want.begin(), want.end(), [&](const std::string& line) {
        return line.rfind(prefix, 0) == 0 && line.find(result) != std::string::npos;
      });
    };
    EXPECT_GT(count("run ", ""), 100);
    EXPECT_GT(count("cancel ", "-> 1 @"), 10);
    EXPECT_GT(count("cancel ", "-> 0 @"), 10);
    EXPECT_GT(count("cancel self", "-> 0 @"), 10);
    EXPECT_GT(count("enqueue ", ""), 100);
    EXPECT_GT(count("enqueue ", " refill"), 10);
    EXPECT_GT(count("enqueue ", " own"), 10);
    EXPECT_GT(count("enqueue ", " other"), 10);
    EXPECT_GT(count("enqueue ", " past"), 5);
    EXPECT_GT(count("drop ", "") - count("drop ", "-> 0 @"), 3);  // owners dropped while busy
  }
}

// A task runs when its service ends, so inside it the span it occupied is
// [Now() - service, Now()).
TEST(ActorLane, SerializesTasks) {
  EventLoop loop;
  ActorLane lane(&loop, "t");
  std::vector<std::pair<moputil::SimTime, moputil::SimTime>> spans;
  auto record = [&] { spans.emplace_back(loop.Now() - Millis(5), loop.Now()); };
  // Two tasks submitted at t=0 with 5ms service each: second starts at 5ms.
  lane.Submit(0, Millis(5), record);
  lane.Submit(0, Millis(5), record);
  loop.Run();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0], std::make_pair(moputil::SimTime(0), Millis(5)));
  EXPECT_EQ(spans[1], std::make_pair(Millis(5), Millis(10)));
  EXPECT_EQ(lane.busy_time(), Millis(10));
  EXPECT_EQ(lane.tasks_run(), 2u);
}

TEST(ActorLane, WakeLatencyDelaysStart) {
  EventLoop loop;
  ActorLane lane(&loop, "t");
  moputil::SimTime start = -1;
  lane.Submit(Millis(2), Millis(1), [&] { start = loop.Now() - Millis(1); });
  loop.Run();
  EXPECT_EQ(start, Millis(2));
}

TEST(ActorLane, IdleLaneStartsImmediately) {
  EventLoop loop;
  ActorLane lane(&loop, "t");
  loop.Schedule(Millis(10), [&] {
    lane.Submit(0, Millis(1), [&] { EXPECT_EQ(loop.Now() - Millis(1), Millis(10)); });
  });
  loop.Run();
  EXPECT_TRUE(lane.IsBusyAt(Millis(10)));
  EXPECT_FALSE(lane.IsBusyAt(Millis(11)));
}

TEST(ActorLane, QueueingBehindBusyLane) {
  EventLoop loop;
  ActorLane lane(&loop, "t");
  // First task busy 0-10ms; a task arriving at 3ms with 1ms wake runs at 10.
  lane.Submit(0, Millis(10), [] {});
  moputil::SimTime start = -1;
  loop.Schedule(Millis(3), [&] {
    lane.Submit(Millis(1), Millis(2), [&] { start = loop.Now() - Millis(2); });
  });
  loop.Run();
  EXPECT_EQ(start, Millis(10));
  EXPECT_EQ(lane.busy_time(), Millis(12));
}

TEST(ActorLane, OccupyBooksTimeWithoutAnEvent) {
  EventLoop loop;
  ActorLane lane(&loop, "t");
  // 1ms wake, 3ms service: the lane is booked for [1ms, 4ms), and nothing
  // is scheduled to mark it.
  lane.Occupy(Millis(1), Millis(3));
  EXPECT_EQ(loop.pending_events(), 0u);
  EXPECT_EQ(lane.busy_time(), Millis(3));
  EXPECT_EQ(lane.free_at(), Millis(4));
  EXPECT_TRUE(lane.IsBusyAt(Millis(3)));
  // A task submitted now queues behind the booked span.
  moputil::SimTime start = -1;
  lane.Submit(0, Millis(2), [&] { start = loop.Now() - Millis(2); });
  EXPECT_EQ(loop.pending_events(), 1u);
  loop.Run();
  EXPECT_EQ(start, Millis(4));
  EXPECT_EQ(lane.busy_time(), Millis(5));
  EXPECT_EQ(lane.free_at(), Millis(6));
}

TEST(ActorLane, TaskRunsUnderItsLaneLogToken) {
  EventLoop loop;
  // A task that drives another loop's lane synchronously nests tokens.
  EventLoop inner;
  ActorLane inner_lane(&inner, "lane-b");
  std::string inside;
  std::string nested;
  std::string after_nested;
  moputil::SetLogLaneToken("outer");
  {
    ActorLane lane(&loop, "lane-a");
    lane.Submit(0, Millis(1), [&] {
      inside = moputil::GetLogLaneToken();
      inner_lane.Submit(0, 0, [&] { nested = moputil::GetLogLaneToken(); });
      inner.Run();
      after_nested = moputil::GetLogLaneToken();
    });
  }  // the lane is gone before its task runs
  loop.Run();
  EXPECT_EQ(inside, "lane-a");
  EXPECT_EQ(nested, "lane-b");
  EXPECT_EQ(after_nested, "lane-a");
  EXPECT_STREQ(moputil::GetLogLaneToken(), "outer");
  moputil::SetLogLaneToken(nullptr);
}

}  // namespace
