#include <gtest/gtest.h>

#include <vector>

#include "sim/actor.h"
#include "sim/event_loop.h"
#include "util/time.h"

namespace {

using mopsim::ActorLane;
using mopsim::EventLoop;
using moputil::Millis;

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

}  // namespace
