// Tests for the mopcc lane primitives: the elephant-flow steal board and the
// Debug-only lane-affinity checker, including its cross-thread death check.
#include <gtest/gtest.h>

#include <thread>

#include "concurrent/lane_affinity.h"
#include "concurrent/steal_board.h"

namespace {

// ---- StealBoard: one-slot-per-lane elephant-flow publication board ----

TEST(StealBoard, PublishTakeRoundTrip) {
  mopcc::StealBoard<int> board(4);
  EXPECT_EQ(board.lanes(), 4u);
  EXPECT_FALSE(board.pending(2));
  board.Publish(2, /*flow=*/77, /*depth=*/31);
  EXPECT_TRUE(board.pending(2));
  EXPECT_FALSE(board.pending(0));

  mopcc::StealBoard<int>::Publication pub;
  ASSERT_TRUE(board.Take(2, &pub));
  EXPECT_EQ(pub.flow, 77);
  EXPECT_EQ(pub.depth, 31u);
  EXPECT_TRUE(pub.valid);
  // Take clears the slot: a second read finds nothing.
  EXPECT_FALSE(board.pending(2));
  EXPECT_FALSE(board.Take(2, &pub));
}

TEST(StealBoard, PendingPublicationIsNotOverwritten) {
  // A lane must not spam the board faster than the consumer judges offers:
  // while a publication is pending, later ones from the same lane are
  // dropped, so the consumer always sees the offer it was first shown.
  mopcc::StealBoard<int> board(2);
  board.Publish(1, 10, 8);
  board.Publish(1, 99, 200);  // ignored: slot still pending
  mopcc::StealBoard<int>::Publication pub;
  ASSERT_TRUE(board.Take(1, &pub));
  EXPECT_EQ(pub.flow, 10);
  EXPECT_EQ(pub.depth, 8u);
  // Once judged, the lane may publish again.
  board.Publish(1, 99, 200);
  ASSERT_TRUE(board.Take(1, &pub));
  EXPECT_EQ(pub.flow, 99);
}

TEST(StealBoard, SlotsArePerLane) {
  mopcc::StealBoard<int> board(3);
  board.Publish(0, 5, 40);
  board.Publish(2, 6, 50);
  mopcc::StealBoard<int>::Publication pub;
  EXPECT_FALSE(board.Take(1, &pub));
  ASSERT_TRUE(board.Take(0, &pub));
  EXPECT_EQ(pub.flow, 5);
  ASSERT_TRUE(board.Take(2, &pub));
  EXPECT_EQ(pub.flow, 6);
}

// --- Lane-affinity checker ---------------------------------------------------
// Active in debug builds (MOPEYE_LANE_CHECKS); compiled out to empty no-op
// classes under NDEBUG, which the #else branch below pins down.

#if MOPEYE_LANE_CHECKS

TEST(LaneAffinity, SameContextRepeatedAccessOk) {
  mopcc::LaneAffinityChecker checker;
  EXPECT_FALSE(checker.bound());
  checker.Check();
  checker.Check();
  EXPECT_TRUE(checker.bound());
}

TEST(LaneAffinity, LaneScopeNestingRestoresOuterLane) {
  mopcc::LaneAffinityChecker outer;
  mopcc::LaneScope scope(3);
  outer.Check();
  {
    mopcc::LaneScope inner(4);
    mopcc::LaneAffinityChecker other;
    other.Check();
  }
  outer.Check();  // would abort if the inner scope leaked its token
}

TEST(LaneAffinityDeathTest, CrossLaneAccessAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  mopcc::LaneAffinityChecker checker;
  {
    mopcc::LaneScope scope(1);
    checker.Check();
  }
  EXPECT_DEATH(
      {
        mopcc::LaneScope scope(2);
        checker.Check();
      },
      "lane-affinity violation");
}

TEST(LaneAffinityDeathTest, CrossThreadAccessAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  mopcc::LaneAffinityChecker checker;
  checker.Check();  // binds to this thread
  EXPECT_DEATH(std::thread([&] { checker.Check(); }).join(),
               "lane-affinity violation");
}

#else  // !MOPEYE_LANE_CHECKS

TEST(LaneAffinity, CompiledOutInRelease) {
  mopcc::LaneAffinityChecker checker;
  checker.Check();
  std::thread([&] { checker.Check(); }).join();  // must be silent
  EXPECT_FALSE(checker.bound());
}

#endif  // MOPEYE_LANE_CHECKS

}  // namespace
