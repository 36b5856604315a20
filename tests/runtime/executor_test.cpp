#include "horus/runtime/executor.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

namespace horus::runtime {
namespace {

// GroupExecutor is the paper's monitor: the behaviour tests below pin down
// run-to-completion, FIFO order and exception safety.
TEST(GroupExecutor, RunToCompletion) {
  // The defining monitor property: a task posted from inside a task runs
  // AFTER the current task finishes -- one logical thread in the stack.
  GroupExecutor ex;
  std::vector<int> order;
  ex.post(kNoGroup, [&] {
    order.push_back(1);
    ex.post(kNoGroup, [&] { order.push_back(2); });
    order.push_back(3);
  });
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
}

TEST(GroupExecutor, DeepNestingDrains) {
  GroupExecutor ex;
  int count = 0;
  std::function<void(int)> recurse = [&](int depth) {
    ++count;
    if (depth > 0) ex.post(kNoGroup, [&recurse, depth] { recurse(depth - 1); });
  };
  ex.post(kNoGroup, [&] { recurse(100); });
  EXPECT_EQ(count, 101);
}

TEST(GroupExecutor, FifoOrder) {
  // Long enough to grow the queue several times from a non-zero head.
  GroupExecutor ex;
  for (int i = 0; i < 7; ++i) ex.post(kNoGroup, [] {});
  std::vector<int> order;
  ex.post(kNoGroup, [&] {
    for (int i = 0; i < 100; ++i) {
      ex.post(static_cast<GroupKey>(i % 3), [&order, i] { order.push_back(i); });
    }
  });
  std::vector<int> want(100);
  std::iota(want.begin(), want.end(), 0);
  EXPECT_EQ(order, want);
}

TEST(GroupExecutor, ThrowingTaskDoesNotWedgeTheQueue) {
  // Regression: a throwing task used to leave running_ latched forever, so
  // every later post queued behind a drain loop that no longer existed.
  GroupExecutor ex;
  EXPECT_THROW(ex.post(5, [] { throw std::runtime_error("boom"); }),
               std::runtime_error);
  int ran = 0;
  ex.post(5, [&] { ++ran; });
  EXPECT_EQ(ran, 1);
}

TEST(GroupExecutor, TasksQueuedBehindThrowerSurvive) {
  GroupExecutor ex;
  std::vector<int> order;
  EXPECT_THROW(ex.post(kNoGroup, [&] {
    ex.post(kNoGroup, [&] { order.push_back(1); });  // queued behind the thrower
    throw std::runtime_error("boom");
  }),
               std::runtime_error);
  EXPECT_TRUE(order.empty());  // drain aborted by the throw
  EXPECT_EQ(ex.pending(), 1u);
  ex.post(kNoGroup, [&] { order.push_back(2); });  // resumes: old task first
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(GroupExecutor, DispatchOrderIsGlobalPostOrder) {
  // The schedule horus-check hashes: across groups, tasks run in the order
  // they were posted, whatever their group, and a throw only pauses it.
  GroupExecutor ex;
  std::vector<std::pair<GroupKey, std::uint64_t>> trace;
  ex.set_trace([&](GroupKey g, std::uint64_t seq) { trace.emplace_back(g, seq); });
  std::vector<int> order;
  EXPECT_THROW(ex.post(1, [&] {
    order.push_back(10);
    ex.post(2, [&] {
      order.push_back(20);
      ex.post(1, [&] { order.push_back(12); });
    });
    ex.post(3, [&] {
      order.push_back(30);
      throw std::runtime_error("boom");
    });
    ex.post(1, [&] { order.push_back(11); });
    ex.post(2, [&] { order.push_back(21); });
    order.push_back(19);
  }),
               std::runtime_error);
  EXPECT_EQ(order, (std::vector<int>{10, 19, 20, 30}));
  EXPECT_EQ(ex.pending(), 3u);
  ex.post(3, [&] { order.push_back(31); });
  EXPECT_EQ(order, (std::vector<int>{10, 19, 20, 30, 11, 21, 12, 31}));
  EXPECT_EQ(trace, (std::vector<std::pair<GroupKey, std::uint64_t>>{
                       {1, 1}, {2, 2}, {3, 3}, {1, 4}, {2, 5}, {1, 6}, {3, 7}}));
  EXPECT_EQ(ex.executed(), 7u);
  EXPECT_EQ(ex.pending(), 0u);
}

// The inbox: how a node loop takes posts from other threads. Each "loop"
// below is a fresh thread, so no test thread is ever marked as one.
TEST(GroupExecutor, InboxHandsOtherThreadsPostsToTheLoopInOrder) {
  GroupExecutor ex;
  std::atomic<int> wakes{0};
  ex.set_wake([&wakes] { wakes.fetch_add(1); });
  std::thread([&ex] { ex.run_inbox(); }).join();  // nothing queued yet

  std::vector<int> order;
  std::thread::id ran_on;
  for (int i = 0; i < 3; ++i) {
    ex.post(kNoGroup, [&order, &ran_on, i] {
      order.push_back(i);
      ran_on = std::this_thread::get_id();
    });
  }
  EXPECT_TRUE(order.empty());  // queued, not run on the poster
  EXPECT_EQ(wakes.load(), 1);  // one wake-up for the burst
  std::thread::id loop_id;
  std::thread loop([&] {
    loop_id = std::this_thread::get_id();
    ex.run_inbox();
  });
  loop.join();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(ran_on, loop_id);
  ex.set_wake(nullptr);
}

TEST(GroupExecutor, DetachingRunsTheInboxOnTheCaller) {
  GroupExecutor ex;
  ex.set_wake([] {});
  std::vector<int> order;
  ex.post(kNoGroup, [&order] { order.push_back(1); });
  ex.post(kNoGroup, [&order] { order.push_back(2); });
  EXPECT_TRUE(order.empty());
  ex.set_wake(nullptr);  // the loop is gone: its leftovers run here
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  ex.post(kNoGroup, [&order] { order.push_back(3); });  // inline again
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

}  // namespace
}  // namespace horus::runtime
