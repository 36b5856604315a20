#include "horus/runtime/executor.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <numeric>
#include <set>
#include <stdexcept>
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

TEST(GroupExecutor, BatchIsOneDispatch) {
  // A batch runs back to back as one dispatch decision, so packing does
  // not change the dispatch trace's length.
  GroupExecutor ex;
  std::vector<int> order;
  ex.post(4, [&] {
    std::vector<Task> batch;
    for (int i = 0; i < 3; ++i) batch.push_back([&order, i] { order.push_back(i); });
    ex.post_batch(6, std::move(batch));
    ex.post(5, [&] { order.push_back(9); });
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 9}));
  EXPECT_EQ(ex.executed(), 3u);
}

TEST(ShardedExecutor, RunsAllTasks) {
  ShardedExecutor ex(4);
  std::atomic<int> count{0};
  for (GroupKey g = 0; g < 16; ++g) {
    for (int i = 0; i < 50; ++i) {
      ex.post(g, [&] { count.fetch_add(1); });
    }
  }
  ex.drain();
  EXPECT_EQ(count.load(), 800);
}

TEST(ShardedExecutor, PerGroupTasksNeverOverlap) {
  // The monitor invariant, per group: tasks for one group are serialized
  // (same shard FIFO), so a plain int per group needs no protection.
  ShardedExecutor ex(4);
  constexpr int kGroups = 8;
  int unguarded[kGroups] = {};
  for (int round = 0; round < 200; ++round) {
    for (int g = 0; g < kGroups; ++g) {
      ex.post(static_cast<GroupKey>(g), [&unguarded, g] { ++unguarded[g]; });
    }
  }
  ex.drain();
  for (int g = 0; g < kGroups; ++g) EXPECT_EQ(unguarded[g], 200) << g;
}

TEST(ShardedExecutor, PerGroupFifoOrder) {
  ShardedExecutor ex(3);
  constexpr int kGroups = 5;
  std::vector<int> order[kGroups];
  for (int i = 0; i < 100; ++i) {
    for (int g = 0; g < kGroups; ++g) {
      ex.post(static_cast<GroupKey>(g),
              [&order, g, i] { order[g].push_back(i); });
    }
  }
  ex.drain();
  for (int g = 0; g < kGroups; ++g) {
    ASSERT_EQ(order[g].size(), 100u);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(order[g][i], i);
  }
}

TEST(ShardedExecutor, TasksPostedByTasksCompleteBeforeDrainReturns) {
  ShardedExecutor ex(2);
  std::atomic<int> count{0};
  for (GroupKey g = 0; g < 4; ++g) {
    ex.post(g, [&ex, &count, g] {
      count.fetch_add(1);
      ex.post(g + 100, [&count] { count.fetch_add(1); });
    });
  }
  ex.drain();
  EXPECT_EQ(count.load(), 8);
}

TEST(ShardedExecutor, GroupsSpreadAcrossShards) {
  // Sequential group ids must not all hash onto one shard, or sharding
  // buys nothing for the common case.
  ShardedExecutor ex(4);
  std::set<unsigned> used;
  for (GroupKey g = 1; g <= 64; ++g) used.insert(ex.shard_of(g));
  EXPECT_EQ(used.size(), 4u);
}

TEST(ShardedExecutor, ShardAssignmentIsStable) {
  ShardedExecutor ex(4);
  for (GroupKey g = 0; g < 32; ++g) {
    EXPECT_EQ(ex.shard_of(g), ex.shard_of(g));
  }
}

TEST(ShardedExecutor, ThrowingTaskIsCountedAndWorkerSurvives) {
  ShardedExecutor ex(2);
  std::atomic<int> ran{0};
  ex.post(1, [] { throw std::runtime_error("boom"); });
  ex.drain();
  EXPECT_EQ(ex.task_exceptions(), 1u);
  ex.post(1, [&] { ++ran; });  // same shard keeps working
  ex.drain();
  EXPECT_EQ(ran.load(), 1);
}

TEST(ShardedExecutor, BatchRunsInOrderWithPerTaskIsolation) {
  ShardedExecutor ex(2);
  std::vector<int> order;  // one group: serialized on its shard
  std::vector<Task> batch;
  batch.push_back([&] { order.push_back(0); });
  batch.push_back([] { throw std::runtime_error("boom"); });
  batch.push_back([&] { order.push_back(2); });
  ex.post_batch(3, std::move(batch));
  ex.drain();
  EXPECT_EQ(order, (std::vector<int>{0, 2}));
  EXPECT_EQ(ex.task_exceptions(), 1u);
}

TEST(ShardedExecutor, DestructorFinishesQueuedWork) {
  std::atomic<int> count{0};
  {
    ShardedExecutor ex(2);
    for (int i = 0; i < 100; ++i) {
      ex.post(static_cast<GroupKey>(i), [&] { count.fetch_add(1); });
    }
    // no drain: the destructor must complete, not drop, the queue
  }
  EXPECT_EQ(count.load(), 100);
}

}  // namespace
}  // namespace horus::runtime
