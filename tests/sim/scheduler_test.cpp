#include "horus/sim/scheduler.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

namespace horus::sim {
namespace {

TEST(Scheduler, RunsInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.schedule(30, [&] { order.push_back(3); });
  s.schedule(10, [&] { order.push_back(1); });
  s.schedule(20, [&] { order.push_back(2); });
  EXPECT_EQ(s.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 30u);
}

TEST(Scheduler, FifoAmongEqualTimes) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.schedule(5, [&order, i] { order.push_back(i); });
  }
  s.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Scheduler, NestedScheduling) {
  Scheduler s;
  std::vector<std::pair<Time, int>> log;
  s.schedule(10, [&] {
    log.push_back({s.now(), 1});
    s.schedule(5, [&] { log.push_back({s.now(), 2}); });
    s.schedule(0, [&] { log.push_back({s.now(), 3}); });
  });
  s.run();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0], (std::pair<Time, int>{10, 1}));
  EXPECT_EQ(log[1], (std::pair<Time, int>{10, 3}));  // same-time, after parent
  EXPECT_EQ(log[2], (std::pair<Time, int>{15, 2}));
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler s;
  int ran = 0;
  TimerId id = s.schedule(10, [&] { ++ran; });
  s.schedule(20, [&] { ++ran; });
  s.cancel(id);
  EXPECT_EQ(s.run(), 1u);
  EXPECT_EQ(ran, 1);
}

TEST(Scheduler, CancelAfterFireIsSafe) {
  Scheduler s;
  TimerId id = s.schedule(1, [] {});
  s.run();
  s.cancel(id);  // no effect, no crash
  s.schedule(1, [] {});
  EXPECT_EQ(s.run(), 1u);
}

TEST(Scheduler, RunUntilAdvancesClockToDeadline) {
  Scheduler s;
  int ran = 0;
  s.schedule(100, [&] { ++ran; });
  s.schedule(200, [&] { ++ran; });
  EXPECT_EQ(s.run_until(150), 1u);
  EXPECT_EQ(s.now(), 150u);
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(s.run_until(300), 1u);
  EXPECT_EQ(s.now(), 300u);
}

TEST(Scheduler, RunForIsRelative) {
  Scheduler s;
  s.schedule(10, [] {});
  s.run();  // now = 10
  int ran = 0;
  s.schedule(5, [&] { ++ran; });
  s.schedule(50, [&] { ++ran; });
  s.run_for(20);  // until t=30
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(s.now(), 30u);
}

TEST(Scheduler, StepRunsOne) {
  Scheduler s;
  int ran = 0;
  s.schedule(1, [&] { ++ran; });
  s.schedule(2, [&] { ++ran; });
  EXPECT_TRUE(s.step());
  EXPECT_EQ(ran, 1);
  EXPECT_TRUE(s.step());
  EXPECT_FALSE(s.step());
}

TEST(Scheduler, PendingCountsCancellations) {
  Scheduler s;
  TimerId a = s.schedule(1, [] {});
  s.schedule(2, [] {});
  EXPECT_EQ(s.pending(), 2u);
  s.cancel(a);
  EXPECT_EQ(s.pending(), 1u);
  EXPECT_FALSE(s.empty());
  s.run();
  EXPECT_TRUE(s.empty());
}

TEST(Scheduler, CancellingAFiredIdLeavesTheCountsExact) {
  Scheduler s;
  TimerId fired = s.schedule(1, [] {});
  s.run();
  s.cancel(fired);  // a stale id: no effect on what comes next
  s.schedule(1, [] {});
  EXPECT_EQ(s.pending(), 1u);
  EXPECT_FALSE(s.empty());
  EXPECT_EQ(s.next_due(), std::optional<Time>(s.now() + 1));
  EXPECT_EQ(s.run(), 1u);
  EXPECT_TRUE(s.empty());
}

TEST(Scheduler, AStaleIdNeverCancelsTheEventThatReusedItsSlot) {
  Scheduler s;
  TimerId first = s.schedule(1, [] {});
  s.cancel(first);
  int ran = 0;
  TimerId second = s.schedule(1, [&] { ++ran; });
  EXPECT_NE(first, second);
  s.cancel(first);
  EXPECT_EQ(s.pending(), 1u);
  s.run();
  EXPECT_EQ(ran, 1);
}

TEST(Scheduler, CancelInTheMiddleKeepsTheRestInOrder) {
  Scheduler s;
  std::vector<int> order;
  std::vector<TimerId> ids;
  for (int i = 0; i < 50; ++i) {
    ids.push_back(s.schedule(static_cast<Duration>((i * 37) % 11),
                             [&order, i] { order.push_back(i); }));
  }
  for (int i = 0; i < 50; i += 3) s.cancel(ids[static_cast<std::size_t>(i)]);
  EXPECT_EQ(s.pending(), 50u - 17u);
  s.run();
  std::vector<int> want;
  for (Duration d = 0; d < 11; ++d) {
    for (int i = 0; i < 50; ++i) {
      if (i % 3 != 0 && static_cast<Duration>((i * 37) % 11) == d) {
        want.push_back(i);
      }
    }
  }
  EXPECT_EQ(order, want);
}

TEST(Scheduler, ArmFireCancelCyclesLeaveNothingBehind) {
  // A protocol timer that is re-armed each round and cancelled after it
  // fired (NAK's and TOTAL's pattern). A million rounds must leave the
  // counts exact; a cancel that remembered stale ids would underflow them.
  Scheduler s;
  int fired = 0;
  for (int i = 0; i < 1'000'000; ++i) {
    TimerId id = s.schedule(1, [&fired] { ++fired; });
    s.run();
    s.cancel(id);
  }
  EXPECT_EQ(fired, 1'000'000);
  EXPECT_EQ(s.pending(), 0u);
  EXPECT_TRUE(s.empty());
  EXPECT_FALSE(s.next_due().has_value());
}

TEST(Scheduler, ManyEventsStaySorted) {
  Scheduler s;
  Time last = 0;
  bool monotone = true;
  for (int i = 0; i < 1000; ++i) {
    Duration d = static_cast<Duration>((i * 7919) % 1000);
    s.schedule(d, [&, d] {
      if (s.now() < last) monotone = false;
      last = s.now();
    });
  }
  s.run();
  EXPECT_TRUE(monotone);
}

}  // namespace
}  // namespace horus::sim
