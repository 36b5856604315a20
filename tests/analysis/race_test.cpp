// horus-race: the group-ownership checker must catch each class of
// misbehavior it was built for -- and stay silent on a correct world.
//
// Four deliberately-misbehaving components, each engineered to trip
// exactly one probe class (docs/analysis.md "horus-race"):
//
//   1. cross-group state write: an upcall handler running as group A
//      reaches into group B's view;
//   2. wrong-group timer: a task running as group A arms a stack timer
//      bound to group B;
//   3. retained stack pointer: layer state of the pre-switch epoch is
//      read through a stale Stack* after a live reconfiguration installed
//      the new epoch (outside the sanctioned shadow-drain paths);
//   4. unsynchronized counter: two threads, each draining its own
//      executor, bump one plain (non-atomic) counter with no
//      happens-before edge.
//
// Plus the other half of the contract: a multi-group world with live
// reconfigurations mid-traffic must produce ZERO violations -- every legal
// cross-group handoff (message transfer, shadow drain, state transfer) is
// recognized, not flagged. The multi-threaded case (a node loop fed by
// casts from the application thread) is in tests/net/node_loop_test.cpp.
//
// The whole suite skips itself in builds without -DHORUS_CHECK_RACES
// (probes compile to nothing there; Debug defaults the flag on).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "../common/test_util.hpp"
#include "horus/analysis/race.hpp"
#include "horus/runtime/executor.hpp"

namespace horus::testing {
namespace {

constexpr GroupId kA{201};
constexpr GroupId kB{202};

/// Counter bookkeeping shared by the seeded-violation tests: assert that
/// ONLY the expected class fired (a seeded bug tripping a neighboring
/// probe means the probes are mislabeled, not that the bug was caught).
void expect_only(const race::CounterSnapshot& c, std::uint64_t cross,
                 std::uint64_t timer, std::uint64_t stale,
                 std::uint64_t unsynced) {
  EXPECT_EQ(c.cross_group, cross);
  EXPECT_EQ(c.wrong_group_timer, timer);
  EXPECT_EQ(c.stale_epoch, stale);
  EXPECT_EQ(c.unsynced_write, unsynced);
}

class RaceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!race::enabled()) {
      GTEST_SKIP() << "built without HORUS_CHECK_RACES";
    }
    race::reset();
  }
  void TearDown() override {
    if (race::enabled()) race::reset();
  }
};

/// Two membership-less groups on one endpoint pair; returns after views
/// are installed and a warmup cast has flowed.
struct TwoGroupWorld {
  TwoGroupWorld() : sys(make_opts()) {
    a = &sys.create_endpoint("NAK:COM");
    b = &sys.create_endpoint("NAK:COM");
    std::vector<Address> members{a->address(), b->address()};
    for (GroupId gid : {kA, kB}) {
      a->join(gid);
      b->join(gid);
    }
    sys.run_for(5 * sim::kMillisecond);
    for (GroupId gid : {kA, kB}) {
      a->install_view(gid, members);
      b->install_view(gid, members);
    }
    sys.run_for(20 * sim::kMillisecond);
  }

  static HorusSystem::Options make_opts() {
    HorusSystem::Options o;
    o.net.loss = 0.0;
    return o;
  }

  HorusSystem sys;
  Endpoint* a = nullptr;
  Endpoint* b = nullptr;
};

// -- 1. cross-group state write ---------------------------------------------

TEST_F(RaceTest, CatchesCrossGroupStateAccess) {
  TwoGroupWorld w;
  // The misbehaving component: while handling group A's upcall (so the
  // executing task is framed as group A), reach into group B's view --
  // exactly the "it is all in one process, why not just look" bug the
  // ownership discipline exists to forbid.
  bool poked = false;
  w.b->on_upcall([&](Group& g, UpEvent& ev) {
    if (ev.type != UpType::kCast || g.gid() != kA || poked) return;
    poked = true;
    (void)w.b->group(kB).view();  // group B's state, group A's task
  });
  w.a->cast(kA, Message::from_string("trigger"));
  w.sys.run_for(sim::kSecond);

  ASSERT_TRUE(poked);
  race::CounterSnapshot c = race::counters();
  expect_only(c, 1, 0, 0, 0);
  // The report must name both sides of the violation.
  std::vector<race::Report> reps = race::reports();
  ASSERT_EQ(reps.size(), 1u);
  EXPECT_EQ(reps[0].kind, race::Kind::kCrossGroup);
  EXPECT_EQ(reps[0].owner_gid, kB.id);     // whose state was touched
  EXPECT_EQ(reps[0].accessor_gid, kA.id);  // who was executing
  EXPECT_NE(reps[0].to_string().find("Group::view"), std::string::npos);
}

// -- 2. timer armed for the wrong group -------------------------------------

TEST_F(RaceTest, CatchesWrongGroupTimer) {
  TwoGroupWorld w;
  // The misbehaving component: a task running as group A arms a stack
  // timer bound to group B. The violation is flagged at ARMING time (the
  // bug is where the timer was posted from, not where it fires), so the
  // callback deliberately touches nothing.
  bool armed = false;
  w.b->on_upcall([&](Group& g, UpEvent& ev) {
    if (ev.type != UpType::kCast || g.gid() != kA || armed) return;
    armed = true;
    g.stack().schedule(kB, sim::kMillisecond, [](Group&) {});
  });
  w.a->cast(kA, Message::from_string("trigger"));
  w.sys.run_for(sim::kSecond);

  ASSERT_TRUE(armed);
  race::CounterSnapshot c = race::counters();
  expect_only(c, 0, 1, 0, 0);
  std::vector<race::Report> reps = race::reports();
  ASSERT_EQ(reps.size(), 1u);
  EXPECT_EQ(reps[0].kind, race::Kind::kWrongGroupTimer);
  EXPECT_EQ(reps[0].owner_gid, kB.id);
  EXPECT_EQ(reps[0].accessor_gid, kA.id);
}

// -- 3. retained stack pointer across a reconfiguration ---------------------

TEST_F(RaceTest, CatchesStaleEpochStateAccess) {
  HorusSystem sys;
  auto& a = sys.create_endpoint("TOTAL:MBRSHIP:FRAG:NAK:COM");
  GroupId gid{7};
  a.join(gid);
  sys.run_for(2 * sim::kSecond);

  // The misbehaving component: hold on to the pre-switch stack pointer...
  Stack* old_stack = &a.group(gid).stack();
  a.reconfigure(gid, "TOTAL:MBRSHIP:FRAG:MCAST:NNAK:COM");
  for (int i = 0; i < 50 && a.group(gid).epoch_number() == 0; ++i) {
    sys.run_for(10 * sim::kMillisecond);
  }
  ASSERT_EQ(a.group(gid).epoch_number(), 1u);
  ASSERT_NE(&a.group(gid).stack(), old_stack);
  race::reset();  // only judge the access below, not the warmup/switch

  // ...and read the old epoch's layer state through it after the new
  // epoch is installed. The old epoch still exists (it is draining
  // stragglers), but only the endpoint's shadow-drain paths may touch it.
  (void)a.group(gid).state_at(*old_stack, 0);

  race::CounterSnapshot c = race::counters();
  expect_only(c, 0, 0, 1, 0);
  std::vector<race::Report> reps = race::reports();
  ASSERT_EQ(reps.size(), 1u);
  EXPECT_EQ(reps[0].kind, race::Kind::kStaleEpoch);
  EXPECT_EQ(reps[0].owner_gid, gid.id);
}

// -- 4. plain counter shared across threads ---------------------------------

TEST_F(RaceTest, CatchesUnsynchronizedCounterWrite) {
  // Two executors, each drained by its own plain thread: tasks of group 1
  // and group 2 run with no ordering between them.
  runtime::GroupExecutor ex_a;
  runtime::GroupExecutor ex_b;
  constexpr runtime::GroupKey kGa = 1;
  constexpr runtime::GroupKey kGb = 2;

  // The misbehaving component: a plain int bumped from both groups. The
  // probe is what a stats counter would wear if someone "simplified" a
  // relaxed atomic into a plain ++ (the audit of msg_path_stats/NetStats
  // found none -- this seeds one).
  int plain_counter = 0;
  auto bump = [&plain_counter] {
    HORUS_RACE_PROBE_PLAIN_WRITE(&plain_counter, "seeded plain counter");
    ++plain_counter;
  };
  std::thread ta([&] { ex_a.post(kGa, bump); });
  std::thread tb([&] { ex_b.post(kGb, bump); });
  ta.join();
  tb.join();

  race::CounterSnapshot c = race::counters();
  // Whichever task runs second observes the first's unordered write; if
  // the interleaving is tight both directions may flag.
  EXPECT_GE(c.unsynced_write, 1u);
  EXPECT_LE(c.unsynced_write, 2u);
  EXPECT_EQ(c.cross_group, 0u);
  EXPECT_EQ(c.wrong_group_timer, 0u);
  EXPECT_EQ(c.stale_epoch, 0u);
  ASSERT_FALSE(race::reports().empty());
  EXPECT_EQ(race::reports()[0].kind, race::Kind::kUnsyncedWrite);

  // Control: the same shape with a real happens-before edge is legal.
  race::reset();
  std::thread([&] { ex_a.post(kGa, bump); }).join();
  race::acquire_all();  // the join, made visible to the detector
  ex_b.post(kGb, bump);  // posted, and run, after that edge
  EXPECT_EQ(race::counters().unsynced_write, 0u);
}

// -- zero violations on a correct world -------------------------------------

/// Multi-group cast traffic plus live reconfigurations: everything
/// horus-race must NOT flag -- coordinated switches, shadow drains, state
/// transfer, driver-thread polling.
TEST_F(RaceTest, CorrectWorldWithReconfigIsSilent) {
  constexpr std::size_t kGroups = 4;
  HorusSystem sys;
  auto& a = sys.create_endpoint("TOTAL:MBRSHIP:FRAG:NAK:COM");
  auto& b = sys.create_endpoint("TOTAL:MBRSHIP:FRAG:NAK:COM");

  std::vector<std::vector<std::string>> logs(kGroups);
  b.on_upcall([&logs](Group& g, UpEvent& ev) {
    if (ev.type != UpType::kCast) return;
    logs[g.gid().id - 1].push_back(ev.msg.payload_string());
  });

  for (std::size_t i = 0; i < kGroups; ++i) {
    GroupId gid{static_cast<std::uint64_t>(i + 1)};
    a.join(gid);
    sys.run_for(50 * sim::kMillisecond);
    b.join(gid, a.address());
    sys.run_for(50 * sim::kMillisecond);
  }
  sys.run_for(2 * sim::kSecond);

  for (int round = 0; round < 3; ++round) {
    for (std::size_t i = 0; i < kGroups; ++i) {
      GroupId gid{static_cast<std::uint64_t>(i + 1)};
      a.cast(gid, Message::from_string("r" + std::to_string(round) + "-g" +
                                       std::to_string(i)));
    }
    sys.run_for(200 * sim::kMillisecond);
  }

  // Switch half the groups mid-traffic; casts land during the flush.
  for (std::size_t i = 0; i < kGroups; i += 2) {
    GroupId gid{static_cast<std::uint64_t>(i + 1)};
    a.reconfigure(gid, "TOTAL:MBRSHIP:FRAG:MCAST:NNAK:COM");
    b.cast(gid, Message::from_string("mid-" + std::to_string(i)));
  }
  sys.run_for(4 * sim::kSecond);

  for (std::size_t i = 0; i < kGroups; ++i) {
    GroupId gid{static_cast<std::uint64_t>(i + 1)};
    a.cast(gid, Message::from_string("post-" + std::to_string(i)));
  }
  sys.run_for(2 * sim::kSecond);

  for (std::size_t i = 0; i < kGroups; ++i) {
    EXPECT_FALSE(logs[i].empty()) << "group " << i << " delivered nothing";
  }
  EXPECT_EQ(race::total_violations(), 0u) << race::summary();
}

/// Two groups interleaving casts: the probes must be silent when every
/// task runs inline on the driver thread (nested group frames, not thread
/// identity, carry the ownership).
TEST_F(RaceTest, CorrectDeterministicWorldIsSilent) {
  TwoGroupWorld w;
  for (int i = 0; i < 20; ++i) {
    w.a->cast(i % 2 ? kA : kB, Message::from_string("m" + std::to_string(i)));
  }
  w.sys.run_for(sim::kSecond);
  EXPECT_EQ(race::total_violations(), 0u) << race::summary();
}

}  // namespace
}  // namespace horus::testing
