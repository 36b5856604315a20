// NAK layer: FIFO under loss/reordering/duplication, retransmission via
// negative acknowledgements, window flow control, LOST_MESSAGE
// placeholders, failure suspicion, and epoch handling across views.
#include "../common/test_util.hpp"

namespace horus::testing {
namespace {

struct NakWorld : World {
  explicit NakWorld(std::size_t n, HorusSystem::Options o = {})
      : World(n, "NAK:COM", o) {
    std::vector<Address> members;
    members.reserve(n);
    for (auto* ep : eps) members.push_back(ep->address());
    for (auto* ep : eps) {
      ep->join(kGroup);
      ep->install_view(kGroup, members);
    }
    sys.run_for(10 * sim::kMillisecond);
  }
};

TEST(Nak, FifoUnderHeavyLoss) {
  HorusSystem::Options o;
  o.net.loss = 0.35;
  o.seed = 2024;
  NakWorld w(2, o);
  for (int i = 0; i < 100; ++i) {
    w.eps[0]->cast(kGroup, Message::from_string(std::to_string(i)));
  }
  w.sys.run_for(10 * sim::kSecond);
  auto got = w.logs[1].casts_from(w.eps[0]->address());
  ASSERT_EQ(got.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(got[static_cast<std::size_t>(i)], std::to_string(i));
}

TEST(Nak, NoDuplicatesUnderNetworkDuplication) {
  HorusSystem::Options o;
  o.net.duplicate = 0.5;
  NakWorld w(2, o);
  for (int i = 0; i < 50; ++i) {
    w.eps[0]->cast(kGroup, Message::from_string(std::to_string(i)));
  }
  w.sys.run_for(3 * sim::kSecond);
  EXPECT_EQ(w.logs[1].casts_from(w.eps[0]->address()).size(), 50u);
}

TEST(Nak, FifoUnderReordering) {
  HorusSystem::Options o;
  o.net.delay_min = 10;
  o.net.delay_max = 2000;  // wide jitter: heavy reordering
  NakWorld w(2, o);
  for (int i = 0; i < 60; ++i) {
    w.eps[0]->cast(kGroup, Message::from_string(std::to_string(i)));
  }
  w.sys.run_for(5 * sim::kSecond);
  auto got = w.logs[1].casts_from(w.eps[0]->address());
  ASSERT_EQ(got.size(), 60u);
  for (int i = 0; i < 60; ++i) EXPECT_EQ(got[static_cast<std::size_t>(i)], std::to_string(i));
}

TEST(Nak, MulticastFifoAcrossManyReceivers) {
  HorusSystem::Options o;
  o.net.loss = 0.15;
  NakWorld w(5, o);
  for (int i = 0; i < 40; ++i) {
    w.eps[0]->cast(kGroup, Message::from_string(std::to_string(i)));
  }
  w.sys.run_for(8 * sim::kSecond);
  for (std::size_t m = 1; m < 5; ++m) {
    auto got = w.logs[m].casts_from(w.eps[0]->address());
    ASSERT_EQ(got.size(), 40u) << "member " << m;
    for (int i = 0; i < 40; ++i) {
      EXPECT_EQ(got[static_cast<std::size_t>(i)], std::to_string(i));
    }
  }
}

TEST(Nak, SubsetSendsReliableFifo) {
  HorusSystem::Options o;
  o.net.loss = 0.25;
  NakWorld w(3, o);
  for (int i = 0; i < 30; ++i) {
    w.eps[0]->send(kGroup, {w.eps[2]->address()},
                   Message::from_string("s" + std::to_string(i)));
  }
  w.sys.run_for(8 * sim::kSecond);
  ASSERT_EQ(w.logs[2].sends.size(), 30u);
  for (int i = 0; i < 30; ++i) {
    EXPECT_EQ(w.logs[2].sends[static_cast<std::size_t>(i)].payload,
              "s" + std::to_string(i));
  }
  EXPECT_TRUE(w.logs[1].sends.empty());
}

TEST(Nak, FlowControlBoundsOutstanding) {
  // With a tiny window and a receiver that exists but acks slowly (high
  // status interval), a burst must be trickled out, never exceeding the
  // window of unacked casts in flight.
  HorusSystem::Options o;
  o.net.loss = 0.0;
  o.stack.nak_window = 8;
  NakWorld w(2, o);
  for (int i = 0; i < 100; ++i) {
    w.eps[0]->cast(kGroup, Message::from_string(std::to_string(i)));
  }
  // Immediately after the burst, at most window casts have been sent (each
  // cast = 2 datagrams for the 2-member view, plus a handful of controls).
  const StackStats& s = w.eps[0]->stack().stats();
  EXPECT_LE(s.datagrams_sent, (8 + 2) * 2 + 10);
  w.sys.run_for(10 * sim::kSecond);
  EXPECT_EQ(w.logs[1].casts_from(w.eps[0]->address()).size(), 100u)
      << "the queue must drain as acks arrive";
}

TEST(Nak, LostMessagePlaceholderOnBufferOverflow) {
  // Force the retransmit buffer to evict entries, then have the receiver
  // NAK one of them: it must get a placeholder -> LOST_MESSAGE, and the
  // stream must keep going (no stall).
  HorusSystem::Options o;
  o.net.loss = 0.0;
  o.stack.nak_max_retain = 4;       // tiny retransmit buffer
  o.stack.nak_window = 1024;        // don't let flow control save us
  HorusSystem sys(o);
  auto& a = sys.create_endpoint("NAK:COM");
  auto& b = sys.create_endpoint("NAK:COM");
  AppLog la, lb;
  la.attach(a);
  lb.attach(b);
  std::vector<Address> members = {a.address(), b.address()};
  a.join(kGroup);
  a.install_view(kGroup, members);
  // b joins late and with the first casts force-dropped: the link starts
  // dead, then heals -- by then a's buffer has evicted the early casts.
  b.join(kGroup);
  b.install_view(kGroup, members);
  sim::LinkParams dead;
  dead.loss = 1.0;
  sys.net().set_link_params(a.address().id, b.address().id, dead);
  for (int i = 0; i < 20; ++i) {
    a.cast(kGroup, Message::from_string(std::to_string(i)));
  }
  sys.run_for(100 * sim::kMillisecond);
  sys.net().clear_link_params(a.address().id, b.address().id);
  sys.run_for(5 * sim::kSecond);
  EXPECT_GT(lb.lost.size(), 0u) << "expected LOST_MESSAGE placeholders";
  EXPECT_GT(lb.casts.size(), 0u) << "tail casts must still arrive";
  EXPECT_EQ(lb.lost.size() + lb.casts.size(), 20u)
      << "every sequence number accounted for: delivered or reported lost";
}

TEST(Nak, ProblemUpcallOnSilence) {
  HorusSystem::Options o;
  o.net.loss = 0.0;
  NakWorld w(2, o);
  w.sys.run_for(100 * sim::kMillisecond);
  w.sys.crash(*w.eps[1]);
  w.sys.run_for(2 * sim::kSecond);
  ASSERT_FALSE(w.logs[0].problems.empty())
      << "silent member must be reported via PROBLEM";
  EXPECT_EQ(w.logs[0].problems[0], w.eps[1]->address());
}

TEST(Nak, NoProblemWhileChatting) {
  HorusSystem::Options o;
  o.net.loss = 0.05;
  NakWorld w(3, o);
  for (int r = 0; r < 20; ++r) {
    w.eps[0]->cast(kGroup, Message::from_string("tick"));
    w.sys.run_for(100 * sim::kMillisecond);
  }
  EXPECT_TRUE(w.logs[0].problems.empty());
  EXPECT_TRUE(w.logs[1].problems.empty());
}

TEST(Nak, EpochResetOnViewChange) {
  // After a view change the cast stream restarts at 1 in the new epoch;
  // a member that joins in the new view receives only new-view casts.
  HorusSystem::Options o;
  o.net.loss = 0.0;
  NakWorld w(2, o);
  w.eps[0]->cast(kGroup, Message::from_string("old-epoch"));
  w.sys.run_for(100 * sim::kMillisecond);
  // Install a new view (epoch bump) on both members.
  std::vector<Address> members = {w.eps[0]->address(), w.eps[1]->address()};
  w.eps[0]->install_view(kGroup, members);
  w.eps[1]->install_view(kGroup, members);
  w.sys.run_for(100 * sim::kMillisecond);
  w.eps[0]->cast(kGroup, Message::from_string("new-epoch"));
  w.sys.run_for(sim::kSecond);
  auto got = w.logs[1].casts_from(w.eps[0]->address());
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[1], "new-epoch");
}

TEST(Nak, ManySendersInterleaved) {
  HorusSystem::Options o;
  o.net.loss = 0.1;
  NakWorld w(4, o);
  for (int i = 0; i < 25; ++i) {
    for (std::size_t m = 0; m < 4; ++m) {
      w.eps[m]->cast(kGroup, Message::from_string(
                                 "m" + std::to_string(m) + "-" + std::to_string(i)));
    }
  }
  w.sys.run_for(10 * sim::kSecond);
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t m = 0; m < 4; ++m) {
      auto got = w.logs[r].casts_from(w.eps[m]->address());
      ASSERT_EQ(got.size(), 25u) << "receiver " << r << " sender " << m;
      for (int i = 0; i < 25; ++i) {
        EXPECT_EQ(got[static_cast<std::size_t>(i)],
                  "m" + std::to_string(m) + "-" + std::to_string(i));
      }
    }
  }
}

// Two groups on one endpoint pair, casts interleaved across them: NAK
// delivers each group's stream in FIFO order, whatever the interleaving.
TEST(Nak, TwoGroupsOnOneEndpointPairKeepPerGroupFifo) {
  constexpr GroupId kG1{101};
  constexpr GroupId kG2{102};
  HorusSystem::Options opts;
  opts.net.loss = 0.0;
  HorusSystem sys(opts);
  auto& a = sys.create_endpoint("NAK:COM");
  auto& b = sys.create_endpoint("NAK:COM");

  std::vector<std::string> g1_log;
  std::vector<std::string> g2_log;
  b.on_upcall([&](Group& g, UpEvent& ev) {
    if (ev.type != UpType::kCast) return;
    (g.gid() == kG1 ? g1_log : g2_log).push_back(ev.msg.payload_string());
  });

  std::vector<Address> members{a.address(), b.address()};
  for (GroupId gid : {kG1, kG2}) {
    a.join(gid);
    b.join(gid);
  }
  sys.run_for(5 * sim::kMillisecond);
  for (GroupId gid : {kG1, kG2}) {
    a.install_view(gid, members);
    b.install_view(gid, members);
  }
  sys.run_for(20 * sim::kMillisecond);

  // Interleave casts to both groups.
  constexpr int kMessages = 120;
  for (int i = 0; i < kMessages; ++i) {
    a.cast(kG1, Message::from_string("g1-" + std::to_string(i)));
    a.cast(kG2, Message::from_string("g2-" + std::to_string(i)));
    if (i % 10 == 9) sys.run_for(5 * sim::kMillisecond);
  }
  sys.run_for(2 * sim::kSecond);

  ASSERT_EQ(g1_log.size(), static_cast<std::size_t>(kMessages));
  ASSERT_EQ(g2_log.size(), static_cast<std::size_t>(kMessages));
  for (int i = 0; i < kMessages; ++i) {
    EXPECT_EQ(g1_log[i], "g1-" + std::to_string(i));
    EXPECT_EQ(g2_log[i], "g2-" + std::to_string(i));
  }
}

}  // namespace
}  // namespace horus::testing
