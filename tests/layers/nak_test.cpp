// NAK layer: FIFO under loss/reordering/duplication, retransmission via
// negative acknowledgements, window flow control, LOST_MESSAGE
// placeholders, failure suspicion, and epoch handling across views.
#include <algorithm>
#include <set>

#include "../common/test_util.hpp"
#include "horus/obs/metrics.hpp"

namespace horus::testing {
namespace {

std::uint64_t registry_count(const std::string& name) {
  return obs::metrics().counter(name).value();
}

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
  const std::uint64_t placeholders0 = registry_count("nak.placeholders_sent");
  sys.run_for(5 * sim::kSecond);
  EXPECT_GT(lb.lost.size(), 0u) << "expected LOST_MESSAGE placeholders";
  EXPECT_EQ(registry_count("nak.placeholders_sent") - placeholders0,
            lb.lost.size());
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

// Drops the data datagrams from `src` to `dst` at the chosen ordinals
// (counting only datagrams of at least `min_size` bytes on that link);
// every other fate comes from the default seeded policy.
struct DropChosen final : sim::FaultPolicy {
  DropChosen(std::uint64_t seed, sim::NodeId src, sim::NodeId dst,
             std::size_t min_size, std::vector<std::uint64_t> ordinals)
      : rng(seed), src(src), dst(dst), min_size(min_size),
        ordinals(std::move(ordinals)) {}
  sim::FaultDecision decide(std::uint64_t index, sim::NodeId s, sim::NodeId d,
                            std::size_t size, const sim::LinkParams& p) override {
    sim::FaultDecision f = rng.decide(index, s, d, size, p);
    if (s == src && d == dst && size >= min_size) {
      if (std::find(ordinals.begin(), ordinals.end(), seen++) != ordinals.end()) {
        f.drop = true;
        ++dropped;
      }
    }
    return f;
  }
  sim::RngFaultPolicy rng;
  sim::NodeId src, dst;
  std::size_t min_size;
  std::vector<std::uint64_t> ordinals;
  std::uint64_t seen = 0;
  int dropped = 0;
};

// One numeric field ("retrans=", "asked=", ...) of an endpoint's NAK dump.
std::uint64_t nak_field(Endpoint& ep, const std::string& field) {
  std::string d = ep.dump(kGroup, "NAK");
  auto at = d.find(" " + field);
  EXPECT_NE(at, std::string::npos) << d;
  return std::stoull(d.substr(at + 1 + field.size()));
}

std::uint64_t retrans_of(Endpoint& ep) { return nak_field(ep, "retrans="); }

// The receiver NAKs a lost cast as soon as the reorder allowance after it
// sees the gap runs out, not on some later periodic scan.
TEST(Nak, GapRepairedWithinATenthOfResendTimeout) {
  constexpr sim::Duration kDelay = 200;     // fixed: no reordering
  constexpr sim::Duration kInterval = 200;  // one cast every 200 us
  constexpr int kCasts = 200;
  HorusSystem::Options o;
  o.net.delay_min = kDelay;
  o.net.delay_max = kDelay;
  NakWorld w(2, o);
  // Three drops, 37 datagrams apart, so they sit at different phases of any
  // clock the repair might wait on.
  auto policy = std::make_shared<DropChosen>(
      o.seed, w.eps[0]->address().id, w.eps[1]->address().id, 300,
      std::vector<std::uint64_t>{50, 87, 124});
  w.sys.net().set_fault_policy(policy);
  const std::uint64_t requests0 = registry_count("nak.requests_sent");
  const std::uint64_t retrans0 = registry_count("nak.retransmissions");
  std::vector<sim::Time> sent(kCasts), got(kCasts);
  w.eps[1]->on_upcall([&](Group&, UpEvent& ev) {
    if (ev.type == UpType::kCast) {
      got[std::stoul(ev.msg.payload_string())] = w.sys.now();
    }
  });
  for (int i = 0; i < kCasts; ++i) {
    sent[static_cast<std::size_t>(i)] = w.sys.now();
    w.eps[0]->cast(kGroup, Message::from_string(std::to_string(i) + ":" +
                                                std::string(400, 'x')));
    w.sys.run_for(kInterval);
  }
  w.sys.run_for(sim::kSecond);
  ASSERT_EQ(policy->dropped, 3);
  // A lost cast is NAKed once the next one shows the gap (its send plus
  // one link delay) and the allowance runs out; the NAK and the
  // retransmission each cross the link once more.
  const sim::Duration bound = kInterval + kDelay +
                              o.stack.nak_resend_timeout / 10 + 2 * kDelay +
                              100 /* slack */;
  sim::Duration worst = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_GT(got[i], 0u) << "cast " << i << " never delivered";
    worst = std::max(worst, got[i] - sent[i]);
  }
  EXPECT_LE(worst, bound);
  // Each drop costs exactly one request and one retransmission.
  EXPECT_EQ(registry_count("nak.requests_sent") - requests0, 3u);
  EXPECT_EQ(registry_count("nak.retransmissions") - retrans0, 3u);
}

// A reordered datagram arrives within the reorder allowance, so reordering
// alone never triggers a NAK.
TEST(Nak, ReorderingAloneSendsNoNak) {
  HorusSystem::Options o;
  o.net.delay_min = 100;
  o.net.delay_max = 300;
  NakWorld w(3, o);
  constexpr int kCasts = 2000;
  for (int i = 0; i < kCasts; ++i) {
    w.eps[static_cast<std::size_t>(i % 3)]->cast(
        kGroup, Message::from_string(std::to_string(i)));
    w.sys.run_for(50);
  }
  w.sys.run_for(sim::kSecond);
  for (std::size_t m = 0; m < 3; ++m) {
    EXPECT_EQ(w.logs[m].casts.size(), static_cast<std::size_t>(kCasts)) << m;
    EXPECT_EQ(retrans_of(*w.eps[m]), 0u) << "member " << m;
  }
}

// Once traffic drains, a group's only events are its status gossip: each
// member's status timer and the status datagrams it sends. No repair
// timer runs without a gap.
TEST(Nak, IdleGroupRunsNoRepairTimer) {
  HorusSystem::Options o;
  o.net.loss = 0.0;
  constexpr std::size_t kMembers = 3;
  NakWorld w(kMembers, o);
  for (int i = 0; i < 30; ++i) {
    w.eps[static_cast<std::size_t>(i) % kMembers]->cast(
        kGroup, Message::from_string(std::to_string(i)));
  }
  w.sys.run_for(sim::kSecond);
  for (std::size_t m = 0; m < kMembers; ++m) ASSERT_EQ(w.logs[m].casts.size(), 30u);
  const std::uint64_t delivered0 = w.sys.net().stats().delivered.load();
  const std::size_t events = w.sys.run_for(sim::kSecond);
  const std::uint64_t datagrams = w.sys.net().stats().delivered.load() - delivered0;
  const std::size_t status_fires =
      kMembers * (sim::kSecond / o.stack.nak_status_interval);
  EXPECT_EQ(datagrams, status_fires * (kMembers - 1)) << "status gossip only";
  EXPECT_EQ(events, status_fires + datagrams);
}

// A casting member runs no repair timer either on a lossless network: its
// own casts come back without touching the wire, so its own stream never
// shows a gap. The events are the status and MBRSHIP stability gossip
// timers and the datagrams they and the casts send; anything else is a
// repair-timer fire.
TEST(Nak, LosslessSenderRunsNoRepairTimer) {
  HorusSystem::Options o;
  o.net.loss = 0.0;
  constexpr std::size_t kMembers = 3;
  World w(kMembers, "MBRSHIP:FRAG:NAK:COM", o);
  w.form_group();
  ASSERT_TRUE(w.converged());
  const std::uint64_t delivered0 = w.sys.net().stats().delivered.load();
  constexpr int kCasts = 100;
  constexpr sim::Duration kGap = 10 * sim::kMillisecond;
  std::size_t events = 0;
  for (int i = 0; i < kCasts; ++i) {
    w.eps[1]->cast(kGroup, Message::from_string(std::to_string(i)));
    events += w.sys.run_for(kGap);
  }
  for (std::size_t m = 0; m < kMembers; ++m) {
    ASSERT_EQ(w.logs[m].casts.size(), static_cast<std::size_t>(kCasts));
  }
  const std::uint64_t datagrams =
      w.sys.net().stats().delivered.load() - delivered0;
  const sim::Duration ran = kCasts * kGap;
  const std::size_t timer_fires =
      kMembers * (ran / o.stack.nak_status_interval +
                  ran / o.stack.stability_gossip_interval);
  EXPECT_EQ(events, timer_fires + datagrams) << "a repair timer fired";
}

// One sender, a burst far beyond the window. Were the window opened only by
// the periodic status (256 casts per 20 ms), 3000 casts would take at
// least 3000 / 256 * 20 ms ~ 234 ms to deliver. A cast at half a window
// asks the receivers for their status, so the burst flows at its own rate.
TEST(Nak, AskedStatusKeepsWindowOpen) {
  HorusSystem::Options o;
  o.net.loss = 0.0;
  o.net.delay_min = 100;
  o.net.delay_max = 100;
  NakWorld w(3, o);
  constexpr std::size_t kCasts = 3000;
  const sim::Time start = w.sys.now();
  for (std::size_t i = 0; i < kCasts; ++i) {
    w.eps[0]->cast(kGroup, Message::from_string(std::to_string(i)));
    w.sys.run_for(10);
  }
  auto all_delivered = [&w] {
    for (const AppLog& l : w.logs) {
      if (l.casts.size() < kCasts) return false;
    }
    return true;
  };
  while (!all_delivered() && w.sys.now() - start < sim::kSecond) {
    w.sys.run_for(sim::kMillisecond);
  }
  ASSERT_TRUE(all_delivered());
  EXPECT_LE(w.sys.now() - start, 40 * sim::kMillisecond);
  for (const AppLog& l : w.logs) {
    auto got = l.casts_from(w.eps[0]->address());
    for (std::size_t i = 0; i < kCasts; ++i) EXPECT_EQ(got[i], std::to_string(i));
  }
}

// Drops every datagram that carries one of `sender`'s status asks. The
// ask is the cast being sent when the sender's last ask equals its last
// cast; a later retransmission of that cast passes.
struct DropAsks final : sim::FaultPolicy {
  DropAsks(std::uint64_t seed, Endpoint& sender) : rng(seed), sender(sender) {}
  sim::FaultDecision decide(std::uint64_t index, sim::NodeId s, sim::NodeId d,
                            std::size_t size, const sim::LinkParams& p) override {
    sim::FaultDecision f = rng.decide(index, s, d, size, p);
    if (s == sender.address().id && d != s && size >= 300) {
      const std::uint64_t asked = nak_field(sender, "asked=");
      if (asked != 0 && asked == nak_field(sender, "cast_out=") &&
          dropped.insert({d, asked}).second) {
        f.drop = true;
      }
    }
    return f;
  }
  sim::RngFaultPolicy rng;
  Endpoint& sender;
  std::set<std::pair<sim::NodeId, std::uint64_t>> dropped;
};

// A lost ask costs only speed: the receivers repair the cast by NAK, and
// the periodic status opens the window.
TEST(Nak, LostAskFallsBackToStatus) {
  HorusSystem::Options o;
  o.net.loss = 0.0;
  NakWorld w(3, o);
  auto policy = std::make_shared<DropAsks>(o.seed, *w.eps[0]);
  w.sys.net().set_fault_policy(policy);
  constexpr std::size_t kCasts = 1000;
  for (std::size_t i = 0; i < kCasts; ++i) {
    w.eps[0]->cast(kGroup, Message::from_string(std::to_string(i) + ":" +
                                                std::string(400, 'x')));
    w.sys.run_for(10);
  }
  w.sys.run_for(2 * sim::kSecond);
  EXPECT_GE(policy->dropped.size(), 2u * (kCasts / 256)) << "asks were sent";
  for (std::size_t m = 0; m < 3; ++m) {
    auto got = w.logs[m].casts_from(w.eps[0]->address());
    ASSERT_EQ(got.size(), kCasts) << "member " << m;
    for (std::size_t i = 0; i < kCasts; ++i) {
      EXPECT_EQ(got[i].substr(0, got[i].find(':')), std::to_string(i));
    }
  }
}

// A member that has moved to a new view keeps the previous view's
// retransmit buffer: a peer still NAKing casts of that view (as a member
// flushing the old view does) gets them retransmitted, not LOST_MESSAGE
// placeholders, even after a status from that peer arrives in the new view.
TEST(Nak, OldEpochStillRepairedAfterViewChange) {
  HorusSystem::Options o;
  o.net.loss = 0.0;
  // The first NAK for a gap goes out 100 ms after it opens, so statuses
  // reach the sender in its new view first.
  o.stack.nak_resend_timeout = sim::kSecond;
  NakWorld w(2, o);
  Endpoint& a = *w.eps[0];
  Endpoint& b = *w.eps[1];
  auto cast = [&](int from, int to) {
    for (int i = from; i < to; ++i) a.cast(kGroup, Message::from_string(std::to_string(i)));
    w.sys.run_for(sim::kMillisecond);
  };
  sim::LinkParams dead;
  dead.loss = 1.0;
  cast(0, 5);
  w.sys.net().set_link_params(a.address().id, b.address().id, dead);
  cast(5, 10);  // b misses these
  w.sys.net().clear_link_params(a.address().id, b.address().id);
  cast(10, 20);
  // Only a moves on: b stays in the old view, its gap 5..9 still open.
  a.install_view(kGroup, {a.address(), b.address()});
  w.sys.run_for(50 * sim::kMillisecond);
  ASSERT_TRUE(w.logs[1].lost.empty());
  w.sys.run_for(sim::kSecond);
  EXPECT_TRUE(w.logs[1].lost.empty()) << "old-epoch casts answered by placeholders";
  auto got = w.logs[1].casts_from(a.address());
  ASSERT_EQ(got.size(), 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(got[static_cast<std::size_t>(i)], std::to_string(i));
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
