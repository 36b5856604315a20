// MBRSHIP layer unit behaviours beyond the Figure 2 scenario: joins,
// view agreement, self-inclusion, coordinator identity, external failure
// detection, gossip-driven log pruning, deferred casts.
#include <deque>

#include "../common/test_util.hpp"

namespace horus::testing {
namespace {

HorusSystem::Options quiet() {
  HorusSystem::Options o;
  o.net.loss = 0.0;
  return o;
}

TEST(Mbrship, BootstrapSingletonView) {
  World w(1, "MBRSHIP:FRAG:NAK:COM", quiet());
  w.eps[0]->join(kGroup);
  w.sys.run_for(100 * sim::kMillisecond);
  ASSERT_EQ(w.logs[0].views.size(), 1u);
  EXPECT_EQ(w.logs[0].views[0].size(), 1u);
  EXPECT_EQ(w.logs[0].views[0].oldest(), w.eps[0]->address());
}

TEST(Mbrship, SingletonCanCastToItself) {
  World w(1, "MBRSHIP:FRAG:NAK:COM", quiet());
  w.eps[0]->join(kGroup);
  w.sys.run_for(100 * sim::kMillisecond);
  w.eps[0]->cast(kGroup, Message::from_string("solo"));
  w.sys.run_for(sim::kSecond);
  ASSERT_EQ(w.logs[0].casts.size(), 1u);
  EXPECT_EQ(w.logs[0].casts[0].payload, "solo");
}

TEST(Mbrship, JoinersAppendInSeniorityOrder) {
  World w(4, "MBRSHIP:FRAG:NAK:COM", quiet());
  w.form_group();
  ASSERT_TRUE(w.converged());
  const View& v = w.logs[3].views.back();
  // The bootstrap member is oldest; joiners follow in join order.
  EXPECT_EQ(v.member(0), w.eps[0]->address());
  EXPECT_EQ(v.member(1), w.eps[1]->address());
  EXPECT_EQ(v.member(2), w.eps[2]->address());
  EXPECT_EQ(v.member(3), w.eps[3]->address());
}

TEST(Mbrship, EveryViewContainsInstaller) {
  World w(4, "MBRSHIP:FRAG:NAK:COM", quiet());
  w.form_group();
  w.sys.crash(*w.eps[2]);
  w.sys.run_for(5 * sim::kSecond);
  for (std::size_t i : {0u, 1u, 3u}) {
    for (const View& v : w.logs[i].views) {
      EXPECT_TRUE(v.contains(w.eps[i]->address()))
          << "member " << i << " installed a view without itself: "
          << v.to_string();
    }
  }
}

TEST(Mbrship, ViewSequencesAgreeAcrossMembers) {
  World w(4, "MBRSHIP:FRAG:NAK:COM", quiet());
  w.form_group();
  w.sys.crash(*w.eps[3]);
  w.sys.run_for(5 * sim::kSecond);
  // Any two members' view histories must agree wherever their view seqs
  // overlap (view agreement).
  for (std::size_t a = 0; a < 3; ++a) {
    for (std::size_t b = a + 1; b < 3; ++b) {
      for (const View& va : w.logs[a].views) {
        for (const View& vb : w.logs[b].views) {
          if (va.id().seq == vb.id().seq) {
            EXPECT_EQ(va, vb) << "members " << a << " and " << b
                              << " disagree at seq " << va.id().seq;
          }
        }
      }
    }
  }
}

TEST(Mbrship, ExternalFailureDetectorDrivesFlush) {
  // Section 5: "it allows for external failure detection". No crash
  // happens; the application simply declares a member faulty.
  World w(3, "MBRSHIP:FRAG:NAK:COM", quiet());
  w.form_group();
  ASSERT_TRUE(w.converged());
  w.eps[0]->flush(kGroup, {w.eps[2]->address()});
  w.sys.run_for(3 * sim::kSecond);
  EXPECT_EQ(w.logs[0].views.back().size(), 2u);
  EXPECT_FALSE(w.logs[0].views.back().contains(w.eps[2]->address()));
  // The excluded (but alive) member learns it was dropped.
  EXPECT_EQ(w.logs[2].exits, 1);
}

TEST(Mbrship, FlushUpcallReachesApplication) {
  World w(3, "MBRSHIP:FRAG:NAK:COM", quiet());
  w.form_group();
  w.sys.crash(*w.eps[2]);
  w.sys.run_for(5 * sim::kSecond);
  EXPECT_GT(w.logs[0].flushes + w.logs[1].flushes, 0)
      << "surviving members should see the FLUSH upcall";
}

TEST(Mbrship, CastsDuringFlushAreDeferredNotLost) {
  World w(3, "MBRSHIP:FRAG:NAK:COM", quiet());
  w.form_group();
  ASSERT_TRUE(w.converged());
  // Freeze delivery of the flush by partitioning briefly; casts issued
  // while membership is unsettled must still come out the other side.
  w.sys.crash(*w.eps[2]);
  // Cast immediately -- the flush has not even started yet, then more
  // during it.
  for (int i = 0; i < 5; ++i) {
    w.eps[0]->cast(kGroup, Message::from_string("d" + std::to_string(i)));
    w.sys.run_for(100 * sim::kMillisecond);
  }
  w.sys.run_for(5 * sim::kSecond);
  auto got = w.logs[1].casts_from(w.eps[0]->address());
  ASSERT_EQ(got.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(got[static_cast<std::size_t>(i)], "d" + std::to_string(i));
  }
}

TEST(Mbrship, GossipPrunesUnstableLog) {
  HorusSystem::Options o = quiet();
  o.stack.stability_gossip_interval = 20 * sim::kMillisecond;
  World w(3, "MBRSHIP:FRAG:NAK:COM", o);
  w.form_group();
  for (int i = 0; i < 50; ++i) {
    w.eps[0]->cast(kGroup, Message::from_string("fill"));
  }
  w.sys.run_for(3 * sim::kSecond);
  // After everyone delivered everything and gossip has circulated, the
  // unstable log must have been pruned (dump reports my_vseq=50 but the
  // flush log should not hold 50 entries' worth -- approximated via dump).
  std::string d = w.eps[0]->dump(kGroup, "MBRSHIP");
  EXPECT_NE(d.find("my_vseq=50"), std::string::npos) << d;
  // Force a flush now: it must be cheap (nothing unstable to exchange).
  w.sys.crash(*w.eps[2]);
  w.sys.run_for(5 * sim::kSecond);
  auto got = w.logs[1].casts_from(w.eps[0]->address());
  EXPECT_EQ(got.size(), 50u) << "no duplicates from the flush";
}

TEST(Mbrship, TwoSimultaneousCrashes) {
  World w(5, "MBRSHIP:FRAG:NAK:COM", quiet());
  w.form_group();
  ASSERT_TRUE(w.converged());
  w.sys.crash(*w.eps[2]);
  w.sys.crash(*w.eps[4]);
  w.sys.run_for(8 * sim::kSecond);
  for (std::size_t i : {0u, 1u, 3u}) {
    const View& v = w.logs[i].views.back();
    EXPECT_EQ(v.size(), 3u) << "member " << i;
    EXPECT_FALSE(v.contains(w.eps[2]->address()));
    EXPECT_FALSE(v.contains(w.eps[4]->address()));
  }
}

TEST(Mbrship, CrashDuringFlushRestartsIt) {
  // The coordinator's crash mid-flush: the next-oldest member completes
  // the membership change. "If processes fail during the process, a new
  // round of the flush protocol may start up immediately."
  World w(4, "MBRSHIP:FRAG:NAK:COM", quiet());
  w.form_group();
  ASSERT_TRUE(w.converged());
  // Crash member 3, and almost immediately the coordinator (member 0),
  // which will be mid-flush.
  w.sys.crash(*w.eps[3]);
  w.sys.run_for(300 * sim::kMillisecond);  // suspicion fires, flush starts
  w.sys.crash(*w.eps[0]);
  w.sys.run_for(8 * sim::kSecond);
  for (std::size_t i : {1u, 2u}) {
    const View& v = w.logs[i].views.back();
    EXPECT_EQ(v.size(), 2u) << "member " << i << ": " << v.to_string();
    EXPECT_EQ(v.oldest(), w.eps[1]->address());
  }
  EXPECT_EQ(w.logs[1].views.back(), w.logs[2].views.back());
}

TEST(Mbrship, SpuriousSenderFiltered) {
  // A non-member blasting DATA casts at the group must not reach the app
  // ("filters out spurious messages from endpoints not in its view").
  World w(3, "MBRSHIP:FRAG:NAK:COM", quiet());
  w.form_group();
  ASSERT_TRUE(w.converged());
  // The outsider runs the same stack and force-installs a view that
  // includes the group members -- then casts without having joined.
  auto& outsider = w.sys.create_endpoint("MBRSHIP:FRAG:NAK:COM");
  outsider.join(kGroup);  // bootstraps its own singleton view of the gid
  // Hack its view to aim datagrams at the real members:
  outsider.install_view(kGroup, {outsider.address(), w.eps[0]->address(),
                                 w.eps[1]->address()});
  outsider.cast(kGroup, Message::from_string("intrusion"));
  w.sys.run_for(2 * sim::kSecond);
  for (std::size_t i = 0; i < 3; ++i) {
    for (const auto& d : w.logs[i].casts) {
      EXPECT_NE(d.payload, "intrusion") << "member " << i;
    }
  }
}

TEST(Mbrship, RejoinAfterExclusion) {
  World w(3, "MBRSHIP:FRAG:NAK:COM", quiet());
  w.form_group();
  // Falsely exclude member 2 via the external detector, then let it
  // rejoin: it must come back as the youngest member.
  w.eps[0]->flush(kGroup, {w.eps[2]->address()});
  w.sys.run_for(3 * sim::kSecond);
  ASSERT_EQ(w.logs[2].exits, 1);
  w.eps[2]->join(kGroup, w.eps[0]->address());
  w.sys.run_for(3 * sim::kSecond);
  const View& v = w.logs[0].views.back();
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v.member(2), w.eps[2]->address()) << "rejoiner is youngest";
}

/// An executor the test steers: the first task posted to it is held back
/// until release(); every other task runs at once, in post order, as on a
/// GroupExecutor.
class HoldFirstExecutor final : public runtime::Executor {
 public:
  void release() { run(std::move(held_)); }

 private:
  void enqueue(runtime::GroupKey /*key*/, runtime::Task t) override {
    if (!held_any_) {
      held_any_ = true;
      held_ = std::move(t);
      return;
    }
    run(std::move(t));
  }
  void run(runtime::Task t) {
    queue_.push_back(std::move(t));
    if (running_) return;
    running_ = true;
    while (!queue_.empty()) {
      runtime::Task next = std::move(queue_.front());
      queue_.pop_front();
      next();
    }
    running_ = false;
  }

  bool held_any_ = false;
  runtime::Task held_;
  bool running_ = false;
  std::deque<runtime::Task> queue_;
};

TEST(Mbrship, JoinReqBeforeOwnJoinDoesNotOrphanTheJoiner) {
  // Regression: a group object whose own join has not run yet sits in
  // kJoining with a placeholder singleton view. It used to admit a
  // joiner's JOINREQ from there, install [self, joiner], and then let its
  // own bootstrap overwrite that view -- the joiner ended up alone. On a
  // real node this happens when a peer's datagram lands between
  // Endpoint::join's group creation and its queued kJoin.
  const HorusSystem::Options opts = quiet();
  const std::string spec = "MBRSHIP:FRAG:NAK:COM";
  sim::Scheduler sched;
  sim::SimNetwork net(sched, opts.seed);
  net.set_default_params(opts.net);
  SimTransport transport(net);
  auto hold = std::make_unique<HoldFirstExecutor>();
  HoldFirstExecutor& contact_exec = *hold;
  Endpoint contact(Address{1}, opts.stack, layers::make_stack(spec),
                   opts.network_properties, transport, sched, std::move(hold));
  Endpoint joiner(Address{2}, opts.stack, layers::make_stack(spec),
                  opts.network_properties, transport, sched);
  transport.bind(contact);
  transport.bind(joiner);
  AppLog contact_log;
  AppLog joiner_log;
  contact_log.attach(contact);
  joiner_log.attach(joiner);

  contact.join(kGroup);                    // its kJoin is held back...
  joiner.join(kGroup, contact.address());  // ...so the JOINREQ runs first
  sched.run_for(50 * sim::kMillisecond);
  contact_exec.release();
  sched.run_for(3 * sim::kSecond);

  ASSERT_FALSE(contact_log.views.empty());
  ASSERT_FALSE(joiner_log.views.empty());
  EXPECT_EQ(contact_log.views.back().size(), 2u)
      << contact_log.views.back().to_string();
  EXPECT_EQ(joiner_log.views.back(), contact_log.views.back())
      << joiner_log.views.back().to_string();
}

TEST(Mbrship, IdleGroupStopsGossiping) {
  // Gossip rides NAK, so it is reliable: a delivery vector that has not
  // changed since it was last gossiped says nothing new. Once one round
  // has been gossiped, an idle group's only traffic is NAK's status
  // rounds: 3 members x 2 peers x (1 s / 20 ms) = 300 datagrams/s.
  World w(3, "MBRSHIP:FRAG:NAK:COM", quiet());
  w.form_group();
  ASSERT_TRUE(w.converged());
  w.eps[0]->cast(kGroup, Message::from_string("one round"));
  w.sys.run_for(sim::kSecond);
  auto sent = [&w] {
    std::uint64_t n = 0;
    for (Endpoint* ep : w.eps) n += ep->stack().stats().datagrams_sent.load();
    return n;
  };
  const std::uint64_t before = sent();
  w.sys.run_for(2 * sim::kSecond);
  EXPECT_EQ(sent() - before, 600u);
}

}  // namespace
}  // namespace horus::testing
