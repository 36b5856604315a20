// Live protocol switching (epoch-versioned stacks): coordinated
// reconfiguration rides a membership flush, property-illegal transitions
// are rejected with a delta, old-epoch stragglers drain through shadow
// chains, and membership-less stacks switch locally.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "../common/test_util.hpp"
#include "horus/util/hotpath_stats.hpp"

namespace horus::testing {
namespace {

constexpr const char* kNakSpec = "TOTAL:MBRSHIP:FRAG:NAK:COM";
constexpr const char* kMcastSpec = "TOTAL:MBRSHIP:FRAG:MCAST:NNAK:COM";
constexpr const char* kCompressSpec = "TOTAL:MBRSHIP:FRAG:NAK:COMPRESS:COM";

void cast_str(Endpoint& ep, const std::string& s) {
  ep.cast(kGroup, Message::from_string(s));
}

/// Every member must have delivered exactly `want` from `src`, in order.
void expect_casts(const World& w, Address src,
                  const std::vector<std::string>& want) {
  for (std::size_t i = 0; i < w.logs.size(); ++i) {
    EXPECT_EQ(w.logs[i].casts_from(src), want)
        << "member " << i << " disagrees on casts from " << to_string(src);
  }
}

// The ISSUE's canonical live switch: NAK -> MCAST:NNAK under a full
// TOTAL:MBRSHIP stack, with application casts in flight before, during and
// after the flush. Zero loss, duplication or reordering per sender.
TEST(Reconfig, NakToMcastNnakLiveSwitch) {
  auto& stats = msg_path_stats();
  std::uint64_t completed0 = stats.reconfigs_completed.load();

  World w(3, kNakSpec);
  w.form_group();
  ASSERT_TRUE(w.converged());

  for (std::size_t i = 0; i < 3; ++i) {
    cast_str(*w.eps[i], "pre-" + std::to_string(i) + "-a");
    cast_str(*w.eps[i], "pre-" + std::to_string(i) + "-b");
  }
  w.sys.run_for(sim::kSecond);

  // Switch initiated by a non-coordinator member: the request is relayed
  // to the coordinator, which starts the flush the switch rides.
  w.eps[2]->reconfigure(kGroup, kMcastSpec);
  // In-flight traffic: cast while the flush is (or is about to be) running.
  for (std::size_t i = 0; i < 3; ++i) {
    cast_str(*w.eps[i], "mid-" + std::to_string(i));
  }
  w.sys.run_for(3 * sim::kSecond);

  for (std::size_t i = 0; i < 3; ++i) {
    cast_str(*w.eps[i], "post-" + std::to_string(i));
  }
  w.sys.run_for(2 * sim::kSecond);

  // Every member switched: epoch 1, new chain, view intact.
  for (std::size_t i = 0; i < 3; ++i) {
    Group& g = w.eps[i]->group(kGroup);
    EXPECT_EQ(g.epoch_number(), 1u) << "member " << i;
    EXPECT_EQ(g.stack().spec_string(), kMcastSpec) << "member " << i;
    ASSERT_FALSE(w.logs[i].views.empty());
    EXPECT_EQ(w.logs[i].views.back().size(), 3u);
    EXPECT_TRUE(w.logs[i].lost.empty()) << "member " << i;
  }
  EXPECT_GE(stats.reconfigs_completed.load(), completed0 + 3);

  // No app message lost, duplicated or reordered across the epoch
  // boundary, at any member, for any sender.
  for (std::size_t s = 0; s < 3; ++s) {
    std::vector<std::string> want = {
        "pre-" + std::to_string(s) + "-a", "pre-" + std::to_string(s) + "-b",
        "mid-" + std::to_string(s), "post-" + std::to_string(s)};
    expect_casts(w, w.eps[s]->address(), want);
  }
  // TOTAL still totally orders across the switch: all members agree on the
  // full interleaving, not just per-sender order.
  for (std::size_t i = 1; i < 3; ++i) {
    EXPECT_EQ(w.logs[i].all_cast_payloads(), w.logs[0].all_cast_payloads());
  }
  // The coordinated switch moved MBRSHIP state into the new epoch.
  EXPECT_GT(stats.state_transfers.load(), 0u);
}

// +COMPRESS then -COMPRESS: two successive coordinated switches; epoch
// counts up and traffic flows in every epoch.
TEST(Reconfig, CompressInAndOut) {
  World w(3, kNakSpec);
  w.form_group();
  ASSERT_TRUE(w.converged());

  cast_str(*w.eps[0], "plain-1");
  w.sys.run_for(sim::kSecond);

  w.eps[0]->reconfigure(kGroup, kCompressSpec);
  w.sys.run_for(3 * sim::kSecond);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(w.eps[i]->group(kGroup).epoch_number(), 1u) << "member " << i;
    EXPECT_EQ(w.eps[i]->group(kGroup).stack().spec_string(), kCompressSpec);
  }
  cast_str(*w.eps[1], "squeezed-1");
  w.sys.run_for(sim::kSecond);

  w.eps[0]->reconfigure(kGroup, kNakSpec);
  w.sys.run_for(3 * sim::kSecond);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(w.eps[i]->group(kGroup).epoch_number(), 2u) << "member " << i;
    EXPECT_EQ(w.eps[i]->group(kGroup).stack().spec_string(), kNakSpec);
  }
  cast_str(*w.eps[2], "plain-2");
  w.sys.run_for(sim::kSecond);

  expect_casts(w, w.eps[0]->address(), {"plain-1"});
  expect_casts(w, w.eps[1]->address(), {"squeezed-1"});
  expect_casts(w, w.eps[2]->address(), {"plain-2"});
}

// Dropping TOTAL while the application (by default) requires everything the
// join-time stack provided is illegal: reconfigure throws with the property
// delta, counts a rejection, and the group is untouched and still works.
TEST(Reconfig, IllegalTransitionRejected) {
  auto& stats = msg_path_stats();
  std::uint64_t rejected0 = stats.reconfigs_rejected.load();

  World w(2, kNakSpec);
  w.form_group();
  ASSERT_TRUE(w.converged());

  try {
    w.eps[0]->reconfigure(kGroup, "MBRSHIP:FRAG:NAK:COM");
    FAIL() << "illegal transition was not rejected";
  } catch (const std::invalid_argument& e) {
    // The error carries the property delta: P6 (total order) is lost.
    EXPECT_NE(std::string(e.what()).find("P6"), std::string::npos) << e.what();
  }
  EXPECT_GT(stats.reconfigs_rejected.load(), rejected0);

  w.sys.run_for(sim::kSecond);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(w.eps[i]->group(kGroup).epoch_number(), 0u);
    EXPECT_EQ(w.eps[i]->group(kGroup).stack().spec_string(), kNakSpec);
  }
  cast_str(*w.eps[0], "still-works");
  w.sys.run_for(sim::kSecond);
  expect_casts(w, w.eps[0]->address(), {"still-works"});
}

// check_reconfig is a pure dry run: it reports the same verdicts
// reconfigure() would apply but never changes the group.
TEST(Reconfig, CheckReconfigDryRun) {
  World w(2, kNakSpec);
  w.form_group();
  ASSERT_TRUE(w.converged());

  props::TransitionCheck legal = w.eps[0]->check_reconfig(kGroup, kMcastSpec);
  EXPECT_TRUE(legal.legal) << legal.error;
  EXPECT_EQ(legal.lost, 0u);
  // MCAST:NNAK strengthens the stack: plain best-effort unicast appears.
  EXPECT_NE(legal.gained, 0u);

  props::TransitionCheck drops =
      w.eps[0]->check_reconfig(kGroup, "MBRSHIP:FRAG:NAK:COM");
  EXPECT_FALSE(drops.legal);
  EXPECT_NE(drops.lost, 0u);
  EXPECT_NE(drops.error.find("P6"), std::string::npos) << drops.error;

  // Structural rule: the chain at and above the reconfiguration
  // coordinator must be unchanged, even if properties only grow.
  World plain(2, "MBRSHIP:FRAG:NAK:COM");
  plain.form_group();
  ASSERT_TRUE(plain.converged());
  props::TransitionCheck structural =
      plain.eps[0]->check_reconfig(kGroup, kNakSpec);
  EXPECT_FALSE(structural.legal);
  EXPECT_NE(structural.error.find("coordinator"), std::string::npos)
      << structural.error;

  // Nothing moved.
  EXPECT_EQ(w.eps[0]->group(kGroup).epoch_number(), 0u);
  EXPECT_EQ(plain.eps[0]->group(kGroup).epoch_number(), 0u);
}

// Unknown layer names in the target spec surface as a rejection (factory
// failure), not a crash, and count as rejected.
TEST(Reconfig, UnknownLayerRejected) {
  auto& stats = msg_path_stats();
  std::uint64_t rejected0 = stats.reconfigs_rejected.load();
  World w(2, kNakSpec);
  w.form_group();
  ASSERT_TRUE(w.converged());
  EXPECT_THROW(w.eps[0]->reconfigure(kGroup, "TOTAL:MBRSHIP:FRAG:NAQ:COM"),
               std::invalid_argument);
  EXPECT_GT(stats.reconfigs_rejected.load(), rejected0);
  EXPECT_EQ(w.eps[0]->group(kGroup).epoch_number(), 0u);
}

// Mixed-epoch delivery: after the group switches, an endpoint still running
// the OLD spec knocks with an epoch-0-stamped join request. That datagram
// routes to the permanent epoch-0 shadow (counted), whose superseded
// membership layer answers with the reconfiguration bundle; the joiner
// adopts the new (spec, epoch) and completes the join on the new chain.
TEST(Reconfig, OldSpecJoinerAdoptsNewEpoch) {
  auto& stats = msg_path_stats();

  World w(2, kNakSpec);
  w.form_group();
  ASSERT_TRUE(w.converged());

  w.eps[0]->reconfigure(kGroup, kMcastSpec);
  w.sys.run_for(3 * sim::kSecond);
  ASSERT_EQ(w.eps[0]->group(kGroup).epoch_number(), 1u);
  ASSERT_EQ(w.eps[1]->group(kGroup).epoch_number(), 1u);

  std::uint64_t shadow0 = stats.shadow_datagrams.load();

  // The latecomer was configured before the switch and never heard of it.
  Endpoint& late = w.sys.create_endpoint(kNakSpec);
  AppLog late_log;
  late_log.attach(late);
  late.join(kGroup, w.eps[0]->address());
  w.sys.run_for(5 * sim::kSecond);

  // Its old-epoch knock drained through the shadow chain...
  EXPECT_GT(stats.shadow_datagrams.load(), shadow0);
  // ...and it converged on the group's current spec and epoch.
  Group& lg = late.group(kGroup);
  EXPECT_EQ(lg.epoch_number(), 1u);
  EXPECT_EQ(lg.stack().spec_string(), kMcastSpec);
  ASSERT_FALSE(late_log.views.empty());
  EXPECT_EQ(late_log.views.back().size(), 3u);
  for (std::size_t i = 0; i < 2; ++i) {
    ASSERT_FALSE(w.logs[i].views.empty());
    EXPECT_EQ(w.logs[i].views.back().size(), 3u) << "member " << i;
  }

  // Traffic flows between veterans and the adopted joiner.
  cast_str(*w.eps[0], "from-veteran");
  cast_str(late, "from-joiner");
  w.sys.run_for(2 * sim::kSecond);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(w.logs[i].casts_from(w.eps[0]->address()),
              std::vector<std::string>{"from-veteran"});
    EXPECT_EQ(w.logs[i].casts_from(late.address()),
              std::vector<std::string>{"from-joiner"});
  }
  EXPECT_EQ(late_log.casts_from(w.eps[0]->address()),
            std::vector<std::string>{"from-veteran"});
  EXPECT_EQ(late_log.casts_from(late.address()),
            std::vector<std::string>{"from-joiner"});
}

// A reconfiguration requested while a join-driven view change is already in
// motion: the switch rides (or queues behind) the flush machinery; everyone
// -- including the concurrent joiner -- lands on the new spec.
TEST(Reconfig, DuringConcurrentViewChange) {
  World w(3, kNakSpec);
  w.form_group();
  ASSERT_TRUE(w.converged());

  Endpoint& joiner = w.sys.create_endpoint(kNakSpec);
  AppLog jlog;
  jlog.attach(joiner);
  joiner.join(kGroup, w.eps[0]->address());
  // No run_for in between: the join and the switch race into the
  // membership layer together.
  w.eps[0]->reconfigure(kGroup, kMcastSpec);
  w.sys.run_for(6 * sim::kSecond);

  std::vector<Endpoint*> all = {w.eps[0], w.eps[1], w.eps[2], &joiner};
  for (std::size_t i = 0; i < all.size(); ++i) {
    Group& g = all[i]->group(kGroup);
    EXPECT_EQ(g.epoch_number(), 1u) << "endpoint " << i;
    EXPECT_EQ(g.stack().spec_string(), kMcastSpec) << "endpoint " << i;
  }
  ASSERT_FALSE(jlog.views.empty());
  EXPECT_EQ(jlog.views.back().size(), 4u);
  for (std::size_t i = 0; i < 3; ++i) {
    ASSERT_FALSE(w.logs[i].views.empty());
    EXPECT_EQ(w.logs[i].views.back().size(), 4u) << "member " << i;
  }

  cast_str(*w.eps[1], "after-the-dust");
  w.sys.run_for(2 * sim::kSecond);
  expect_casts(w, w.eps[1]->address(), {"after-the-dust"});
  EXPECT_EQ(jlog.casts_from(w.eps[1]->address()),
            std::vector<std::string>{"after-the-dust"});
}

// Membership-less stacks (no MBRSHIP, views installed by hand) switch
// locally: each endpoint swaps its own epoch without coordination.
TEST(Reconfig, LocalSwitchWithoutMembership) {
  World w(2, "NNAK:COM");
  std::vector<Address> members;
  for (Endpoint* ep : w.eps) {
    ep->join(kGroup);
    members.push_back(ep->address());
  }
  for (Endpoint* ep : w.eps) ep->install_view(kGroup, members);
  w.sys.run_for(sim::kSecond);

  cast_str(*w.eps[0], "before");
  w.sys.run_for(sim::kSecond);

  // +COMPRESS below NNAK only adds properties: legal without relaxation.
  for (Endpoint* ep : w.eps) ep->reconfigure(kGroup, "NNAK:COMPRESS:COM");
  w.sys.run_for(sim::kSecond);
  for (std::size_t i = 0; i < 2; ++i) {
    Group& g = w.eps[i]->group(kGroup);
    EXPECT_EQ(g.epoch_number(), 1u) << "member " << i;
    EXPECT_EQ(g.stack().spec_string(), "NNAK:COMPRESS:COM") << "member " << i;
  }
  cast_str(*w.eps[1], "squeezed");
  w.sys.run_for(sim::kSecond);

  // NAK:COM masks best-effort unicast (P1), which the join-time stack
  // inherited -- so the app must first relax its requirement to FIFO
  // unicast (P3) for the switch to be legal.
  EXPECT_FALSE(w.eps[0]->check_reconfig(kGroup, "NAK:COM").legal);
  for (Endpoint* ep : w.eps) {
    ep->set_required(kGroup,
                     props::make_set({props::Property::kFifoUnicast}));
    ep->reconfigure(kGroup, "NAK:COM");
  }
  w.sys.run_for(sim::kSecond);
  for (std::size_t i = 0; i < 2; ++i) {
    Group& g = w.eps[i]->group(kGroup);
    EXPECT_EQ(g.epoch_number(), 2u) << "member " << i;
    EXPECT_EQ(g.stack().spec_string(), "NAK:COM") << "member " << i;
  }

  cast_str(*w.eps[0], "after");
  w.sys.run_for(sim::kSecond);
  expect_casts(w, w.eps[0]->address(), {"before", "after"});
  expect_casts(w, w.eps[1]->address(), {"squeezed"});
}

// A member's own copy of a cast skips the wire but still carries its
// frame's epoch stamp: one framed just before a local switch, and handed
// back only after it, reaches the draining epoch that framed it.
TEST(Reconfig, OwnCopyFramedBeforeASwitchDrainsByItsStamp) {
  World w(2, "NNAK:COM");
  std::vector<Address> members;
  for (Endpoint* ep : w.eps) {
    ep->join(kGroup);
    members.push_back(ep->address());
  }
  for (Endpoint* ep : w.eps) ep->install_view(kGroup, members);
  w.sys.run_for(sim::kSecond);

  // Inside member 0's upcall both calls queue: the cast's task frames
  // "mine" on epoch 0, then the switch's task installs epoch 1, and only
  // then does the own copy the cast posted run.
  Endpoint& a = *w.eps[0];
  std::vector<std::string> got;
  std::vector<std::uint32_t> epoch_at;
  a.on_upcall([&](Group& g, UpEvent& ev) {
    if (ev.type != UpType::kCast) return;
    got.push_back(ev.msg.payload_string());
    epoch_at.push_back(g.epoch_number());
    if (ev.msg.payload_string() == "go") {
      cast_str(a, "mine");
      a.reconfigure(kGroup, "NNAK:COMPRESS:COM");
    }
  });
  auto& stats = msg_path_stats();
  const std::uint64_t shadow0 = stats.shadow_datagrams.load();
  cast_str(*w.eps[1], "go");
  w.sys.run_for(sim::kSecond);

  EXPECT_EQ(a.group(kGroup).epoch_number(), 1u);
  EXPECT_EQ(got, (std::vector<std::string>{"go", "mine"}));
  EXPECT_EQ(epoch_at, (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(stats.shadow_datagrams.load() - shadow0, 1u)
      << "the own copy must reach epoch 0's shadow chain by its stamp";
  EXPECT_EQ(w.logs[1].casts_from(a.address()),
            (std::vector<std::string>{"mine"}));
}

// The epoch-0 shadow is permanent (it is the rendezvous for old-spec
// peers), but intermediate epochs retire after their drain interval.
TEST(Reconfig, IntermediateShadowRetires) {
  auto& stats = msg_path_stats();
  std::uint64_t retired0 = stats.shadows_retired.load();

  World w(2, kNakSpec);
  w.form_group();
  ASSERT_TRUE(w.converged());

  w.eps[0]->reconfigure(kGroup, kCompressSpec);
  w.sys.run_for(3 * sim::kSecond);
  ASSERT_EQ(w.eps[0]->group(kGroup).epoch_number(), 1u);
  // Epoch 0 never retires: both members still hold {0, 1}.
  EXPECT_EQ(w.eps[0]->group(kGroup).epoch_count(), 2u);
  const std::uint16_t stamp1 = w.eps[0]->group(kGroup).stack().epoch_stamp();

  w.eps[0]->reconfigure(kGroup, kNakSpec);
  w.sys.run_for(3 * sim::kSecond);
  ASSERT_EQ(w.eps[0]->group(kGroup).epoch_number(), 2u);
  // Epoch 1's shadow drained and retired; {0, 2} remain.
  EXPECT_GT(stats.shadows_retired.load(), retired0);
  EXPECT_EQ(w.eps[0]->group(kGroup).epoch_count(), 2u);
  EXPECT_EQ(w.eps[1]->group(kGroup).epoch_count(), 2u);

  // A straggler stamped with the retired epoch 1 is dropped and counted
  // by the endpoint's stamp router; the application sees nothing of it.
  Bytes frame(Stack::kFramePrefix + 16, 0xab);
  for (std::size_t i = 0; i < Stack::kGidPrefix; ++i) {
    frame[i] = static_cast<std::uint8_t>(kGroup.id >> (8 * i));
  }
  frame[Stack::kGidPrefix] = static_cast<std::uint8_t>(stamp1);
  frame[Stack::kGidPrefix + 1] = static_cast<std::uint8_t>(stamp1 >> 8);
  const std::uint64_t stale0 = stats.stale_epoch_drops.load();
  const std::size_t casts0 = w.logs[1].casts.size();
  const std::size_t views0 = w.logs[1].views.size();
  w.eps[1]->deliver_datagram(w.eps[0]->address(),
                             std::make_shared<const Bytes>(std::move(frame)));
  EXPECT_EQ(stats.stale_epoch_drops.load(), stale0 + 1);
  EXPECT_EQ(w.logs[1].casts.size(), casts0);
  EXPECT_EQ(w.logs[1].views.size(), views0);

  cast_str(*w.eps[0], "healthy");
  w.sys.run_for(sim::kSecond);
  expect_casts(w, w.eps[0]->address(), {"healthy"});
}

// Several groups on one endpoint pair switch back to back, switches
// started from both ends, with casts landing mid-switch: every group
// reaches the new epoch at both members and loses, duplicates and
// reorders nothing.
TEST(Reconfig, SeveralGroupsSwitchBackToBack) {
  constexpr std::size_t kGroups = 6;
  HorusSystem sys;
  auto& a = sys.create_endpoint(kNakSpec);
  auto& b = sys.create_endpoint(kNakSpec);

  // One payload log per (endpoint, group).
  std::vector<std::vector<std::string>> a_log(kGroups);
  std::vector<std::vector<std::string>> b_log(kGroups);
  auto attach = [](Endpoint& ep, std::vector<std::vector<std::string>>& log) {
    ep.on_upcall([&log](Group& g, UpEvent& ev) {
      if (ev.type != UpType::kCast) return;
      log[g.gid().id - 1].push_back(ev.msg.payload_string());
    });
  };
  attach(a, a_log);
  attach(b, b_log);

  for (std::size_t i = 0; i < kGroups; ++i) {
    GroupId gid{static_cast<std::uint64_t>(i + 1)};
    a.join(gid);
    sys.run_for(50 * sim::kMillisecond);
    b.join(gid, a.address());
    sys.run_for(50 * sim::kMillisecond);
  }
  sys.run_for(2 * sim::kSecond);

  for (std::size_t i = 0; i < kGroups; ++i) {
    GroupId gid{static_cast<std::uint64_t>(i + 1)};
    a.cast(gid, Message::from_string("pre-" + std::to_string(i)));
  }
  sys.run_for(sim::kSecond);

  // Fire every group's switch back to back; the coordinated flushes
  // overlap. Casts land mid-switch.
  for (std::size_t i = 0; i < kGroups; ++i) {
    GroupId gid{static_cast<std::uint64_t>(i + 1)};
    (i % 2 == 0 ? a : b).reconfigure(gid, kMcastSpec);
    b.cast(gid, Message::from_string("mid-" + std::to_string(i)));
  }
  sys.run_for(4 * sim::kSecond);

  for (std::size_t i = 0; i < kGroups; ++i) {
    GroupId gid{static_cast<std::uint64_t>(i + 1)};
    a.cast(gid, Message::from_string("post-" + std::to_string(i)));
  }
  sys.run_for(2 * sim::kSecond);

  for (std::size_t i = 0; i < kGroups; ++i) {
    GroupId gid{static_cast<std::uint64_t>(i + 1)};
    EXPECT_EQ(a.group(gid).epoch_number(), 1u) << "group " << i;
    EXPECT_EQ(b.group(gid).epoch_number(), 1u) << "group " << i;
    EXPECT_EQ(a.group(gid).stack().spec_string(), kMcastSpec) << "group " << i;
    EXPECT_EQ(b.group(gid).stack().spec_string(), kMcastSpec) << "group " << i;
    std::vector<std::string> want = {"pre-" + std::to_string(i),
                                     "mid-" + std::to_string(i),
                                     "post-" + std::to_string(i)};
    EXPECT_EQ(a_log[i], want) << "group " << i << " at a";
    EXPECT_EQ(b_log[i], want) << "group " << i << " at b";
  }
}

}  // namespace
}  // namespace horus::testing
