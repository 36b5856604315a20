// TOTAL layer: agreement on a single delivery order, token behaviour,
// and the deterministic re-ordering rule at view changes (Section 7).
#include <algorithm>

#include "../common/test_util.hpp"

namespace horus::testing {
namespace {

constexpr const char* kStack = "TOTAL:MBRSHIP:FRAG:NAK:COM";

TEST(Total, AllMembersSameOrderConcurrentSenders) {
  HorusSystem::Options o;
  o.net.loss = 0.05;
  World w(4, kStack, o);
  w.form_group();
  ASSERT_TRUE(w.converged());
  // Everyone casts concurrently, repeatedly.
  for (int round = 0; round < 10; ++round) {
    for (std::size_t m = 0; m < 4; ++m) {
      w.eps[m]->cast(kGroup, Message::from_string(
                                 "r" + std::to_string(round) + "." + std::to_string(m)));
    }
    w.sys.run_for(30 * sim::kMillisecond);
  }
  w.sys.run_for(10 * sim::kSecond);
  auto ref = w.logs[0].all_cast_payloads();
  ASSERT_EQ(ref.size(), 40u);
  for (std::size_t m = 1; m < 4; ++m) {
    EXPECT_EQ(w.logs[m].all_cast_payloads(), ref)
        << "member " << m << " delivered a different total order";
  }
}

TEST(Total, OrderIsFifoPerSender) {
  // Total order must extend each sender's FIFO order.
  HorusSystem::Options o;
  o.net.loss = 0.0;
  World w(3, kStack, o);
  w.form_group();
  for (int i = 0; i < 20; ++i) {
    w.eps[1]->cast(kGroup, Message::from_string(std::to_string(i)));
  }
  w.sys.run_for(5 * sim::kSecond);
  auto got = w.logs[2].casts_from(w.eps[1]->address());
  ASSERT_EQ(got.size(), 20u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(got[static_cast<std::size_t>(i)], std::to_string(i));
  }
}

TEST(Total, TokenRotatesAmongSenders) {
  // With several active senders the token must visit them all (no sender
  // starves): every member's casts eventually appear.
  HorusSystem::Options o;
  o.net.loss = 0.0;
  World w(5, kStack, o);
  w.form_group();
  ASSERT_TRUE(w.converged());
  for (std::size_t m = 0; m < 5; ++m) {
    for (int i = 0; i < 5; ++i) {
      w.eps[m]->cast(kGroup, Message::from_string("s" + std::to_string(m)));
    }
  }
  w.sys.run_for(10 * sim::kSecond);
  for (std::size_t m = 0; m < 5; ++m) {
    EXPECT_EQ(w.logs[0].casts_from(w.eps[m]->address()).size(), 5u)
        << "sender " << m << " starved";
  }
}

TEST(Total, SurvivesTokenHolderCrash) {
  // Section 7: "In case of a failure, the token may be lost. This,
  // however, is not a problem."
  HorusSystem::Options o;
  o.net.loss = 0.0;
  World w(4, kStack, o);
  w.form_group();
  ASSERT_TRUE(w.converged());
  // Rank 0 holds the first token; crash it while traffic flows.
  for (std::size_t m = 1; m < 4; ++m) {
    w.eps[m]->cast(kGroup, Message::from_string("pre" + std::to_string(m)));
  }
  w.sys.run_for(20 * sim::kMillisecond);
  w.sys.crash(*w.eps[0]);
  for (std::size_t m = 1; m < 4; ++m) {
    w.eps[m]->cast(kGroup, Message::from_string("post" + std::to_string(m)));
  }
  w.sys.run_for(10 * sim::kSecond);
  // All survivors agree on one order containing all six messages.
  auto ref = w.logs[1].all_cast_payloads();
  EXPECT_EQ(ref.size(), 6u);
  for (std::size_t m = 2; m < 4; ++m) {
    EXPECT_EQ(w.logs[m].all_cast_payloads(), ref) << "member " << m;
  }
}

TEST(Total, ViewChangeOrderDeterministic) {
  // Messages in flight at a crash get the deterministic rank-order rule;
  // run the same scenario at every member and require identical orders.
  HorusSystem::Options o;
  o.net.loss = 0.1;
  o.seed = 77;
  World w(5, kStack, o);
  w.form_group();
  ASSERT_TRUE(w.converged());
  for (int burst = 0; burst < 3; ++burst) {
    for (std::size_t m = 0; m < 5; ++m) {
      w.eps[m]->cast(kGroup,
                     Message::from_string("b" + std::to_string(burst) + "." +
                                          std::to_string(m)));
    }
    if (burst == 1) w.sys.crash(*w.eps[2]);
    w.sys.run_for(50 * sim::kMillisecond);
  }
  w.sys.run_for(10 * sim::kSecond);
  auto ref = w.logs[0].all_cast_payloads();
  for (std::size_t m : {1u, 3u, 4u}) {
    EXPECT_EQ(w.logs[m].all_cast_payloads(), ref)
        << "member " << m << " diverged across the view change";
  }
}

TEST(Total, NoDuplicatesNoReordersLongRun) {
  HorusSystem::Options o;
  o.net.loss = 0.08;
  o.net.duplicate = 0.05;
  World w(3, kStack, o);
  w.form_group();
  for (int i = 0; i < 60; ++i) {
    w.eps[static_cast<std::size_t>(i % 3)]->cast(
        kGroup, Message::from_string("n" + std::to_string(i)));
    w.sys.run_for(10 * sim::kMillisecond);
  }
  w.sys.run_for(10 * sim::kSecond);
  auto all = w.logs[0].all_cast_payloads();
  ASSERT_EQ(all.size(), 60u);
  std::sort(all.begin(), all.end());
  EXPECT_EQ(std::unique(all.begin(), all.end()), all.end()) << "duplicates";
}

// --- The demand-driven token oracle ---------------------------------------

/// A counter from TOTAL's dump line ("... name=N ...") at member m.
std::uint64_t total_stat(World& w, std::size_t m, const std::string& name) {
  std::string d = w.eps[m]->dump(kGroup, "TOTAL");
  auto at = d.find(" " + name + "=");
  if (at == std::string::npos) {
    ADD_FAILURE() << "no " << name << " in: " << d;
    return 0;
  }
  return std::stoull(d.substr(at + name.size() + 2));
}

/// Token traffic TOTAL has sent, summed over the group: passes + requests.
std::uint64_t token_dgrams(World& w) {
  std::uint64_t n = 0;
  for (std::size_t m = 0; m < w.eps.size(); ++m) {
    n += total_stat(w, m, "tokens_passed") + total_stat(w, m, "requests_sent");
  }
  return n;
}

/// Casts one message from member `from`, then runs the world until every
/// live member has delivered it or `limit` of virtual time passes. Returns
/// the time it took (more than `limit` when it did not make it).
sim::Duration cast_and_wait(World& w, std::size_t from, const std::string& p,
                            sim::Duration limit) {
  std::vector<std::size_t> before;
  for (const auto& log : w.logs) before.push_back(log.casts.size());
  w.eps[from]->cast(kGroup, Message::from_string(p));
  sim::Duration waited = 0;
  while (waited <= limit) {
    bool all = true;
    for (std::size_t m = 0; m < w.logs.size(); ++m) {
      if (!w.eps[m]->crashed() && w.logs[m].casts.size() <= before[m]) {
        all = false;
      }
    }
    if (all) return waited;
    w.sys.run_for(100);
    waited += 100;
  }
  return waited;
}

HorusSystem::Options lossless() {
  HorusSystem::Options o;
  o.net.loss = 0.0;
  o.net.delay_min = 100;
  o.net.delay_max = 300;
  return o;
}

TEST(Total, OneSenderIsNetworkBound) {
  // The active sender keeps the token: once it has it, every cast is
  // stamped at once, and the token stops moving.
  World w(3, kStack, lossless());
  w.form_group();
  ASSERT_TRUE(w.converged());
  w.eps[1]->cast(kGroup, Message::from_string("warm"));
  w.sys.run_for(100 * sim::kMillisecond);
  EXPECT_EQ(total_stat(w, 1, "parked"), 1u);
  std::uint64_t passed = 0;
  for (std::size_t m = 0; m < 3; ++m) passed += total_stat(w, m, "tokens_passed");

  // One cast every 200us; each must be everywhere within 1ms of its cast.
  constexpr int kCasts = 200;
  constexpr sim::Duration kGap = 200;
  for (int i = 0; i < kCasts; ++i) {
    w.eps[1]->cast(kGroup, Message::from_string("c" + std::to_string(i)));
    w.sys.run_for(kGap);
    int due = i + 1 - static_cast<int>(sim::kMillisecond / kGap);  // cast >= 1ms ago
    for (std::size_t m = 0; m < 3; ++m) {
      ASSERT_GE(static_cast<int>(w.logs[m].casts.size()) - 1, due)
          << "member " << m << " is more than 1ms behind at cast " << i;
    }
  }
  w.sys.run_for(sim::kMillisecond);
  for (std::size_t m = 0; m < 3; ++m) {
    EXPECT_EQ(w.logs[m].casts.size(), static_cast<std::size_t>(kCasts) + 1);
  }
  std::uint64_t passed_after = 0;
  for (std::size_t m = 0; m < 3; ++m) {
    passed_after += total_stat(w, m, "tokens_passed");
  }
  EXPECT_EQ(passed_after, passed) << "the token moved under one sender";
}

TEST(Total, IdleGroupParksTheToken) {
  // After one idle round the token parks: TOTAL sends nothing at all.
  World w(3, kStack, lossless());
  w.form_group();
  ASSERT_TRUE(w.converged());
  w.eps[2]->cast(kGroup, Message::from_string("one"));
  w.sys.run_for(100 * sim::kMillisecond);  // an idle round is ~2 x 5ms
  std::uint64_t sent = token_dgrams(w);
  int parked = 0;
  for (std::size_t m = 0; m < 3; ++m) {
    parked += static_cast<int>(total_stat(w, m, "parked"));
  }
  EXPECT_EQ(parked, 1) << "exactly one member holds the parked token";
  w.sys.run_for(2 * sim::kSecond);
  EXPECT_EQ(token_dgrams(w), sent) << "an idle group kept passing the token";
}

TEST(Total, RequestFetchesParkedToken) {
  World w(3, kStack, lossless());
  w.form_group();
  ASSERT_TRUE(w.converged());
  constexpr sim::Duration kFew = 3 * sim::kMillisecond;
  // Park the token at member 0.
  EXPECT_LE(cast_and_wait(w, 0, "park", kFew), kFew);
  w.sys.run_for(100 * sim::kMillisecond);
  ASSERT_EQ(total_stat(w, 0, "parked"), 1u);
  // A single cast elsewhere asks for the token and gets it.
  EXPECT_LE(cast_and_wait(w, 2, "ask", kFew), kFew);
  EXPECT_GE(total_stat(w, 2, "requests_sent"), 1u);
  EXPECT_GE(total_stat(w, 0, "requests_served"), 1u);
  // Alternating senders each fetch the token back.
  for (int i = 0; i < 10; ++i) {
    w.sys.run_for(30 * sim::kMillisecond);
    std::size_t from = i % 2 == 0 ? 0 : 2;
    EXPECT_LE(cast_and_wait(w, from, "alt" + std::to_string(i), kFew), kFew)
        << "alternation " << i << " from member " << from;
  }
  // Everyone at once, right after a park.
  w.sys.run_for(100 * sim::kMillisecond);
  std::vector<std::size_t> before;
  for (const auto& log : w.logs) before.push_back(log.casts.size());
  for (std::size_t m = 0; m < 3; ++m) {
    w.eps[m]->cast(kGroup, Message::from_string("burst" + std::to_string(m)));
  }
  w.sys.run_for(kFew);
  for (std::size_t m = 0; m < 3; ++m) {
    EXPECT_EQ(w.logs[m].casts.size(), before[m] + 3) << "member " << m;
  }
  auto ref = w.logs[0].all_cast_payloads();
  for (std::size_t m = 1; m < 3; ++m) {
    EXPECT_EQ(w.logs[m].all_cast_payloads(), ref) << "member " << m;
  }
}

// The token can come back by rank to a member with nothing to stamp while
// another member's request is outstanding: that holder hands it to the
// requester at once instead of waiting out its idle delay.
TEST(Total, IdleHolderHandsTheTokenToARequesterAtOnce) {
  World w(3, kStack, lossless());
  w.form_group();
  ASSERT_TRUE(w.converged());
  constexpr sim::Duration kFew = 3 * sim::kMillisecond;
  // Park the token at member 2.
  EXPECT_LE(cast_and_wait(w, 2, "park", kFew), kFew);
  w.sys.run_for(100 * sim::kMillisecond);
  ASSERT_EQ(total_stat(w, 2, "parked"), 1u);
  // Member 2 stamps a cast of its own as member 1 asks, so the token
  // leaves it with no idle hops: member 1 stamps and passes it on by rank,
  // back to member 2, which has nothing to stamp. Member 0 asks meanwhile.
  w.eps[2]->cast(kGroup, Message::from_string("own"));
  w.eps[1]->cast(kGroup, Message::from_string("first"));
  w.sys.run_for(400);
  EXPECT_LT(cast_and_wait(w, 0, "second", kFew), kFew)
      << "the token waited out an idle delay with a request outstanding";
}

TEST(Total, ParkedHolderCrashDoesNotStrandRequester) {
  World w(4, kStack, lossless());
  w.form_group();
  ASSERT_TRUE(w.converged());
  // Park the token at member 1, then crash it: member 2's request goes
  // unanswered, and the view change must carry its casts.
  ASSERT_LE(cast_and_wait(w, 1, "park", 3 * sim::kMillisecond),
            3 * sim::kMillisecond);
  w.sys.run_for(100 * sim::kMillisecond);
  ASSERT_EQ(total_stat(w, 1, "parked"), 1u);
  w.sys.crash(*w.eps[1]);
  w.eps[2]->cast(kGroup, Message::from_string("orphan"));
  w.sys.run_for(10 * sim::kSecond);
  for (std::size_t m : {0u, 2u, 3u}) {
    EXPECT_EQ(w.logs[m].views.back().size(), 3u) << "member " << m;
    EXPECT_EQ(w.logs[m].casts_from(w.eps[2]->address()),
              std::vector<std::string>{"orphan"})
        << "member " << m;
  }
  // The new view's token serves the requester too.
  EXPECT_LE(cast_and_wait(w, 2, "after", 3 * sim::kMillisecond),
            3 * sim::kMillisecond);
}

TEST(Total, RequestAheadOfInstallIsKept) {
  // Member 2 installs the new view 30ms after the others (its link from
  // the coordinator is slow), and the new view's token reaches it before
  // the install does. Member 1 casts in between: its request for the new
  // view must be kept until member 2 installs and claims the token.
  World w(4, kStack, lossless());
  w.form_group();
  ASSERT_TRUE(w.converged());
  sim::LinkParams slow = lossless().net;
  slow.delay_min = slow.delay_max = 30 * sim::kMillisecond;
  w.sys.net().set_link_params(w.eps[0]->address().id, w.eps[2]->address().id,
                              slow);
  std::size_t views1 = w.logs[1].views.size();
  std::size_t views2 = w.logs[2].views.size();
  w.sys.crash(*w.eps[3]);
  for (int i = 0; i < 5000 && w.logs[1].views.size() == views1; ++i) {
    w.sys.run_for(100);
  }
  ASSERT_GT(w.logs[1].views.size(), views1) << "no view change";
  // Ranks 0 and 1 each hold the new token idle for token_idle_delay and
  // pass it on; member 2 still has the old view.
  w.sys.run_for(12 * sim::kMillisecond);
  ASSERT_EQ(w.logs[2].views.size(), views2) << "member 2 installed early";
  EXPECT_LE(cast_and_wait(w, 1, "early", 60 * sim::kMillisecond),
            60 * sim::kMillisecond);
  EXPECT_GT(w.logs[2].views.size(), views2);
}

}  // namespace
}  // namespace horus::testing
