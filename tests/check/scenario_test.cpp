// Scenario specs: oracle parsing, sanitization, JSON round trips, and the
// deterministic derivation of the scenario-level fault plan.
#include "horus/check/scenario.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace horus::check {
namespace {

TEST(CheckScenario, OracleParsing) {
  EXPECT_EQ(parse_oracles("auto"), kAutoOracles);
  EXPECT_EQ(parse_oracles("all"), kAllOracles);
  OracleSet two = parse_oracles("total-order,causal");
  EXPECT_EQ(two, static_cast<OracleSet>(Oracle::kTotalOrder) |
                     static_cast<OracleSet>(Oracle::kCausal));
  EXPECT_EQ(oracles_to_string(two), "total-order,causal");
  EXPECT_THROW(parse_oracles("totally-ordered"), std::invalid_argument);
}

TEST(CheckScenario, EveryOracleNameParsesBack) {
  for (std::uint32_t bit = 0; bit < 8; ++bit) {
    auto o = static_cast<Oracle>(1u << bit);
    EXPECT_EQ(parse_oracles(oracle_name(o)), static_cast<OracleSet>(o))
        << oracle_name(o);
  }
}

TEST(CheckScenario, SanitizeClampsImpossibleBudgets) {
  Scenario s;
  s.members = 1;
  s.crashes = 5;
  s.partitions = 2;
  s.delay_min = 500;
  s.delay_max = 100;
  s.sanitize();
  EXPECT_GE(s.members, 2u);
  // Crashes never reduce the group below two live members.
  EXPECT_LE(static_cast<std::size_t>(s.crashes), s.members - 2);
  EXPECT_GE(s.delay_max, s.delay_min);
}

TEST(CheckScenario, JsonRoundTrip) {
  Scenario s;
  s.stack = "TOTAL:STABLE:MBRSHIP:FRAG:NAK:COM";
  s.members = 5;
  s.rounds = 3;
  s.loss = 0.125;
  s.crashes = 2;
  s.partitions = 1;
  s.oracles = parse_oracles("virtual-synchrony,stability");
  Scenario back = Scenario::from_json(Json::parse(s.to_json().dump()));
  EXPECT_EQ(back.stack, s.stack);
  EXPECT_EQ(back.members, s.members);
  EXPECT_EQ(back.rounds, s.rounds);
  EXPECT_DOUBLE_EQ(back.loss, s.loss);
  EXPECT_EQ(back.crashes, s.crashes);
  EXPECT_EQ(back.partitions, s.partitions);
  EXPECT_EQ(back.oracles, s.oracles);
}

TEST(CheckScenario, PlanDerivationIsDeterministic) {
  Scenario s;
  s.crashes = 2;
  s.partitions = 1;
  s.members = 6;
  Plan a = derive_plan(s, 12345);
  Plan b = derive_plan(s, 12345);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].at, b[i].at);
    EXPECT_EQ(a[i].member, b[i].member);
    EXPECT_EQ(a[i].cell, b[i].cell);
  }
  // A different seed gives a different plan (overwhelmingly likely; this
  // seed pair is checked in).
  Plan c = derive_plan(s, 54321);
  bool same = a.size() == c.size();
  for (std::size_t i = 0; same && i < a.size(); ++i) {
    same = a[i].kind == c[i].kind && a[i].at == c[i].at &&
           a[i].member == c[i].member && a[i].cell == c[i].cell;
  }
  EXPECT_FALSE(same);
}

TEST(CheckScenario, PlanRespectsBudgetsAndOrdering) {
  Scenario s;
  s.members = 6;
  s.crashes = 2;
  s.partitions = 2;
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    Plan p = derive_plan(s, seed);
    int crashes = 0, parts = 0, heals = 0;
    std::vector<std::size_t> victims;
    for (std::size_t i = 0; i < p.size(); ++i) {
      if (i > 0) EXPECT_LE(p[i - 1].at, p[i].at) << "plan must be sorted";
      switch (p[i].kind) {
        case FaultEvent::Kind::kCrash:
          ++crashes;
          EXPECT_NE(p[i].member, 0u) << "member 0 is the contact point";
          EXPECT_LT(p[i].member, s.members);
          victims.push_back(p[i].member);
          break;
        case FaultEvent::Kind::kPartition:
          ++parts;
          EXPECT_FALSE(p[i].cell.empty());
          EXPECT_LT(p[i].cell.size(), s.members) << "cell B must be non-empty";
          break;
        case FaultEvent::Kind::kHeal:
          ++heals;
          break;
        case FaultEvent::Kind::kSwitch:
          ADD_FAILURE() << "no switch_spec, so no switch event";
          break;
      }
    }
    EXPECT_EQ(crashes, s.crashes);
    EXPECT_EQ(parts, s.partitions);
    EXPECT_EQ(heals, parts) << "every partition has a matching heal";
    std::sort(victims.begin(), victims.end());
    EXPECT_EQ(std::adjacent_find(victims.begin(), victims.end()),
              victims.end())
        << "crash victims are distinct";
  }
}

TEST(CheckScenario, PlanJsonRoundTrip) {
  Scenario s;
  s.crashes = 1;
  s.partitions = 1;
  s.switch_spec = "TOTAL:MBRSHIP:FRAG:MCAST:NNAK:COM";
  Plan p = derive_plan(s, 7);
  Plan back = plan_from_json(Json::parse(plan_to_json(p).dump()));
  ASSERT_EQ(back.size(), p.size());
  for (std::size_t i = 0; i < p.size(); ++i) {
    EXPECT_EQ(back[i].kind, p[i].kind);
    EXPECT_EQ(back[i].at, p[i].at);
    EXPECT_EQ(back[i].member, p[i].member);
    EXPECT_EQ(back[i].cell, p[i].cell);
    EXPECT_EQ(back[i].spec, p[i].spec);
  }
}

TEST(CheckScenario, SwitchSpecAddsOneSwitchEvent) {
  Scenario s;
  s.crashes = 1;
  s.switch_spec = "TOTAL:MBRSHIP:FRAG:MCAST:NNAK:COM";
  const sim::Duration window =
      static_cast<sim::Duration>(s.rounds) * s.round_gap;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Plan p = derive_plan(s, seed);
    int switches = 0;
    for (const FaultEvent& e : p) {
      if (e.kind != FaultEvent::Kind::kSwitch) continue;
      ++switches;
      EXPECT_EQ(e.spec, s.switch_spec);
      // Seed-derived time lands inside the middle half of the workload.
      EXPECT_GE(e.at, window / 4);
      EXPECT_LT(e.at, window);
    }
    EXPECT_EQ(switches, 1) << "seed " << seed;
  }
  // A pinned offset is taken verbatim, not derived.
  s.switch_at = 123 * sim::kMillisecond;
  Plan pinned = derive_plan(s, 5);
  auto it = std::find_if(pinned.begin(), pinned.end(), [](const FaultEvent& e) {
    return e.kind == FaultEvent::Kind::kSwitch;
  });
  ASSERT_NE(it, pinned.end());
  EXPECT_EQ(it->at, 123 * sim::kMillisecond);
}

TEST(CheckScenario, SwitchScenarioJsonRoundTrip) {
  Scenario s;
  s.switch_spec = "TOTAL:MBRSHIP:FRAG:NAK:COMPRESS:COM";
  s.switch_at = 250 * sim::kMillisecond;
  Scenario back = Scenario::from_json(Json::parse(s.to_json().dump()));
  EXPECT_EQ(back.switch_spec, s.switch_spec);
  EXPECT_EQ(back.switch_at, s.switch_at);
  // Pre-reconfiguration artifacts (no switch keys) still load.
  Scenario plain;
  Json j = plain.to_json();
  EXPECT_EQ(j.find("switch_spec"), nullptr);
  Scenario old = Scenario::from_json(Json::parse(j.dump()));
  EXPECT_TRUE(old.switch_spec.empty());
  EXPECT_EQ(old.switch_at, 0u);
}

}  // namespace
}  // namespace horus::check
