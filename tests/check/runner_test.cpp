// End-to-end runner tests: scenarios execute deterministically (replaying
// a seed reproduces identical event and dispatch hashes), healthy stacks
// pass every auto-derived oracle, and each deliberately-broken layer
// variant is caught within a bounded seed budget.
#include "horus/check/runner.hpp"

#include <gtest/gtest.h>

#include "horus/check/explorer.hpp"
#include "horus/properties/property.hpp"

namespace horus::check {
namespace {

/// A scaled-down scenario so unit tests stay fast; the CLI smoke tests and
/// scripts/check_smoke.sh cover the full-size defaults.
Scenario small(const std::string& stack) {
  Scenario s;
  s.stack = stack;
  s.members = 3;
  s.rounds = 4;
  s.settle = 4 * sim::kSecond;
  return s;
}

TEST(CheckRunner, SameSeedIsBitIdentical) {
  Scenario s = small("MBRSHIP:FRAG:NAK:COM");
  RunResult a = run_scenario(s, 7);
  RunResult b = run_scenario(s, 7);
  EXPECT_EQ(a.event_hash, b.event_hash);
  EXPECT_EQ(a.dispatch_hash, b.dispatch_hash);
  EXPECT_EQ(a.decisions, b.decisions);
  EXPECT_TRUE(a.ok()) << a.violations.size() << " violations";
}

TEST(CheckRunner, DifferentSeedsDiverge) {
  Scenario s = small("MBRSHIP:FRAG:NAK:COM");
  RunResult a = run_scenario(s, 1);
  RunResult b = run_scenario(s, 2);
  EXPECT_NE(a.event_hash, b.event_hash);
}

TEST(CheckRunner, AutoOraclesFollowProvidedProperties) {
  using props::Property;
  OracleSet s = auto_oracles(props::make_set(
      {Property::kFifoMulticast, Property::kVirtualSync,
       Property::kTotalOrder}));
  EXPECT_EQ(s, static_cast<OracleSet>(Oracle::kNoDupNoCreation) |
                   static_cast<OracleSet>(Oracle::kDelivery) |
                   static_cast<OracleSet>(Oracle::kVirtualSynchrony) |
                   static_cast<OracleSet>(Oracle::kTotalOrder));
  EXPECT_EQ(auto_oracles(0), kAutoOracles);
}

TEST(CheckRunner, CanonicalStacksPassManySeeds) {
  for (const char* stack :
       {"TOTAL:STABLE:MBRSHIP:FRAG:NAK:COM", "CAUSAL:MBRSHIP:FRAG:NAK:COM"}) {
    Scenario s = small(stack);
    ExploreOptions o;
    o.num_seeds = 25;
    o.shrink_failures = false;
    ExploreResult r = explore(s, o);
    EXPECT_TRUE(r.ok()) << stack << " failed at seed "
                        << (r.first_failing_seed ? *r.first_failing_seed : 0);
  }
}

TEST(CheckRunner, PartitionScenarioPasses) {
  Scenario s = small("MBRSHIP:FRAG:NAK:COM");
  s.partitions = 1;
  s.crashes = 0;
  s.members = 4;
  ExploreOptions o;
  o.num_seeds = 5;
  o.shrink_failures = false;
  ExploreResult r = explore(s, o);
  EXPECT_TRUE(r.ok()) << "failed at seed "
                      << (r.first_failing_seed ? *r.first_failing_seed : 0);
}

/// Every broken variant must be caught within this seed budget (the
/// artifact-level guarantee docs/check.md promises).
constexpr std::uint64_t kDetectionBudget = 20;

struct BrokenCase {
  const char* stack;
  Oracle expected;
};

class CheckRunnerBroken : public ::testing::TestWithParam<BrokenCase> {};

TEST_P(CheckRunnerBroken, CaughtWithinBudget) {
  Scenario s = small(GetParam().stack);
  ExploreOptions o;
  o.num_seeds = kDetectionBudget;
  o.shrink_failures = false;
  ExploreResult r = explore(s, o);
  ASSERT_FALSE(r.ok()) << GetParam().stack
                       << " survived the detection budget";
  bool expected_fired = false;
  for (const Violation& v : r.first_violations) {
    if (v.oracle == GetParam().expected) expected_fired = true;
  }
  EXPECT_TRUE(expected_fired)
      << GetParam().stack << ": expected oracle "
      << oracle_name(GetParam().expected) << " among "
      << r.first_violations.size() << " violations, first: "
      << r.first_violations[0].to_string();
}

INSTANTIATE_TEST_SUITE_P(
    Variants, CheckRunnerBroken,
    ::testing::Values(
        BrokenCase{"TOTAL!:STABLE:MBRSHIP:FRAG:NAK:COM", Oracle::kTotalOrder},
        BrokenCase{"CAUSAL!:MBRSHIP:FRAG:NAK:COM", Oracle::kCausal},
        BrokenCase{"MBRSHIP:FRAG:NAK!:COM", Oracle::kNoDupNoCreation},
        BrokenCase{"MBRSHIP!:FRAG:NAK:COM", Oracle::kViewAgreement}));

TEST(CheckRunner, LiveSwitchScenarioPassesAndBumpsEpoch) {
  Scenario s = small("TOTAL:MBRSHIP:FRAG:NAK:COM");
  s.switch_spec = "TOTAL:MBRSHIP:FRAG:MCAST:NNAK:COM";
  s.crashes = 0;
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    RunOptions o;
    o.keep_log = true;
    RunResult r = run_scenario(s, seed, o);
    // The switch oracle is forced on whenever the plan carries a switch.
    EXPECT_NE(r.oracles & static_cast<OracleSet>(Oracle::kCrossEpoch), 0u);
    EXPECT_TRUE(r.ok()) << "seed " << seed << ", first: "
                        << (r.violations.empty()
                                ? ""
                                : r.violations[0].to_string());
    // Every member actually crossed into epoch 1 -- the switch really ran,
    // it was not silently rejected.
    for (const RunLog::Member& m : r.log.members) {
      std::uint32_t max_epoch = 0;
      for (const Obs& ob : m.obs) max_epoch = std::max(max_epoch, ob.epoch);
      EXPECT_EQ(max_epoch, 1u)
          << "seed " << seed << " member " << m.index;
    }
  }
}

TEST(CheckRunner, LiveSwitchReplaysBitIdentically) {
  Scenario s = small("TOTAL:MBRSHIP:FRAG:NAK:COM");
  s.switch_spec = "TOTAL:MBRSHIP:FRAG:NAK:COMPRESS:COM";
  s.crashes = 0;
  RunResult a = run_scenario(s, 9);
  RunResult b = run_scenario(s, 9);
  EXPECT_EQ(a.event_hash, b.event_hash);
  EXPECT_EQ(a.dispatch_hash, b.dispatch_hash);
  EXPECT_TRUE(a.ok());
}

TEST(CheckRunner, ExplicitOraclesOverrideAuto) {
  Scenario s = small("MBRSHIP:FRAG:NAK:COM");
  s.oracles = parse_oracles("view-agreement");
  RunResult r = run_scenario(s, 3);
  EXPECT_EQ(r.oracles, parse_oracles("view-agreement"));
}

TEST(CheckRunner, MaskedRunKeepsDecisionAlignment) {
  // Masking a fault decision must not shift any other decision: the run
  // differs only by that fault not happening (the shrinker's soundness
  // assumption).
  Scenario s = small("MBRSHIP:FRAG:NAK:COM");
  RunOptions rec;
  rec.record = true;
  RunResult full = run_scenario(s, 11, rec);
  ASSERT_FALSE(full.faulty.empty()) << "scenario injected no faults";

  RunOptions masked;
  masked.plan = full.plan;
  masked.record = true;
  masked.mask = {full.faulty.front()};
  RunResult r = run_scenario(s, 11, masked);
  for (std::uint64_t idx : r.faulty) {
    EXPECT_NE(idx, full.faulty.front()) << "masked fault still fired";
  }
}

}  // namespace
}  // namespace horus::check
