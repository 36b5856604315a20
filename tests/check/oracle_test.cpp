// Oracle unit tests over synthetic observation logs: each oracle must fire
// on a hand-built violating log and stay silent on the clean variant.
#include "horus/check/oracle.hpp"

#include <gtest/gtest.h>

namespace horus::check {
namespace {

Obs view(std::uint64_t seq, std::uint64_t coord,
         std::vector<std::uint64_t> members) {
  Obs o;
  o.kind = Obs::Kind::kView;
  o.view_seq = seq;
  o.view_coord = coord;
  o.view_members = std::move(members);
  return o;
}

Obs cast(std::uint64_t sender_index, std::uint32_t round,
         std::uint64_t view_seq, std::vector<std::uint64_t> ctx = {}) {
  Obs o;
  o.kind = Obs::Kind::kCast;
  o.source = sender_index + 1;  // address = index + 1, as in real runs
  o.msg_id = round + 1;
  o.decoded = true;
  o.payload.sender = sender_index;
  o.payload.round = round;
  o.payload.index = 0;
  o.payload.view_seq = view_seq;
  o.payload.ctx = std::move(ctx);
  return o;
}

/// A two-member log where both saw view 1 and the given casts.
RunLog two_members(std::vector<Obs> a, std::vector<Obs> b) {
  RunLog log;
  log.sent = {10, 10};
  log.casts_per_round = 1;
  RunLog::Member m0;
  m0.index = 0;
  m0.address = 1;
  m0.obs.push_back(view(1, 1, {1, 2}));
  for (Obs& o : a) m0.obs.push_back(std::move(o));
  RunLog::Member m1;
  m1.index = 1;
  m1.address = 2;
  m1.obs.push_back(view(1, 1, {1, 2}));
  for (Obs& o : b) m1.obs.push_back(std::move(o));
  log.members = {std::move(m0), std::move(m1)};
  return log;
}

OracleSet only(Oracle o) { return static_cast<OracleSet>(o); }

TEST(CheckOracle, CleanLogHasNoViolations) {
  RunLog log = two_members({cast(0, 0, 1), cast(1, 0, 1)},
                           {cast(0, 0, 1), cast(1, 0, 1)});
  EXPECT_TRUE(evaluate(kAllOracles, log).empty());
}

TEST(CheckOracle, DuplicateDeliveryCaught) {
  RunLog log = two_members({cast(0, 0, 1), cast(0, 0, 1)}, {cast(0, 0, 1)});
  auto v = evaluate(only(Oracle::kNoDupNoCreation), log);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].oracle, Oracle::kNoDupNoCreation);
  EXPECT_EQ(v[0].member, 0u);
  EXPECT_NE(v[0].detail.find("twice"), std::string::npos);
}

TEST(CheckOracle, NeverCastMessageCaught) {
  Obs phantom = cast(0, 9, 1);  // round 9, but only 10 casts (rounds 0..9)
  RunLog log = two_members({}, {std::move(phantom)});
  log.sent = {5, 5};  // ...actually only 5 were ever cast
  auto v = evaluate(only(Oracle::kNoDupNoCreation), log);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_NE(v[0].detail.find("never cast"), std::string::npos);
}

TEST(CheckOracle, ForgedSenderCaught) {
  Obs forged = cast(0, 0, 1);
  forged.source = 2;  // claims payload of member 0 but came from address 2
  RunLog log = two_members({std::move(forged)}, {});
  auto v = evaluate(only(Oracle::kNoDupNoCreation), log);
  ASSERT_EQ(v.size(), 1u);
}

TEST(CheckOracle, VsyncDifferentSetsSameTransitionCaught) {
  // Both members close view 1 into the same view 2, but member 1 missed a
  // message: a virtual synchrony violation.
  RunLog log = two_members(
      {cast(0, 0, 1), cast(1, 0, 1), view(2, 1, {1, 2})},
      {cast(0, 0, 1), view(2, 1, {1, 2})});
  auto v = evaluate(only(Oracle::kVirtualSynchrony), log);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].oracle, Oracle::kVirtualSynchrony);
}

TEST(CheckOracle, VsyncDifferentSuccessorsNotCompared) {
  // Extended virtual synchrony: a partitioned minority transitions into a
  // *different* successor view and owes the majority nothing.
  RunLog log = two_members(
      {cast(0, 0, 1), cast(1, 0, 1), view(2, 1, {1})},
      {cast(0, 0, 1), view(2, 2, {2})});
  EXPECT_TRUE(evaluate(only(Oracle::kVirtualSynchrony), log).empty());
}

TEST(CheckOracle, VsyncOpenFinalEpochNotCompared) {
  // No successor view: the member may simply not have finished receiving.
  RunLog log = two_members({cast(0, 0, 1), cast(1, 0, 1)}, {cast(0, 0, 1)});
  EXPECT_TRUE(evaluate(only(Oracle::kVirtualSynchrony), log).empty());
}

TEST(CheckOracle, TotalOrderInversionCaught) {
  RunLog log = two_members({cast(0, 0, 1), cast(1, 0, 1)},
                           {cast(1, 0, 1), cast(0, 0, 1)});
  auto v = evaluate(only(Oracle::kTotalOrder), log);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].oracle, Oracle::kTotalOrder);
}

TEST(CheckOracle, TotalOrderSubsetInSameOrderOk) {
  // Member 1 missed a message; the common subsequence agrees, so no
  // inversion (the open final epoch may still be filling in).
  RunLog log = two_members(
      {cast(0, 0, 1), cast(1, 0, 1), cast(0, 1, 1)},
      {cast(0, 0, 1), cast(0, 1, 1)});
  EXPECT_TRUE(evaluate(only(Oracle::kTotalOrder), log).empty());
}

TEST(CheckOracle, CausalDominanceViolationCaught) {
  // Member 1 delivers m0's round-1 cast whose context says m0 had seen one
  // message from m1 -- but member 1 has not yet delivered any m1 message.
  RunLog log = two_members(
      {},
      {cast(0, 1, 1, {1, 1})});
  auto v = evaluate(only(Oracle::kCausal), log);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].oracle, Oracle::kCausal);
  EXPECT_EQ(v[0].member, 1u);
}

TEST(CheckOracle, CausalSatisfiedContextOk) {
  RunLog log = two_members(
      {},
      {cast(1, 0, 1, {0, 0}), cast(0, 1, 1, {0, 1})});
  EXPECT_TRUE(evaluate(only(Oracle::kCausal), log).empty());
}

TEST(CheckOracle, CausalOtherViewContextSkipped) {
  // Context tagged view 7, receiver is in view 1: cross-view contexts are
  // not comparable and must not fire.
  RunLog log = two_members({}, {cast(0, 1, 7, {99, 99})});
  EXPECT_TRUE(evaluate(only(Oracle::kCausal), log).empty());
}

TEST(CheckOracle, StabilityOverclaimCaught) {
  RunLog log = two_members({cast(0, 0, 1)}, {});
  Obs st;
  st.kind = Obs::Kind::kStable;
  st.stable_view_members = {1, 2};
  // Row 0 (member 0's own row) claims 3 deliveries from member 1, but
  // member 0 has delivered nothing from address 2.
  st.acked = {{1, 3}, {0, 0}};
  log.members[0].obs.push_back(std::move(st));
  auto v = evaluate(only(Oracle::kStability), log);
  ASSERT_GE(v.size(), 1u);
  EXPECT_EQ(v[0].oracle, Oracle::kStability);
}

TEST(CheckOracle, ViewAgreementDivergedFinalViewsCaught) {
  RunLog log = two_members({view(2, 1, {1})}, {view(2, 2, {2, 1})});
  auto v = evaluate(only(Oracle::kViewAgreement), log);
  EXPECT_FALSE(v.empty());
}

TEST(CheckOracle, ViewAgreementCrashedMemberExempt) {
  RunLog log = two_members({}, {});
  log.members[1].crashed = true;
  log.members[1].obs.clear();  // crashed early, saw nothing
  // Member 0's final view contains only itself: consistent with the set of
  // live members.
  log.members[0].obs.push_back(view(2, 1, {1}));
  EXPECT_TRUE(evaluate(only(Oracle::kViewAgreement), log).empty());
}

TEST(CheckOracle, CrossEpochCleanSwitchOk) {
  // Both members deliver everything, epochs step 0 -> 1 in unison: a
  // successful live switch has nothing to report, even on a clean run.
  Obs late_a = cast(1, 0, 1);
  late_a.epoch = 1;
  Obs late_b = cast(1, 0, 1);
  late_b.epoch = 1;
  RunLog log = two_members({cast(0, 0, 1), std::move(late_a)},
                           {cast(0, 0, 1), std::move(late_b)});
  log.sent = {1, 1};
  log.clean = true;
  EXPECT_TRUE(evaluate(only(Oracle::kCrossEpoch), log).empty());
}

TEST(CheckOracle, CrossEpochRegressionCaught) {
  Obs newer = cast(0, 0, 1);
  newer.epoch = 1;
  Obs older = cast(1, 0, 1);
  older.epoch = 0;  // the stack went back to a retired epoch
  RunLog log = two_members({std::move(newer), std::move(older)}, {});
  log.sent = {1, 1};
  auto v = evaluate(only(Oracle::kCrossEpoch), log);
  ASSERT_GE(v.size(), 1u);
  EXPECT_EQ(v[0].oracle, Oracle::kCrossEpoch);
  EXPECT_NE(v[0].detail.find("backwards"), std::string::npos);
}

TEST(CheckOracle, CrossEpochPerSenderReorderCaught) {
  // Member 1 delivers m0's round-1 cast before its round-0 cast: the
  // switch reordered (or re-delivered) the sender's stream.
  RunLog log = two_members({}, {cast(0, 1, 1), cast(0, 0, 1)});
  auto v = evaluate(only(Oracle::kCrossEpoch), log);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].member, 1u);
  EXPECT_NE(v[0].detail.find("reordered"), std::string::npos);
}

TEST(CheckOracle, CrossEpochFinalEpochDisagreementCaught) {
  Obs switched = cast(0, 0, 1);
  switched.epoch = 1;
  RunLog log = two_members({std::move(switched)}, {cast(0, 0, 1)});
  log.sent = {1, 0};
  auto v = evaluate(only(Oracle::kCrossEpoch), log);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_NE(v[0].detail.find("final stack epoch"), std::string::npos);
}

TEST(CheckOracle, CrossEpochLossOnCleanRunCaught) {
  RunLog log = two_members({cast(0, 0, 1)}, {});
  log.sent = {1, 0};
  log.clean = true;  // no crash/partition in the plan: nothing may be lost
  auto v = evaluate(only(Oracle::kCrossEpoch), log);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].member, 1u);
  EXPECT_NE(v[0].detail.find("lost"), std::string::npos);
  // The same log under faults is inconclusive: a crashed sender's casts
  // may legitimately never arrive.
  log.clean = false;
  EXPECT_TRUE(evaluate(only(Oracle::kCrossEpoch), log).empty());
}

TEST(CheckOracle, DeliveryMissingCastCaught) {
  // Both members sent two casts; member 0 never delivered m1's second one
  // (a starved sender, say). Every delivery is in order and unique, so
  // only the delivery oracle sees it.
  RunLog log = two_members({cast(0, 0, 1), cast(1, 0, 1), cast(0, 1, 1)},
                           {cast(0, 0, 1), cast(1, 0, 1), cast(0, 1, 1),
                            cast(1, 1, 1)});
  log.sent = {2, 2};
  log.clean = true;
  EXPECT_TRUE(evaluate(kAllOracles & ~only(Oracle::kDelivery) &
                           ~only(Oracle::kCrossEpoch),
                       log)
                  .empty());
  auto v = evaluate(only(Oracle::kDelivery), log);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].oracle, Oracle::kDelivery);
  EXPECT_EQ(v[0].member, 0u);
  EXPECT_NE(v[0].detail.find("lost 1 of 2 casts from m1"), std::string::npos)
      << v[0].detail;
  // A crash or partition in the plan makes the same log inconclusive.
  log.clean = false;
  EXPECT_TRUE(evaluate(only(Oracle::kDelivery), log).empty());
}

TEST(CheckOracle, LogHashCoversEpochs) {
  RunLog a = two_members({cast(0, 0, 1)}, {});
  RunLog b = two_members({cast(0, 0, 1)}, {});
  b.members[0].obs[1].epoch = 1;
  EXPECT_NE(log_hash(a), log_hash(b));
}

TEST(CheckOracle, LogHashIsOrderSensitive) {
  RunLog a = two_members({cast(0, 0, 1), cast(1, 0, 1)}, {});
  RunLog b = two_members({cast(1, 0, 1), cast(0, 0, 1)}, {});
  RunLog a2 = two_members({cast(0, 0, 1), cast(1, 0, 1)}, {});
  EXPECT_EQ(log_hash(a), log_hash(a2));
  EXPECT_NE(log_hash(a), log_hash(b));
}

TEST(CheckOracle, PayloadEncodeDecodeRoundTrip) {
  Payload p;
  p.sender = 3;
  p.round = 17;
  p.index = 2;
  p.view_seq = 9;
  p.ctx = {5, 0, 12, 7};
  auto back = Payload::decode(p.encode());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->sender, p.sender);
  EXPECT_EQ(back->round, p.round);
  EXPECT_EQ(back->index, p.index);
  EXPECT_EQ(back->view_seq, p.view_seq);
  EXPECT_EQ(back->ctx, p.ctx);
  // Garbage is rejected, not misparsed.
  Bytes junk = {1, 2, 3};
  EXPECT_FALSE(Payload::decode(junk).has_value());
}

}  // namespace
}  // namespace horus::check
