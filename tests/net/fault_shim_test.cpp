// FaultShimTransport: wire-level fault injection that draws the
// simulator's fates -- decision i is sim::RngFaultPolicy's decision i for
// the same seed, whether the destinations arrive one per send or all in
// one send.
#include "horus/net/fault_shim.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "horus/sim/network.hpp"
#include "horus/sim/scheduler.hpp"

namespace horus::net {
namespace {

/// Records every datagram the shim lets through, and when (on `sched`, if
/// given).
class RecordingTransport final : public Transport {
 public:
  struct Sent {
    Address dst;
    Bytes data;
    sim::Time at = 0;
  };

  explicit RecordingTransport(const sim::Scheduler* sched = nullptr)
      : sched_(sched) {}

  void send(Address /*src*/, std::span<const Address> dsts,
            ByteSpan datagram) override {
    ++calls;
    for (const Address& d : dsts) {
      sent.push_back({d, Bytes(datagram.begin(), datagram.end()),
                      sched_ != nullptr ? sched_->now() : 0});
    }
  }

  std::vector<Sent> sent;
  int calls = 0;

 private:
  const sim::Scheduler* sched_;
};

Bytes payload(std::uint8_t tag) { return Bytes{tag, 2, 3}; }

/// One datagram to one destination.
void send_to(Transport& t, Address dst, ByteSpan datagram) {
  const Address one[] = {dst};
  t.send(Address{1}, one, datagram);
}

TEST(FaultShim, ZeroRatesForwardEverything) {
  RecordingTransport inner;
  FaultShimTransport shim(inner, {});
  for (int i = 0; i < 50; ++i) {
    send_to(shim, Address{2}, payload(static_cast<std::uint8_t>(i)));
  }
  EXPECT_EQ(inner.sent.size(), 50u);
  EXPECT_EQ(shim.stats().dropped.load(), 0u);
  EXPECT_EQ(shim.stats().duplicated.load(), 0u);
  EXPECT_EQ(shim.decisions_made(), 50u);
}

TEST(FaultShim, CertainDropLosesEverything) {
  RecordingTransport inner;
  FaultShimConfig cfg;
  cfg.drop = 1.0;
  FaultShimTransport shim(inner, cfg);
  send_to(shim, Address{2}, payload(0));
  std::vector<Address> dsts = {Address{2}, Address{3}};
  shim.send(Address{1}, dsts, payload(1));
  EXPECT_TRUE(inner.sent.empty());
  EXPECT_EQ(shim.stats().dropped.load(), 3u);
  EXPECT_EQ(shim.decisions_made(), 3u);
}

TEST(FaultShim, CertainDuplicateDoublesEverything) {
  RecordingTransport inner;
  FaultShimConfig cfg;
  cfg.duplicate = 1.0;
  FaultShimTransport shim(inner, cfg);
  send_to(shim, Address{2}, payload(7));
  EXPECT_EQ(inner.sent.size(), 2u);
  EXPECT_EQ(shim.stats().duplicated.load(), 1u);
  EXPECT_EQ(inner.sent[0].data, inner.sent[1].data);
}

TEST(FaultShim, BatchSurvivorsGoOutAsOneInnerBatch) {
  RecordingTransport inner;
  FaultShimConfig cfg;
  cfg.drop = 0.5;
  cfg.seed = 99;
  FaultShimTransport shim(inner, cfg);
  std::vector<Address> dsts;
  for (std::uint64_t i = 2; i < 22; ++i) dsts.push_back(Address{i});
  shim.send(Address{1}, dsts, payload(1));
  // Whatever the fates were, survivors + drops account for every
  // destination, and the survivors left through one inner send.
  EXPECT_EQ(inner.sent.size() + shim.stats().dropped.load(), dsts.size());
  EXPECT_GT(inner.sent.size(), 0u);  // p(all 20 dropped) = 2^-20
  EXPECT_EQ(inner.calls, 1);
}

TEST(FaultShim, SameSeedSameFates_SendAndBatchAligned) {
  // The same seed must produce the same fate sequence whether decisions
  // are consumed one destination per send or all in one send -- the
  // property that keeps a faulty run describable by (seed, index).
  FaultShimConfig cfg;
  cfg.drop = 0.3;
  cfg.duplicate = 0.2;
  cfg.seed = 0xabcd;
  RecordingTransport singles_inner;
  FaultShimTransport singles(singles_inner, cfg);
  RecordingTransport batch_inner;
  FaultShimTransport batched(batch_inner, cfg);

  std::vector<Address> dsts;
  for (std::uint64_t i = 2; i < 34; ++i) dsts.push_back(Address{i});
  for (const Address& d : dsts) {
    send_to(singles, d, payload(5));
  }
  batched.send(Address{1}, dsts, payload(5));

  EXPECT_EQ(singles.decisions_made(), batched.decisions_made());
  EXPECT_EQ(singles.stats().dropped.load(), batched.stats().dropped.load());
  EXPECT_EQ(singles.stats().duplicated.load(),
            batched.stats().duplicated.load());
  // Same per-destination outcomes, not just same totals.
  auto dst_multiset = [](const RecordingTransport& t) {
    std::vector<std::uint64_t> ids;
    ids.reserve(t.sent.size());
    for (const auto& s : t.sent) ids.push_back(s.dst.id);
    std::sort(ids.begin(), ids.end());
    return ids;
  };
  EXPECT_EQ(dst_multiset(singles_inner), dst_multiset(batch_inner));
}

TEST(FaultShim, DrawsTheSimulatorsFates) {
  // For one seed and rates, the shim's per-destination outcomes are the
  // simulator's fault policy's decisions, index for index: whether a copy
  // leaves, whether a second one does, and when each one leaves.
  FaultShimConfig cfg;
  cfg.drop = 0.2;
  cfg.duplicate = 0.3;
  cfg.delay_min = 100;
  cfg.delay_max = 900;
  cfg.seed = 0x5151;
  sim::LinkParams p;
  p.loss = cfg.drop;
  p.duplicate = cfg.duplicate;
  p.corrupt = 0.0;
  p.delay_min = cfg.delay_min;
  p.delay_max = cfg.delay_max;

  sim::Scheduler sched;
  RecordingTransport inner(&sched);
  FaultShimTransport shim(inner, cfg, &sched);
  constexpr std::uint64_t kDsts = 64;
  std::vector<Address> dsts;
  for (std::uint64_t i = 0; i < kDsts; ++i) dsts.push_back(Address{2 + i});
  const Bytes data = payload(3);
  shim.send(Address{1}, dsts, data);
  sched.run_for(10 * cfg.delay_max);
  ASSERT_EQ(shim.decisions_made(), kDsts);

  sim::RngFaultPolicy policy(cfg.seed);
  std::uint64_t drops = 0;
  std::uint64_t dups = 0;
  for (std::uint64_t i = 0; i < kDsts; ++i) {
    const Address dst = dsts[i];
    const sim::FaultDecision d = policy.decide(i, 1, dst.id, data.size(), p);
    std::vector<sim::Time> want;
    if (!d.drop) {
      want.push_back(d.delay);
      if (d.duplicate) want.push_back(d.dup_delay);
    }
    drops += d.drop ? 1 : 0;
    dups += !d.drop && d.duplicate ? 1 : 0;
    std::vector<sim::Time> got;
    for (const auto& s : inner.sent) {
      if (s.dst == dst) got.push_back(s.at);
    }
    std::sort(want.begin(), want.end());
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, want) << "destination " << i;
  }
  // The seed and rates draw every kind of outcome.
  EXPECT_GT(drops, 0u);
  EXPECT_GT(dups, 0u);
  EXPECT_EQ(shim.stats().dropped.load(), drops);
  EXPECT_EQ(shim.stats().duplicated.load(), dups);
}

TEST(FaultShim, DelayHoldsDatagramUntilSchedulerFires) {
  sim::Scheduler sched;
  RecordingTransport inner;
  FaultShimConfig cfg;
  cfg.delay_min = 500;
  cfg.delay_max = 500;  // deterministic window
  FaultShimTransport shim(inner, cfg, &sched);
  send_to(shim, Address{2}, payload(9));
  EXPECT_TRUE(inner.sent.empty());  // held by the scheduler
  EXPECT_EQ(shim.stats().delayed.load(), 1u);
  sched.run_for(499);
  EXPECT_TRUE(inner.sent.empty());
  sched.run_for(2);
  ASSERT_EQ(inner.sent.size(), 1u);
  EXPECT_EQ(inner.sent[0].data, payload(9));
  EXPECT_EQ(shim.stats().forwarded.load(), 1u);
}

TEST(FaultShim, DelayWithoutSchedulerIsRejected) {
  RecordingTransport inner;
  FaultShimConfig cfg;
  cfg.delay_max = 100;
  EXPECT_THROW(FaultShimTransport(inner, cfg), std::invalid_argument);
  cfg.delay_max = 0;
  cfg.delay_min = 10;  // max < min
  sim::Scheduler sched;
  EXPECT_THROW(FaultShimTransport(inner, cfg, &sched),
               std::invalid_argument);
}

}  // namespace
}  // namespace horus::net
