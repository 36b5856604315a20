// FRAG / NFRAG: fragmentation and reassembly of large messages (P12).
#include "../common/test_util.hpp"
#include "horus/util/rng.hpp"

namespace horus::testing {
namespace {

struct FragWorld : World {
  explicit FragWorld(std::size_t n, const std::string& spec = "FRAG:NAK:COM",
                     HorusSystem::Options o = {})
      : World(n, spec, o) {
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

std::string pattern(std::size_t n) {
  std::string s(n, ' ');
  for (std::size_t i = 0; i < n; ++i) s[i] = static_cast<char>('A' + (i * 31) % 26);
  return s;
}

TEST(Frag, SmallMessagePassesThrough) {
  HorusSystem::Options o;
  o.net.loss = 0.0;
  FragWorld w(2, "FRAG:NAK:COM", o);
  w.eps[0]->cast(kGroup, Message::from_string("tiny"));
  w.sys.run_for(sim::kSecond);
  const StackStats& s = w.eps[0]->stack().stats();
  // One cast to two members = exactly 2 data datagrams (plus controls on
  // timers, but within 1s only a handful of statuses). No fragmentation.
  auto got = w.logs[1].casts_from(w.eps[0]->address());
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], "tiny");
  (void)s;
}

TEST(Frag, ExactlyAtBoundaryRoundTrips) {
  HorusSystem::Options o;
  o.net.loss = 0.0;
  FragWorld w(2, "FRAG:NAK:COM", o);
  // Sweep sizes around the fragmentation threshold (mtu - headroom).
  for (std::size_t size : {1200u, 1272u, 1273u, 1300u, 2544u, 2545u}) {
    std::string body = pattern(size);
    w.eps[0]->cast(kGroup, Message::from_payload(to_bytes(body)));
    w.sys.run_for(sim::kSecond);
    auto got = w.logs[1].casts_from(w.eps[0]->address());
    ASSERT_FALSE(got.empty()) << "size " << size;
    EXPECT_EQ(got.back().size(), size) << "size " << size;
    EXPECT_EQ(got.back(), body) << "size " << size;
  }
}

TEST(Frag, HugeMessageUnderLoss) {
  HorusSystem::Options o;
  o.net.loss = 0.2;
  FragWorld w(2, "FRAG:NAK:COM", o);
  std::string body = pattern(100'000);
  w.eps[0]->cast(kGroup, Message::from_payload(to_bytes(body)));
  w.sys.run_for(30 * sim::kSecond);
  auto got = w.logs[1].casts_from(w.eps[0]->address());
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], body);
}

TEST(Frag, InterleavedLargeAndSmall) {
  HorusSystem::Options o;
  o.net.loss = 0.05;
  FragWorld w(2, "FRAG:NAK:COM", o);
  std::string big = pattern(10'000);
  w.eps[0]->cast(kGroup, Message::from_string("before"));
  w.eps[0]->cast(kGroup, Message::from_payload(to_bytes(big)));
  w.eps[0]->cast(kGroup, Message::from_string("after"));
  w.sys.run_for(5 * sim::kSecond);
  auto got = w.logs[1].casts_from(w.eps[0]->address());
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0], "before");
  EXPECT_EQ(got[1], big);
  EXPECT_EQ(got[2], "after") << "FIFO must hold across fragmented messages";
}

TEST(Frag, LargeSubsetSend) {
  HorusSystem::Options o;
  o.net.loss = 0.1;
  FragWorld w(3, "FRAG:NAK:COM", o);
  std::string big = pattern(8'000);
  w.eps[0]->send(kGroup, {w.eps[2]->address()}, Message::from_payload(to_bytes(big)));
  w.sys.run_for(5 * sim::kSecond);
  ASSERT_EQ(w.logs[2].sends.size(), 1u);
  EXPECT_EQ(w.logs[2].sends[0].payload, big);
  EXPECT_TRUE(w.logs[1].sends.empty());
}

TEST(Frag, TwoSendersConcurrently) {
  HorusSystem::Options o;
  o.net.loss = 0.1;
  FragWorld w(2, "FRAG:NAK:COM", o);
  std::string b0 = pattern(20'000);
  std::string b1 = pattern(15'000) + "tail";
  w.eps[0]->cast(kGroup, Message::from_payload(to_bytes(b0)));
  w.eps[1]->cast(kGroup, Message::from_payload(to_bytes(b1)));
  w.sys.run_for(10 * sim::kSecond);
  EXPECT_EQ(w.logs[1].casts_from(w.eps[0]->address()).at(0), b0);
  EXPECT_EQ(w.logs[0].casts_from(w.eps[1]->address()).at(0), b1);
}

/// Transport that records every datagram instead of delivering it, so a
/// test can hand frames to a receiver in an order of its choosing.
struct CaptureTransport final : Transport {
  struct Frame {
    Address src, dst;
    Bytes bytes;
  };
  std::vector<Frame> sent;
  void send(Address src, std::span<const Address> dsts,
            ByteSpan datagram) override {
    for (const Address& dst : dsts) {
      sent.push_back({src, dst, Bytes(datagram.begin(), datagram.end())});
    }
  }
  /// Frames sent to `dst` since the last take, in send order.
  std::vector<Bytes> take(Address dst) {
    std::vector<Bytes> out;
    std::vector<Frame> rest;
    for (Frame& f : sent) {
      if (f.dst == dst) {
        out.push_back(std::move(f.bytes));
      } else {
        rest.push_back(std::move(f));
      }
    }
    sent = std::move(rest);
    return out;
  }
};

// A message lost from a sender's cast stream must not poison the
// reassembly of its unicast stream: a fragmented send whose fragments
// straddle a cast-stream LOST_MESSAGE from the same source still arrives.
TEST(Frag, CastStreamLossSparesTheUnicastBeingReassembled) {
  sim::Scheduler sched;
  CaptureTransport net;
  StackConfig cfg;
  cfg.nak_max_retain = 1;  // the sender keeps only its latest cast
  props::PropertySet p1 = props::make_set({props::Property::kBestEffort});
  Address a{1}, b{2};
  Endpoint tx(a, cfg, layers::make_stack("FRAG:NAK:COM"), p1, net, sched);
  Endpoint rx(b, cfg, layers::make_stack("FRAG:NAK:COM"), p1, net, sched);
  AppLog log;
  log.attach(rx);
  for (Endpoint* ep : {&tx, &rx}) {
    ep->join(kGroup);
    ep->install_view(kGroup, {a, b});
  }
  auto deliver = [](Endpoint& to, Address from, Bytes frame) {
    to.deliver_datagram(from, std::make_shared<const Bytes>(std::move(frame)));
  };

  // Three casts, then a unicast of three fragments; casts 1 and 2 have
  // already left the sender's retransmit buffer.
  for (const char* c : {"c1", "c2", "c3"}) {
    tx.cast(kGroup, Message::from_string(c));
  }
  const std::string big = pattern(3000);
  tx.send(kGroup, {b}, Message::from_payload(to_bytes(big)));
  std::vector<Bytes> to_rx = net.take(b);
  ASSERT_EQ(to_rx.size(), 6u);  // c1 c2 c3, then the unicast's fragments

  // The first fragment, then cast 3: the receiver sees casts 1 and 2
  // missing and asks for them; the sender can only answer with
  // placeholders, which reach the receiver as LOST_MESSAGEs.
  deliver(rx, a, to_rx[3]);
  deliver(rx, a, to_rx[2]);
  sched.run_for(2 * sim::kMillisecond);
  std::vector<Bytes> to_tx = net.take(a);
  ASSERT_FALSE(to_tx.empty()) << "the receiver never asked for casts 1-2";
  for (Bytes& f : to_tx) deliver(tx, b, std::move(f));
  for (Bytes& f : net.take(b)) deliver(rx, a, std::move(f));
  EXPECT_EQ(log.lost, (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(log.all_cast_payloads(), std::vector<std::string>{"c3"});

  // The rest of the unicast.
  deliver(rx, a, to_rx[4]);
  deliver(rx, a, to_rx[5]);
  ASSERT_EQ(log.sends.size(), 1u) << "the unicast was dropped as poisoned";
  EXPECT_EQ(log.sends[0].payload, big);
}

TEST(Nfrag, ReassemblesOverUnreliableTransport) {
  // NFRAG sits straight on COM: no FIFO below it.
  HorusSystem::Options o;
  o.net.loss = 0.0;
  o.net.delay_min = 10;
  o.net.delay_max = 800;  // reorder fragments aggressively
  FragWorld w(2, "NFRAG:COM", o);
  std::string big = pattern(6'000);
  w.eps[0]->cast(kGroup, Message::from_payload(to_bytes(big)));
  w.sys.run_for(3 * sim::kSecond);
  auto got = w.logs[1].casts_from(w.eps[0]->address());
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], big);
}

TEST(Nfrag, IncompleteMessageDiscarded) {
  HorusSystem::Options o;
  o.net.loss = 0.5;  // many fragments die; no retransmission below NFRAG
  FragWorld w(2, "NFRAG:COM", o);
  int delivered_intact = 0;
  for (int i = 0; i < 20; ++i) {
    w.eps[0]->cast(kGroup, Message::from_payload(to_bytes(pattern(5'000))));
  }
  w.sys.run_for(5 * sim::kSecond);
  for (const auto& d : w.logs[1].casts) {
    EXPECT_EQ(d.payload, pattern(5'000)) << "partial reassembly leaked";
    ++delivered_intact;
  }
  EXPECT_LT(delivered_intact, 20) << "with 50% loss some messages must die";
}

TEST(Nfrag, SmallMessagesStillFlow) {
  HorusSystem::Options o;
  o.net.loss = 0.0;
  FragWorld w(2, "NFRAG:COM", o);
  w.eps[0]->cast(kGroup, Message::from_string("wee"));
  w.sys.run_for(sim::kSecond);
  auto got = w.logs[1].casts_from(w.eps[0]->address());
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], "wee");
}

}  // namespace
}  // namespace horus::testing
