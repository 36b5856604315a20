// COM layer behaviour: fan-out to the view, the sender's own copy
// delivered off the wire, source tagging, group demultiplexing, checksum
// trailer (P10), spurious-traffic filtering.
#include <algorithm>

#include "../common/test_util.hpp"
#include "horus/util/hotpath_stats.hpp"

namespace horus::testing {
namespace {

HorusSystem::Options quiet() {
  HorusSystem::Options o;
  o.net.loss = 0.0;
  return o;
}

struct ComWorld : World {
  ComWorld(std::size_t n, const std::string& spec = "COM",
           HorusSystem::Options o = quiet())
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

TEST(Com, CastFansOutToWholeView) {
  ComWorld w(4);
  const std::uint64_t net0 = w.sys.net().stats().sent;
  w.eps[0]->cast(kGroup, Message::from_string("all"));
  w.sys.run_for(50 * sim::kMillisecond);
  for (std::size_t i = 0; i < 4; ++i) {
    ASSERT_EQ(w.logs[i].casts.size(), 1u) << "member " << i;
    EXPECT_EQ(w.logs[i].casts[0].payload, "all") << "member " << i;
  }
  // One datagram per other member: the sender's own copy skips the wire,
  // though it still enters the stack through the endpoint's demux.
  EXPECT_EQ(w.sys.net().stats().sent - net0, 3u);
  EXPECT_EQ(w.eps[0]->stack().stats().datagrams_sent, 3u);
  EXPECT_EQ(w.eps[0]->stack().stats().datagrams_received, 1u);
}

TEST(Com, NetworkCannotLoseOwnCasts) {
  HorusSystem::Options o = quiet();
  o.net.loss = 1.0;  // every datagram on the wire is dropped
  ComWorld w(2, "COM", o);
  w.eps[0]->cast(kGroup, Message::from_string("kept"));
  w.sys.run_for(50 * sim::kMillisecond);
  ASSERT_EQ(w.logs[0].casts.size(), 1u);
  EXPECT_EQ(w.logs[0].casts[0].payload, "kept");
  EXPECT_TRUE(w.logs[1].casts.empty());
}

/// A top layer that casts "pong" from inside its up() when its own "ping"
/// comes back, and notes whether any upcall reaches it while it is still
/// inside an earlier one.
class PingEcho final : public Layer {
 public:
  explicit PingEcho(bool& reentered) : reentered_(reentered) {
    info_.name = "ECHO";
    info_.spec.name = "ECHO";
    info_.spec.inherits = props::kAllProperties;
  }
  const LayerInfo& info() const override { return info_; }
  void up(Group& g, UpEvent& ev) override {
    if (inside_) reentered_ = true;
    inside_ = true;
    if (ev.type == UpType::kCast && ev.source == stack().address() &&
        ev.msg.payload_string() == "ping") {
      DownEvent out;
      out.type = DownType::kCast;
      out.msg = Message::from_string("pong");
      pass_down(g, out);
    }
    pass_up(g, ev);
    inside_ = false;
  }

 private:
  LayerInfo info_;
  bool& reentered_;
  bool inside_ = false;
};

// A cast issued inside an upcall reaches its own sender in a later task,
// never nested in the upcall that issued it.
TEST(Com, OwnCastFromAnUpcallArrivesAfterItReturns) {
  bool reentered = false;
  HorusSystem::Options o = quiet();
  o.stack_factory = [&reentered](const std::string& spec) {
    std::vector<std::unique_ptr<Layer>> layers;
    layers.push_back(std::make_unique<PingEcho>(reentered));
    for (auto& l : layers::make_stack(spec)) layers.push_back(std::move(l));
    return layers;
  };
  ComWorld w(3, "COM", o);
  w.eps[0]->cast(kGroup, Message::from_string("ping"));
  w.sys.run_for(50 * sim::kMillisecond);
  EXPECT_FALSE(reentered);
  EXPECT_EQ(w.logs[0].all_cast_payloads(),
            (std::vector<std::string>{"ping", "pong"}));
  // COM alone orders nothing: the peers may see the two either way round.
  for (std::size_t i = 1; i < 3; ++i) {
    std::vector<std::string> got = w.logs[i].all_cast_payloads();
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, (std::vector<std::string>{"ping", "pong"})) << "member " << i;
  }
}

TEST(Com, SendGoesOnlyToSubset) {
  ComWorld w(4);
  w.eps[0]->send(kGroup, {w.eps[2]->address()}, Message::from_string("pssst"));
  w.sys.run_for(50 * sim::kMillisecond);
  EXPECT_TRUE(w.logs[1].sends.empty());
  EXPECT_TRUE(w.logs[3].sends.empty());
  ASSERT_EQ(w.logs[2].sends.size(), 1u);
  EXPECT_EQ(w.logs[2].sends[0].payload, "pssst");
  EXPECT_EQ(w.logs[2].sends[0].source, w.eps[0]->address());
}

TEST(Com, SourceAddressPushed) {
  ComWorld w(2);
  w.eps[1]->cast(kGroup, Message::from_string("x"));
  w.sys.run_for(50 * sim::kMillisecond);
  ASSERT_EQ(w.logs[0].casts.size(), 1u);
  EXPECT_EQ(w.logs[0].casts[0].source, w.eps[1]->address());
}

TEST(Com, UnknownGroupDropped) {
  ComWorld w(2);
  // Member 1 leaves the group table entirely: traffic for the group is
  // dropped at its COM (no crash, no upcall).
  w.eps[1]->destroy();
  w.eps[0]->cast(kGroup, Message::from_string("gone"));
  w.sys.run_for(50 * sim::kMillisecond);
  EXPECT_TRUE(w.logs[1].casts.empty());
}

TEST(Com, ChecksumDropsGarbledDatagrams) {
  HorusSystem::Options o = quiet();
  o.net.corrupt = 1.0;  // every datagram garbled in transit
  ComWorld w(2, "COM", o);
  for (int i = 0; i < 20; ++i) {
    w.eps[0]->cast(kGroup, Message::from_string("junked"));
  }
  w.sys.run_for(sim::kSecond);
  EXPECT_TRUE(w.logs[1].casts.empty())
      << "corrupted datagrams must never be delivered through COM (P10)";
}

TEST(Com, RawComDeliversGarbledDatagrams) {
  // RAWCOM has no checksum: corruption flows through (it provides only
  // P11). Payload-only corruption keeps the header parseable often enough
  // to observe deliveries.
  HorusSystem::Options o = quiet();
  o.net.corrupt = 0.5;
  ComWorld w(2, "RAWCOM", o);
  int garbled = 0;
  for (int i = 0; i < 200; ++i) {
    w.eps[0]->cast(kGroup, Message::from_string("AAAAAAAAAAAAAAAAAAAAAAAA"));
  }
  w.sys.run_for(sim::kSecond);
  for (const auto& d : w.logs[1].casts) {
    if (d.payload != "AAAAAAAAAAAAAAAAAAAAAAAA") ++garbled;
  }
  EXPECT_GT(garbled, 0) << "RAWCOM should have let some corruption through";
}

TEST(Com, ViewUpdateChangesFanOut) {
  ComWorld w(3);
  // Shrink the view at the sender: subsequent casts skip the removed member.
  w.eps[0]->install_view(kGroup, {w.eps[0]->address(), w.eps[1]->address()});
  w.sys.run_for(10 * sim::kMillisecond);
  w.eps[0]->cast(kGroup, Message::from_string("smaller"));
  w.sys.run_for(50 * sim::kMillisecond);
  EXPECT_EQ(w.logs[1].casts.size(), 1u);
  EXPECT_TRUE(w.logs[2].casts.empty());
}

TEST(Com, EmptyPayloadCast) {
  ComWorld w(2);
  w.eps[0]->cast(kGroup, Message());
  w.sys.run_for(50 * sim::kMillisecond);
  ASSERT_EQ(w.logs[1].casts.size(), 1u);
  EXPECT_TRUE(w.logs[1].casts[0].payload.empty());
}

TEST(Com, CastUsesOneBatchedTransportSend) {
  // COM's fan-out goes through one Transport::send: one egress call per
  // cast (and one SimNetwork::send_multi burst), not one per member.
  ComWorld w(4);
  msg_path_stats().reset();
  w.eps[0]->cast(kGroup, Message::from_string("batched"));
  w.sys.run_for(50 * sim::kMillisecond);
  EXPECT_EQ(msg_path_stats().batch_sends.load(), 1u);
  EXPECT_EQ(w.eps[0]->stack().stats().datagrams_sent, 3u)
      << "batching must not change per-destination accounting";
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(w.logs[i].casts.size(), 1u) << "member " << i;
  }
}

TEST(Com, SelfSendWorks) {
  ComWorld w(2);
  w.eps[0]->send(kGroup, {w.eps[0]->address()}, Message::from_string("loop"));
  w.sys.run_for(50 * sim::kMillisecond);
  ASSERT_EQ(w.logs[0].sends.size(), 1u);
  EXPECT_EQ(w.logs[0].sends[0].payload, "loop");
}

}  // namespace
}  // namespace horus::testing
