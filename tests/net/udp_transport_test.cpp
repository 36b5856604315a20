// UdpTransport over real loopback sockets: datagrams through the kernel,
// rx edge cases hitting exactly their drop counter, and the batched
// sendmmsg path carrying a real multicast fan-out.
#include "horus/net/udp.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <mutex>
#include <string>
#include <vector>

#include "horus/net/runtime.hpp"
#include "loopback.hpp"

namespace horus::net {
namespace {

using namespace std::chrono_literals;

TEST(UdpTransport, RejectsBookWithoutSelf) {
  AddressBook book = AddressBook::parse("2 127.0.0.1:7002\n");
  EXPECT_THROW(UdpTransport(book, Address{1}), std::invalid_argument);
}

TEST(UdpTransport, TxOversizeAndUnroutableBumpTheirCounters) {
  AddressBook book = AddressBook::parse(loopback_entry(1, free_port()));
  UdpTransport udp(book, Address{1});

  Bytes oversize(udp.config().mtu + 1, 0xab);
  udp.send(Address{1}, Address{1}, oversize);
  EXPECT_EQ(udp.stats().tx_oversize_dropped.load(), 1u);

  Bytes small(32, 0x01);
  udp.send(Address{1}, Address{99}, small);  // 99 is not in the book
  EXPECT_EQ(udp.stats().tx_unroutable.load(), 1u);

  std::vector<Address> dsts = {Address{98}, Address{99}};
  udp.send_batch(Address{1}, dsts, small);
  EXPECT_EQ(udp.stats().tx_unroutable.load(), 3u);
  EXPECT_EQ(udp.stats().tx_datagrams.load(), 0u);
}

/// Fixture: one real node (id 1) plus two raw-socket identities -- id 2 is
/// in the book (a known peer we can forge traffic from), the anonymous
/// socket is not (an unknown peer).
class UdpRxEdgeCases : public ::testing::Test {
 protected:
  void SetUp() override {
    known_peer_ = std::make_unique<RawSock>();
    book_ = AddressBook::parse(loopback_entry(1, free_port()) +
                               loopback_entry(2, known_peer_->port));
    NodeConfig cfg;
    cfg.spec = "MBRSHIP:FRAG:NAK:COM";
    node_ = std::make_unique<NodeRuntime>(book_, Address{1}, cfg);
    node_->endpoint().join(GroupId{7});
    node_->run_for(100ms);  // singleton view forms; node loop live
  }

  AddressBook book_;
  std::unique_ptr<RawSock> known_peer_;
  std::unique_ptr<NodeRuntime> node_;
};

TEST_F(UdpRxEdgeCases, TruncatedDatagramBumpsOnlyRxTruncated) {
  const UdpStats& s = node_->udp().stats();
  Bytes huge(node_->udp().config().mtu + 50, 0x7f);
  known_peer_->send_to(node_->udp().local_port(), huge);
  ASSERT_TRUE(eventually([&] { return s.rx_truncated.load() == 1; }));
  EXPECT_EQ(s.rx_unknown_peer.load(), 0u);
  EXPECT_EQ(s.rx_datagrams.load(), 0u);  // never counted as received
}

TEST_F(UdpRxEdgeCases, UnknownPeerBumpsOnlyRxUnknownPeer) {
  const UdpStats& s = node_->udp().stats();
  RawSock anonymous;
  anonymous.send_to(node_->udp().local_port(), Bytes(64, 0x11));
  ASSERT_TRUE(eventually([&] { return s.rx_unknown_peer.load() == 1; }));
  EXPECT_EQ(s.rx_truncated.load(), 0u);
  EXPECT_EQ(s.rx_datagrams.load(), 0u);
}

TEST_F(UdpRxEdgeCases, KnownPeerGarbageIsReceivedThenDroppedByDemux) {
  // In the book and under the MTU: the transport accepts it (rx_datagrams)
  // and the endpoint's gid demux drops it -- no crash, no counter noise.
  const UdpStats& s = node_->udp().stats();
  known_peer_->send_to(node_->udp().local_port(), Bytes(64, 0x22));
  ASSERT_TRUE(eventually([&] { return s.rx_datagrams.load() == 1; }));
  EXPECT_EQ(s.rx_truncated.load(), 0u);
  EXPECT_EQ(s.rx_unknown_peer.load(), 0u);
}

TEST(UdpTransport, TwoNodesCastOverRealSockets_BatchedTx) {
  const std::vector<std::uint16_t> ports = free_ports(2);
  AddressBook book = AddressBook::parse(loopback_entry(1, ports[0]) +
                                       loopback_entry(2, ports[1]));
  NodeConfig cfg;
  NodeRuntime n1(book, Address{1}, cfg);
  NodeRuntime n2(book, Address{2}, cfg);

  std::mutex mu;
  std::vector<std::string> got1, got2;
  std::vector<View> views1, views2;
  auto attach = [&mu](Endpoint& ep, std::vector<std::string>& got,
                      std::vector<View>& views) {
    ep.on_upcall([&mu, &got, &views](Group&, UpEvent& ev) {
      std::lock_guard lock(mu);
      if (ev.type == UpType::kCast) got.push_back(ev.msg.payload_string());
      if (ev.type == UpType::kView) views.push_back(ev.view);
    });
  };
  attach(n1.endpoint(), got1, views1);
  attach(n2.endpoint(), got2, views2);

  GroupId g{11};
  n1.endpoint().join(g);
  n2.endpoint().join(g, Address{1});
  auto pump = [&](std::chrono::milliseconds total) {
    auto end = std::chrono::steady_clock::now() + total;
    while (std::chrono::steady_clock::now() < end) {
      n1.run_for(10ms);
      n2.run_for(10ms);
    }
  };
  // Wait for the two-member view on both nodes.
  auto both_joined = [&] {
    std::lock_guard lock(mu);
    return !views1.empty() && views1.back().size() == 2 &&
           !views2.empty() && views2.back().size() == 2;
  };
  for (int i = 0; i < 300 && !both_joined(); ++i) pump(10ms);
  ASSERT_TRUE(both_joined()) << "two-member view never formed";

  n1.endpoint().cast(g, Message::from_string("from-1"));
  n2.endpoint().cast(g, Message::from_string("from-2"));
  auto all_delivered = [&] {
    std::lock_guard lock(mu);
    return got1.size() == 2 && got2.size() == 2;
  };
  for (int i = 0; i < 300 && !all_delivered(); ++i) pump(10ms);
  ASSERT_TRUE(all_delivered());

  // The 2-member fan-out went through the wire as sendmmsg batches.
  EXPECT_GE(n1.udp().stats().tx_batches.load(), 1u);
  EXPECT_GT(n1.udp().stats().tx_datagrams.load(), 0u);
  EXPECT_GT(n2.udp().stats().rx_datagrams.load(), 0u);
  n1.shutdown();
  n2.shutdown();
}

}  // namespace
}  // namespace horus::net
