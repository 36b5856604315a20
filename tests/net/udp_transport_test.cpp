// UdpTransport over real loopback sockets: datagrams through the kernel,
// tx and rx edge cases hitting exactly their drop counter, the stack's MTU
// bounding the socket, the batched sendmmsg path carrying a real multicast
// fan-out, and a sender's own copy kept off its socket.
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
  EXPECT_THROW(UdpTransport(book, Address{1}, StackConfig{}.mtu),
               std::invalid_argument);
}

TEST(UdpTransport, TxOversizeAndUnroutableBumpTheirCounters) {
  AddressBook book = AddressBook::parse(loopback_entry(1, free_port()));
  UdpTransport udp(book, Address{1}, StackConfig{}.mtu);

  Bytes oversize(udp.mtu() + 1, 0xab);
  const Address self[] = {Address{1}};
  udp.send(Address{1}, self, oversize);
  EXPECT_EQ(udp.stats().tx_oversize_dropped.load(), 1u);

  Bytes small(32, 0x01);
  const Address stranger[] = {Address{99}};  // 99 is not in the book
  udp.send(Address{1}, stranger, small);
  EXPECT_EQ(udp.stats().tx_unroutable.load(), 1u);

  std::vector<Address> dsts = {Address{98}, Address{99}};
  udp.send(Address{1}, dsts, small);
  EXPECT_EQ(udp.stats().tx_unroutable.load(), 3u);
  EXPECT_EQ(udp.stats().tx_datagrams.load(), 0u);
}

TEST(NodeRuntime, StackMtuBoundsTheSocket) {
  // One MTU per node: the socket drops what the stack's FRAG would never
  // produce at cfg.stack.mtu.
  AddressBook book = AddressBook::parse(loopback_entry(1, free_port()));
  NodeConfig cfg;
  cfg.stack.mtu = 600;
  NodeRuntime node(book, Address{1}, cfg);
  EXPECT_EQ(node.udp().mtu(), 600u);
  const UdpStats& s = node.udp().stats();
  // The transport belongs to the node loop: send from a task there.
  node.endpoint().executor().post(runtime::kNoGroup, [&node] {
    const Address self[] = {Address{1}};
    node.udp().send(Address{1}, self, Bytes(700, 0x5a));
  });
  ASSERT_TRUE(eventually([&] { return s.tx_oversize_dropped.load() == 1; }));
  EXPECT_EQ(s.tx_datagrams.load(), 0u);
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
  Bytes huge(node_->udp().mtu() + 50, 0x7f);
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

TEST(UdpTransport, ThreeNodesCastOverRealSockets_BatchedTx) {
  const std::vector<std::uint16_t> ports = free_ports(3);
  AddressBook book = AddressBook::parse(loopback_entry(1, ports[0]) +
                                       loopback_entry(2, ports[1]) +
                                       loopback_entry(3, ports[2]));
  NodeConfig cfg;
  std::vector<std::unique_ptr<NodeRuntime>> nodes;
  for (std::uint64_t id = 1; id <= 3; ++id) {
    nodes.push_back(std::make_unique<NodeRuntime>(book, Address{id}, cfg));
  }

  std::mutex mu;
  std::vector<std::vector<std::string>> got(3);
  std::vector<std::vector<View>> views(3);
  for (std::size_t i = 0; i < 3; ++i) {
    nodes[i]->endpoint().on_upcall([&mu, &got, &views, i](Group&, UpEvent& ev) {
      std::lock_guard lock(mu);
      if (ev.type == UpType::kCast) got[i].push_back(ev.msg.payload_string());
      if (ev.type == UpType::kView) views[i].push_back(ev.view);
    });
  }

  GroupId g{11};
  nodes[0]->endpoint().join(g);
  for (std::size_t i = 1; i < 3; ++i) {
    nodes[i]->endpoint().join(g, Address{1});
  }
  // Wait for the three-member view on every node.
  auto all_joined = [&] {
    std::lock_guard lock(mu);
    for (const auto& v : views) {
      if (v.empty() || v.back().size() != 3) return false;
    }
    return true;
  };
  for (int i = 0; i < 300 && !all_joined(); ++i) nodes[0]->run_for(10ms);
  ASSERT_TRUE(all_joined()) << "three-member view never formed";

  for (std::size_t i = 0; i < 3; ++i) {
    nodes[i]->endpoint().cast(
        g, Message::from_string("from-" + std::to_string(i + 1)));
  }
  auto all_delivered = [&] {
    std::lock_guard lock(mu);
    for (const auto& v : got) {
      if (v.size() != 3) return false;
    }
    return true;
  };
  for (int i = 0; i < 300 && !all_delivered(); ++i) nodes[0]->run_for(10ms);
  ASSERT_TRUE(all_delivered());

  // Each cast's two remote copies went through the wire as sendmmsg
  // batches.
  EXPECT_GE(nodes[0]->udp().stats().tx_batches.load(), 1u);
  EXPECT_GT(nodes[0]->udp().stats().tx_datagrams.load(), 0u);
  EXPECT_GT(nodes[1]->udp().stats().rx_datagrams.load(), 0u);
  for (auto& n : nodes) n->shutdown();
}

// On a bare COM stack (views installed by hand, so nothing else is on the
// wire) one cast among three nodes is exactly two datagrams: the sender's
// own copy is delivered without touching its socket.
TEST(UdpTransport, ThreeNodeCastSendsTwoDatagrams) {
  const std::vector<std::uint16_t> ports = free_ports(3);
  AddressBook book = AddressBook::parse(loopback_entry(1, ports[0]) +
                                       loopback_entry(2, ports[1]) +
                                       loopback_entry(3, ports[2]));
  NodeConfig cfg;
  cfg.spec = "COM";
  std::vector<std::unique_ptr<NodeRuntime>> nodes;
  for (std::uint64_t id = 1; id <= 3; ++id) {
    nodes.push_back(std::make_unique<NodeRuntime>(book, Address{id}, cfg));
  }
  std::mutex mu;
  std::vector<std::vector<std::string>> got(3);
  GroupId g{12};
  for (std::size_t i = 0; i < 3; ++i) {
    Endpoint& ep = nodes[i]->endpoint();
    ep.on_upcall([&mu, &got, i](Group&, UpEvent& ev) {
      std::lock_guard lock(mu);
      if (ev.type == UpType::kCast) got[i].push_back(ev.msg.payload_string());
    });
    ep.join(g);
    ep.install_view(g, {Address{1}, Address{2}, Address{3}});
  }
  nodes[0]->run_for(50ms);

  nodes[0]->endpoint().cast(g, Message::from_string("once"));
  auto all_delivered = [&] {
    std::lock_guard lock(mu);
    for (const auto& v : got) {
      if (v.size() != 1) return false;
    }
    return true;
  };
  ASSERT_TRUE(eventually(all_delivered));
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(got[i], std::vector<std::string>{"once"}) << "node " << i + 1;
  }
  for (auto& n : nodes) n->shutdown();
  EXPECT_EQ(nodes[0]->udp().stats().tx_datagrams.load(), 2u);
  EXPECT_EQ(nodes[0]->endpoint().stack().stats().datagrams_sent.load(), 2u);
  EXPECT_EQ(nodes[0]->udp().stats().rx_datagrams.load(), 0u);
}

}  // namespace
}  // namespace horus::net
