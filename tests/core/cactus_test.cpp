// Cactus stacks (Section 4): "a process is allowed to put multiple
// endpoints on a single base endpoint. This way, a tree or cactus stack of
// protocols can be built." One endpoint, several protocol stacks sharing
// its address and transport, each serving different groups with different
// guarantees.
#include "../common/test_util.hpp"

namespace horus::testing {
namespace {

constexpr GroupId kOrdered{21};
constexpr GroupId kCheap{22};

TEST(Cactus, TwoStacksOneEndpoint) {
  HorusSystem::Options o;
  o.net.loss = 0.0;
  HorusSystem sys(o);
  // Base stack: full virtual synchrony + total order.
  auto& a = sys.create_endpoint("TOTAL:MBRSHIP:FRAG:NAK:COM");
  auto& b = sys.create_endpoint("TOTAL:MBRSHIP:FRAG:NAK:COM");
  // A second, cheaper stack branching off each endpoint's base.
  Stack& a_cheap = sys.add_stack(a, "NAK:COM");
  Stack& b_cheap = sys.add_stack(b, "NAK:COM");

  std::vector<std::pair<std::uint64_t, std::string>> got_b;
  b.on_upcall([&](Group& g, UpEvent& ev) {
    if (ev.type == UpType::kCast) {
      got_b.emplace_back(g.gid().id, ev.msg.payload_string());
    }
  });

  // Group 1 on the ordered stack (membership-managed views).
  a.join(kOrdered);
  sys.run_for(100 * sim::kMillisecond);
  b.join(kOrdered, a.address());
  sys.run_for(2 * sim::kSecond);

  // Group 2 on the cheap stack (app-managed destination set).
  a.join_on(a_cheap, kCheap);
  b.join_on(b_cheap, kCheap);
  a.install_view(kCheap, {a.address(), b.address()});
  b.install_view(kCheap, {a.address(), b.address()});
  sys.run_for(100 * sim::kMillisecond);

  a.cast(kOrdered, Message::from_string("via TOTAL"));
  a.cast(kCheap, Message::from_string("via NAK"));
  sys.run_for(2 * sim::kSecond);

  ASSERT_EQ(got_b.size(), 2u);
  bool saw_ordered = false, saw_cheap = false;
  for (auto& [gid, payload] : got_b) {
    if (gid == kOrdered.id) {
      saw_ordered = true;
      EXPECT_EQ(payload, "via TOTAL");
    }
    if (gid == kCheap.id) {
      saw_cheap = true;
      EXPECT_EQ(payload, "via NAK");
    }
  }
  EXPECT_TRUE(saw_ordered);
  EXPECT_TRUE(saw_cheap);
}

TEST(Cactus, StacksHaveIndependentProperties) {
  HorusSystem sys;
  auto& ep = sys.create_endpoint("TOTAL:MBRSHIP:FRAG:NAK:COM");
  Stack& cheap = sys.add_stack(ep, "COM");
  EXPECT_TRUE(props::has(ep.stack().provided_properties(),
                         props::Property::kTotalOrder));
  EXPECT_FALSE(props::has(cheap.provided_properties(),
                          props::Property::kTotalOrder));
  EXPECT_TRUE(props::has(cheap.provided_properties(),
                         props::Property::kSourceAddress));
}

TEST(Cactus, IllFormedBranchRejected) {
  HorusSystem sys;
  auto& ep = sys.create_endpoint("MBRSHIP:FRAG:NAK:COM");
  EXPECT_THROW(sys.add_stack(ep, "FRAG:COM"), std::invalid_argument);
}

TEST(Cactus, DifferentLayoutsPerBranchInterop) {
  // Each branch is its own stack with its own compacted header layout; two
  // endpoints with multiple branches each still interoperate
  // branch-to-branch.
  HorusSystem::Options o;
  o.net.loss = 0.1;
  HorusSystem sys(o);
  auto& a = sys.create_endpoint("MBRSHIP:FRAG:NAK:COM");
  auto& b = sys.create_endpoint("MBRSHIP:FRAG:NAK:COM");
  Stack& a2 = sys.add_stack(a, "CAUSAL:MBRSHIP:FRAG:NAK:COM");
  Stack& b2 = sys.add_stack(b, "CAUSAL:MBRSHIP:FRAG:NAK:COM");
  int causal_got = 0;
  b.on_upcall([&](Group& g, UpEvent& ev) {
    if (ev.type == UpType::kCast && g.gid() == kCheap) ++causal_got;
  });
  a.join_on(a2, kCheap);
  sys.run_for(100 * sim::kMillisecond);
  b.join_on(b2, kCheap, a.address());
  sys.run_for(2 * sim::kSecond);
  for (int i = 0; i < 10; ++i) {
    a.cast(kCheap, Message::from_string("c" + std::to_string(i)));
  }
  sys.run_for(3 * sim::kSecond);
  EXPECT_EQ(causal_got, 10);
}

}  // namespace
}  // namespace horus::testing
