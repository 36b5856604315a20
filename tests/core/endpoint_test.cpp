// Endpoint lifecycle mechanics: group creation, destroy/crash semantics,
// multiple concurrent groups, handler behaviour.
#include <algorithm>

#include "../common/test_util.hpp"

namespace horus::testing {
namespace {

HorusSystem::Options quiet() {
  HorusSystem::Options o;
  o.net.loss = 0.0;
  return o;
}

TEST(Endpoint, AddressesAreUniqueAndStable) {
  HorusSystem sys;
  auto& a = sys.create_endpoint("COM");
  auto& b = sys.create_endpoint("COM");
  EXPECT_NE(a.address(), b.address());
  EXPECT_TRUE(a.address().valid());
}

TEST(Endpoint, FindGroupOnlyAfterJoin) {
  HorusSystem sys;
  auto& a = sys.create_endpoint("MBRSHIP:FRAG:NAK:COM");
  EXPECT_EQ(a.find_group(kGroup), nullptr);
  EXPECT_THROW(a.group(kGroup), std::out_of_range);
  a.join(kGroup);
  EXPECT_NE(a.find_group(kGroup), nullptr);
  EXPECT_EQ(a.group(kGroup).gid(), kGroup);
}

TEST(Endpoint, DowncallsOnUnjoinedGroupAreNoOps) {
  HorusSystem sys(quiet());
  auto& a = sys.create_endpoint("MBRSHIP:FRAG:NAK:COM");
  // None of these may crash or create state.
  a.cast(kGroup, Message::from_string("x"));
  a.leave(kGroup);
  a.flush(kGroup, {});
  a.ack(kGroup, a.address(), 1);
  sys.run_for(100 * sim::kMillisecond);
  EXPECT_EQ(a.find_group(kGroup), nullptr);
}

// A datagram for a group this endpoint never joined is dropped by the
// demux before any group task is posted: no dispatch, no group, no upcall.
TEST(Endpoint, NonMemberDatagramPostsNoTask) {
  HorusSystem sys(quiet());
  auto& a = sys.create_endpoint("NAK:COM");
  auto& b = sys.create_endpoint("NAK:COM");
  // Only a joins; its view names b, so its casts reach b's demux.
  a.join(kGroup);
  a.install_view(kGroup, {a.address(), b.address()});
  sys.run_for(10 * sim::kMillisecond);

  auto* bx = dynamic_cast<runtime::GroupExecutor*>(&b.executor());
  ASSERT_NE(bx, nullptr);
  const std::uint64_t tasks_before = bx->executed();
  const std::uint64_t delivered_before = sys.net().stats().delivered;
  int upcalls = 0;
  b.on_upcall([&upcalls](Group&, UpEvent&) { ++upcalls; });
  for (int i = 0; i < 3; ++i) {
    a.cast(kGroup, Message::from_string("not for b " + std::to_string(i)));
  }
  sys.run_for(sim::kSecond);

  ASSERT_GT(sys.net().stats().delivered, delivered_before)
      << "no datagram reached b, so the drop was never exercised";
  EXPECT_EQ(bx->executed(), tasks_before);
  EXPECT_EQ(upcalls, 0);
  EXPECT_EQ(b.find_group(kGroup), nullptr);
}

TEST(Endpoint, DestroyStopsAllActivity) {
  World w(2, "MBRSHIP:FRAG:NAK:COM", quiet());
  w.form_group();
  std::uint64_t events_before = w.sys.net().stats().sent;
  w.eps[0]->destroy();
  w.eps[1]->destroy();
  // Drain in-flight work, then confirm quiescence: no timers keep firing.
  w.sys.run_for(sim::kSecond);
  std::uint64_t mid = w.sys.net().stats().sent;
  w.sys.run_for(5 * sim::kSecond);
  EXPECT_EQ(w.sys.net().stats().sent, mid)
      << "destroyed endpoints are still transmitting";
  (void)events_before;
}

/// A top layer that records the type of every downcall entering the stack.
class DownProbe final : public Layer {
 public:
  explicit DownProbe(std::vector<DownType>& seen) : seen_(seen) {
    info_.name = "PROBE";
    info_.spec.name = "PROBE";
    info_.spec.inherits = props::kAllProperties;
  }
  const LayerInfo& info() const override { return info_; }
  void down(Group& g, DownEvent& ev) override {
    seen_.push_back(ev.type);
    pass_down(g, ev);
  }

 private:
  LayerInfo info_;
  std::vector<DownType>& seen_;
};

// destroy() called inside a group task (here the VIEW upcall; on a node
// loop, every call) must still send DESTROY down before the endpoint stops.
TEST(Endpoint, DestroyFromAnUpcallSendsDestroyDown) {
  std::vector<DownType> seen;
  HorusSystem::Options opts = quiet();
  opts.stack_factory = [&seen](const std::string& spec) {
    std::vector<std::unique_ptr<Layer>> layers;
    layers.push_back(std::make_unique<DownProbe>(seen));
    for (auto& l : layers::make_stack(spec)) layers.push_back(std::move(l));
    return layers;
  };
  HorusSystem sys(opts);
  Endpoint& ep = sys.create_endpoint("MBRSHIP:FRAG:NAK:COM");
  ep.on_upcall([&ep](Group&, UpEvent& ev) {
    if (ev.type == UpType::kView) ep.destroy();
  });
  ep.join(kGroup);
  sys.run_for(sim::kSecond);
  EXPECT_NE(std::find(seen.begin(), seen.end(), DownType::kDestroy),
            seen.end())
      << "DESTROY never reached the top layer";
  EXPECT_TRUE(ep.crashed());
  EXPECT_TRUE(ep.group(kGroup).destroyed());
}

TEST(Endpoint, CrashedEndpointIgnoresDowncalls) {
  World w(2, "MBRSHIP:FRAG:NAK:COM", quiet());
  w.form_group();
  w.sys.crash(*w.eps[0]);
  w.eps[0]->cast(kGroup, Message::from_string("ghost"));
  w.sys.run_for(2 * sim::kSecond);
  for (const auto& d : w.logs[1].casts) EXPECT_NE(d.payload, "ghost");
}

TEST(Endpoint, HandlerReplacementTakesEffect) {
  World w(2, "MBRSHIP:FRAG:NAK:COM", quiet());
  w.form_group();
  int first = 0, second = 0;
  w.eps[1]->on_upcall([&](Group&, UpEvent& ev) {
    if (ev.type == UpType::kCast) ++first;
  });
  w.eps[0]->cast(kGroup, Message::from_string("1"));
  w.sys.run_for(sim::kSecond);
  w.eps[1]->on_upcall([&](Group&, UpEvent& ev) {
    if (ev.type == UpType::kCast) ++second;
  });
  w.eps[0]->cast(kGroup, Message::from_string("2"));
  w.sys.run_for(sim::kSecond);
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 1);
}

TEST(Endpoint, ManyGroupsManyStacksCoexist) {
  HorusSystem sys(quiet());
  auto& a = sys.create_endpoint("MBRSHIP:FRAG:NAK:COM");
  // Five groups on one endpoint, all bootstrapped.
  for (std::uint64_t gid = 10; gid < 15; ++gid) {
    a.join(GroupId{gid});
  }
  sys.run_for(sim::kSecond);
  for (std::uint64_t gid = 10; gid < 15; ++gid) {
    ASSERT_NE(a.find_group(GroupId{gid}), nullptr) << gid;
    EXPECT_EQ(a.group(GroupId{gid}).view().size(), 1u) << gid;
  }
}

TEST(Endpoint, InstallViewRequiresNoMembership) {
  HorusSystem sys(quiet());
  auto& a = sys.create_endpoint("NAK:COM");
  auto& b = sys.create_endpoint("NAK:COM");
  int got = 0;
  b.on_upcall([&](Group&, UpEvent& ev) {
    if (ev.type == UpType::kCast) ++got;
  });
  a.join(kGroup);
  b.join(kGroup);
  a.install_view(kGroup, {a.address(), b.address()});
  b.install_view(kGroup, {a.address(), b.address()});
  sys.run_for(10 * sim::kMillisecond);
  a.cast(kGroup, Message::from_string("direct"));
  sys.run_for(sim::kSecond);
  EXPECT_EQ(got, 1);
}

}  // namespace
}  // namespace horus::testing
