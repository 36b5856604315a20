// Stack composition mechanics: run-time assembly from spec strings,
// well-formedness enforcement at creation, the Section 10 compacted header
// region, the no-op-layer skip tables, stats and diagnostics (focus/dump).
#include <deque>

#include "../common/test_util.hpp"
#include "horus/layers/registry.hpp"

namespace horus::testing {
namespace {

/// Events one no-op layer instance saw: data (kCast/kSend) apart from
/// control, each way.
struct Visits {
  std::uint64_t data_down = 0, data_up = 0, ctl_down = 0, ctl_up = 0;
};

/// A no-op layer that counts the events reaching it. Skippable, it is NOP
/// (declares both skip flags); unskippable, it is PASS.
class CountingNoop final : public Layer {
 public:
  CountingNoop(const std::string& name, bool skippable, Visits& v) : v_(v) {
    info_.name = name;
    info_.spec.name = name;
    info_.spec.inherits = props::kAllProperties;
    info_.up_emits = 0;  // pure pass-through
    info_.skip_data_down = skippable;
    info_.skip_data_up = skippable;
  }
  const LayerInfo& info() const override { return info_; }
  void down(Group& g, DownEvent& ev) override {
    const bool data =
        ev.type == DownType::kCast || ev.type == DownType::kSend;
    ++(data ? v_.data_down : v_.ctl_down);
    pass_down(g, ev);
  }
  void up(Group& g, UpEvent& ev) override {
    const bool data = ev.type == UpType::kCast || ev.type == UpType::kSend;
    ++(data ? v_.data_up : v_.ctl_up);
    pass_up(g, ev);
  }

 private:
  LayerInfo info_;
  Visits& v_;
};

/// A stack_factory that builds NOP and PASS tokens as CountingNoops and
/// every other token through the registry. `made` keeps one entry per
/// instance in creation order: endpoint by endpoint, top to bottom. Must
/// outlive the HorusSystem it configures.
struct NoopFactory {
  std::deque<std::pair<std::string, Visits>> made;

  HorusSystem::Options options() {
    HorusSystem::Options o;
    o.net.loss = 0.0;
    o.stack_factory = [this](const std::string& spec) {
      std::vector<std::unique_ptr<Layer>> out;
      for (const std::string& name : layers::split_spec(spec)) {
        if (name == "NOP" || name == "PASS") {
          Visits& v = made.emplace_back(name, Visits{}).second;
          out.push_back(std::make_unique<CountingNoop>(name, name == "NOP", v));
        } else {
          out.push_back(layers::make_layer(name));
        }
      }
      return out;
    };
    return o;
  }
};

TEST(StackBuild, IllFormedStackThrowsAtCreation) {
  HorusSystem sys;
  // FRAG directly over COM: FRAG's FIFO requirement is unsatisfied. The
  // error must be raised when the endpoint is created, not at runtime.
  EXPECT_THROW(sys.create_endpoint("FRAG:COM"), std::invalid_argument);
}

TEST(StackBuild, UnknownLayerNameThrows) {
  HorusSystem sys;
  EXPECT_THROW(sys.create_endpoint("NOSUCH:COM"), std::invalid_argument);
}

TEST(StackBuild, TransportMustBeBottom) {
  HorusSystem sys;
  EXPECT_THROW(sys.create_endpoint("COM:NAK"), std::invalid_argument);
  EXPECT_THROW(sys.create_endpoint("NAK"), std::invalid_argument);
}

TEST(StackBuild, EmptySpecThrows) {
  HorusSystem sys;
  EXPECT_THROW(sys.create_endpoint(""), std::invalid_argument);
}

TEST(StackBuild, ProvidedPropertiesExposed) {
  HorusSystem sys;
  auto& ep = sys.create_endpoint("TOTAL:MBRSHIP:FRAG:NAK:COM");
  props::PropertySet p = ep.stack().provided_properties();
  EXPECT_TRUE(props::has(p, props::Property::kTotalOrder));
  EXPECT_TRUE(props::has(p, props::Property::kVirtualSync));
  EXPECT_FALSE(props::has(p, props::Property::kBestEffort));
}

TEST(StackBuild, FindLayerByName) {
  HorusSystem sys;
  auto& ep = sys.create_endpoint("MBRSHIP:FRAG:NAK:COM");
  EXPECT_NE(ep.stack().find_layer("FRAG"), nullptr);
  EXPECT_NE(ep.stack().find_layer("COM"), nullptr);
  EXPECT_EQ(ep.stack().find_layer("TOTAL"), nullptr);
}

// MBRSHIP(4+32+32) + FRAG(1+1) + NAK(3+1+32+32) + COM(64+1) bits; the group
// id is endpoint-level framing, not a COM field.
constexpr std::size_t kMfncRegionBits =
    (4 + 32 + 32) + (1 + 1) + (3 + 1 + 32 + 32) + (64 + 1);

TEST(StackBuild, RegionBytesCompacted) {
  HorusSystem sys;
  auto& ep = sys.create_endpoint("MBRSHIP:FRAG:NAK:COM");
  EXPECT_EQ(ep.stack().region_bytes(), (kMfncRegionBits + 7) / 8);
}

TEST(CodecTest, FullStackDelivery) {
  World w(3, "TOTAL:MBRSHIP:FRAG:NAK:COM");
  w.form_group();
  ASSERT_TRUE(w.converged());
  for (int i = 0; i < 5; ++i) {
    w.eps[static_cast<std::size_t>(i % 3)]->cast(
        kGroup, Message::from_string("m" + std::to_string(i)));
  }
  w.sys.run_for(3 * sim::kSecond);
  auto ref = w.logs[0].all_cast_payloads();
  EXPECT_EQ(ref.size(), 5u);
  for (int i = 1; i < 3; ++i) {
    EXPECT_EQ(w.logs[static_cast<std::size_t>(i)].all_cast_payloads(), ref);
  }
}

TEST(CodecTest, CompactSavesWireBytes) {
  // No layer of this stack declares a variable extension, so every
  // datagram -- data or control -- carries exactly the frame prefix, the
  // compacted region and COM's CRC trailer as header bytes (Section 10,
  // fix 3).
  HorusSystem::Options opts;
  opts.net.loss = 0.0;
  World w(2, "MBRSHIP:FRAG:NAK:COM", opts);
  w.form_group();
  w.eps[0]->stack().reset_stats();
  for (int i = 0; i < 50; ++i) {
    w.eps[0]->cast(kGroup, Message::from_string("0123456789"));
  }
  w.sys.run_for(sim::kSecond);
  const StackStats& s = w.eps[0]->stack().stats();
  const std::size_t per_dgram =
      Stack::kFramePrefix + (kMfncRegionBits + 7) / 8 + 4;
  EXPECT_EQ(per_dgram, 40u);
  ASSERT_GT(s.datagrams_sent.load(), 50u);
  EXPECT_EQ(s.header_bytes_sent.load(), s.datagrams_sent.load() * per_dgram);
}

constexpr std::size_t kSkipCasts = 10;

/// Member 0 casts kSkipCasts messages; returns what member 1 delivered.
std::vector<std::string> cast_through(World& w) {
  for (std::size_t i = 0; i < kSkipCasts; ++i) {
    w.eps[0]->cast(kGroup, Message::from_string("m" + std::to_string(i)));
  }
  w.sys.run_for(sim::kSecond);
  return w.logs[1].casts_from(w.eps[0]->address());
}

TEST(StackSkip, NopLayersAreSkippedOnDataPath) {
  // A tower of NOP layers must not change behaviour; with skipping enabled
  // the data path jumps straight across them: no NOP sees a data event,
  // while control events (the join, the VIEW) still visit every one.
  NoopFactory f;
  World w(2, "NOP:NOP:NOP:MBRSHIP:FRAG:NAK:COM", f.options());
  w.form_group();
  ASSERT_TRUE(w.converged());
  EXPECT_EQ(cast_through(w).size(), kSkipCasts);
  ASSERT_EQ(f.made.size(), 6u);
  for (const auto& [name, v] : f.made) {
    EXPECT_EQ(v.data_down, 0u);
    EXPECT_EQ(v.data_up, 0u);
    EXPECT_GT(v.ctl_down, 0u);
    EXPECT_GT(v.ctl_up, 0u);
  }
}

TEST(StackSkip, DisabledSkippingStillCorrect) {
  // PASS is never skipped: the data path still visits a non-skippable
  // layer between skipped ones -- every cast at the sender on the way
  // down and at the receiver on the way up -- while the NOP above it
  // still sees none.
  NoopFactory f;
  World w(2, "NOP:PASS:MBRSHIP:FRAG:NAK:COM", f.options());
  w.form_group();
  ASSERT_TRUE(w.converged());
  EXPECT_EQ(cast_through(w).size(), kSkipCasts);
  // Creation order: member 0's NOP and PASS, then member 1's.
  ASSERT_EQ(f.made.size(), 4u);
  const Visits& pass0 = f.made[1].second;
  const Visits& pass1 = f.made[3].second;
  EXPECT_EQ(pass0.data_down, kSkipCasts);
  EXPECT_EQ(pass1.data_up, kSkipCasts);
  for (const auto& [name, v] : f.made) {
    if (name == "NOP") {
      EXPECT_EQ(v.data_down, 0u);
      EXPECT_EQ(v.data_up, 0u);
    }
    EXPECT_GT(v.ctl_down, 0u);
    EXPECT_GT(v.ctl_up, 0u);
  }
}

TEST(StackStats, CountsTraffic) {
  HorusSystem::Options opts;
  opts.net.loss = 0.0;
  World w(2, "MBRSHIP:FRAG:NAK:COM", opts);
  w.form_group();
  const StackStats& s = w.eps[0]->stack().stats();
  EXPECT_GT(s.datagrams_sent, 0u);
  EXPECT_GT(s.datagrams_received, 0u);
  EXPECT_GT(s.wire_bytes_sent, 0u);
  EXPECT_GT(s.upcalls_to_app, 0u);  // at least the VIEW upcalls
}

// A timer fires once, so Stack::schedule hands the layer's callback on by
// move from the scheduler event into the group task: no fire copies it.
TEST(StackTimers, CallbackIsMovedNeverCopied) {
  struct CountsCopies {
    int* copies;
    int* fired;
    CountsCopies(int* c, int* f) : copies(c), fired(f) {}
    CountsCopies(const CountsCopies& o) : copies(o.copies), fired(o.fired) {
      ++*copies;
    }
    CountsCopies(CountsCopies&&) = default;
    void operator()(Group&) const { ++*fired; }
  };
  World w(1, "MBRSHIP:FRAG:NAK:COM");
  w.form_group();
  int copies = 0;
  int fired = 0;
  for (int i = 0; i < 3; ++i) {
    w.eps[0]->stack().schedule(kGroup, 10 * sim::kMillisecond,
                               CountsCopies(&copies, &fired));
  }
  w.sys.run_for(50 * sim::kMillisecond);
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(copies, 0) << "a timer fire copied the layer's callback";
}

TEST(StackDump, FocusAndDumpReportLayerState) {
  World w(2, "MBRSHIP:FRAG:NAK:COM");
  w.form_group();
  std::string all = w.eps[0]->dump(kGroup, "");
  EXPECT_NE(all.find("MBRSHIP:"), std::string::npos);
  EXPECT_NE(all.find("NAK:"), std::string::npos);
  std::string one = w.eps[0]->dump(kGroup, "FRAG");
  EXPECT_NE(one.find("FRAG:"), std::string::npos);
  EXPECT_EQ(one.find("NAK:"), std::string::npos);
  EXPECT_NE(w.eps[0]->dump(kGroup, "BOGUS").find("no such layer"),
            std::string::npos);
}

TEST(StackMulti, TwoGroupsOneEndpointIsolated) {
  // "A single layer may be used concurrently by many groups ... each
  // instance has its own state."
  HorusSystem::Options opts;
  opts.net.loss = 0.0;
  World w(2, "MBRSHIP:FRAG:NAK:COM", opts);
  GroupId g1{42}, g2{77};
  w.eps[0]->join(g1);
  w.eps[0]->join(g2);
  w.sys.run_for(100 * sim::kMillisecond);
  w.eps[1]->join(g1, w.eps[0]->address());
  w.eps[1]->join(g2, w.eps[0]->address());
  w.sys.run_for(2 * sim::kSecond);
  std::vector<std::pair<std::uint64_t, std::string>> got;
  w.eps[1]->on_upcall([&](Group& g, UpEvent& ev) {
    if (ev.type == UpType::kCast) got.emplace_back(g.gid().id, ev.msg.payload_string());
  });
  w.eps[0]->cast(g1, Message::from_string("to-g1"));
  w.eps[0]->cast(g2, Message::from_string("to-g2"));
  w.sys.run_for(sim::kSecond);
  ASSERT_EQ(got.size(), 2u);
  for (auto& [gid, payload] : got) {
    if (gid == 42) EXPECT_EQ(payload, "to-g1");
    if (gid == 77) EXPECT_EQ(payload, "to-g2");
  }
}

TEST(StackMulti, MismatchedPeerStacksFailSafe) {
  // Two members of one group running INCOMPATIBLE stacks (a deployment
  // mistake): frames misparse and are dropped -- no crash, no garbled
  // delivery to the application.
  HorusSystem::Options opts;
  opts.net.loss = 0.0;
  HorusSystem sys(opts);
  auto& a = sys.create_endpoint("FRAG:NAK:COM");
  auto& b = sys.create_endpoint("NAK:COM");  // missing FRAG: wrong pops
  AppLog lb;
  lb.attach(b);
  std::vector<Address> members = {a.address(), b.address()};
  for (Endpoint* ep : {&a, &b}) {
    ep->join(kGroup);
    ep->install_view(kGroup, members);
  }
  sys.run_for(10 * sim::kMillisecond);
  for (int i = 0; i < 20; ++i) {
    a.cast(kGroup, Message::from_string("structured-payload"));
  }
  sys.run_for(3 * sim::kSecond);
  // Whatever b interpreted, nothing may look like a clean delivery of a
  // message IT could not have parsed correctly -- and nothing crashed.
  for (const auto& d : lb.casts) {
    // b's NAK pops 16 bytes that were really FRAG+payload bytes; the
    // payload it reconstructs cannot equal the original.
    EXPECT_NE(d.payload, "structured-payload");
  }
  SUCCEED();
}

TEST(StackMulti, DifferentStacksInterope) {
  // Two endpoints can run different (wire-compatible) upper layers as long
  // as the shared lower stack matches... here both run identical stacks
  // but with an extra NOP on one side, which adds no header.
  NoopFactory f;
  HorusSystem sys(f.options());
  auto& a = sys.create_endpoint("NOP:MBRSHIP:FRAG:NAK:COM");
  auto& b = sys.create_endpoint("MBRSHIP:FRAG:NAK:COM");
  AppLog la, lb;
  la.attach(a);
  lb.attach(b);
  a.join(kGroup);
  sys.run_for(100 * sim::kMillisecond);
  b.join(kGroup, a.address());
  sys.run_for(2 * sim::kSecond);
  ASSERT_FALSE(lb.views.empty());
  a.cast(kGroup, Message::from_string("mixed"));
  sys.run_for(sim::kSecond);
  EXPECT_EQ(lb.casts_from(a.address()).size(), 1u);
}

}  // namespace
}  // namespace horus::testing
