// Stack composition mechanics: run-time assembly from spec strings,
// well-formedness enforcement at creation, the Section 10 compacted header
// region, the no-op-layer skip tables, stats and diagnostics (focus/dump).
#include "../common/test_util.hpp"

namespace horus::testing {
namespace {

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

TEST(StackSkip, NopLayersAreSkippedOnDataPath) {
  // A tower of NOP layers must not change behaviour; with skipping enabled
  // the data path jumps straight across them.
  HorusSystem::Options opts;
  opts.net.loss = 0.0;
  World w(2, "NOP:NOP:NOP:MBRSHIP:FRAG:NAK:COM", opts);
  w.form_group();
  ASSERT_TRUE(w.converged());
  w.eps[0]->cast(kGroup, Message::from_string("through the nops"));
  w.sys.run_for(sim::kSecond);
  auto got = w.logs[1].casts_from(w.eps[0]->address());
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], "through the nops");
}

TEST(StackSkip, DisabledSkippingStillCorrect) {
  HorusSystem::Options opts;
  opts.net.loss = 0.0;
  // PASS is never skipped: the data path still visits a non-skippable
  // layer between skipped ones.
  World w(2, "NOP:PASS:MBRSHIP:FRAG:NAK:COM", opts);
  w.form_group();
  w.eps[0]->cast(kGroup, Message::from_string("slow path"));
  w.sys.run_for(sim::kSecond);
  EXPECT_EQ(w.logs[1].casts_from(w.eps[0]->address()).size(), 1u);
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
  HorusSystem::Options opts;
  opts.net.loss = 0.0;
  HorusSystem sys(opts);
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
