// The content-transform layers: CHKSUM, SIGN, ENCRYPT, COMPRESS -- each is
// "just another layer", insertable anywhere, in any combination.
#include "../common/test_util.hpp"

namespace horus::testing {
namespace {

struct XWorld : World {
  XWorld(std::size_t n, const std::string& spec, HorusSystem::Options o = {})
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

HorusSystem::Options quiet() {
  HorusSystem::Options o;
  o.net.loss = 0.0;
  return o;
}

TEST(Chksum, PassesCleanTraffic) {
  XWorld w(2, "NAK:CHKSUM:RAWCOM", quiet());
  for (int i = 0; i < 10; ++i) {
    w.eps[0]->cast(kGroup, Message::from_string("ok" + std::to_string(i)));
  }
  w.sys.run_for(sim::kSecond);
  EXPECT_EQ(w.logs[1].casts_from(w.eps[0]->address()).size(), 10u);
}

TEST(Chksum, DropsCorruptionOverRawCom) {
  HorusSystem::Options o = quiet();
  o.net.corrupt = 1.0;
  XWorld w(2, "CHKSUM:RAWCOM", o);
  for (int i = 0; i < 30; ++i) {
    w.eps[0]->cast(kGroup, Message::from_string("garble-me-garble-me-please"));
  }
  w.sys.run_for(sim::kSecond);
  // Any cast that still arrives must be byte-exact; corrupted ones are
  // dropped. (Corruption may land in the COM header too, in which case
  // RAWCOM mis-routes and drops -- either way nothing garbled surfaces.)
  for (const auto& d : w.logs[1].casts) {
    EXPECT_EQ(d.payload, "garble-me-garble-me-please");
  }
  EXPECT_LT(w.logs[1].casts.size(), 30u);
}

TEST(Chksum, RecoveredByNakAbove) {
  // The full composition story: NAK above CHKSUM sees corrupted datagrams
  // as losses and repairs them -- reliable FIFO over a garbling network
  // without COM's built-in checksum.
  HorusSystem::Options o = quiet();
  o.net.corrupt = 0.3;
  XWorld w(2, "NAK:CHKSUM:RAWCOM", o);
  for (int i = 0; i < 50; ++i) {
    w.eps[0]->cast(kGroup, Message::from_string(std::to_string(i)));
  }
  w.sys.run_for(10 * sim::kSecond);
  auto got = w.logs[1].casts_from(w.eps[0]->address());
  ASSERT_EQ(got.size(), 50u);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(got[static_cast<std::size_t>(i)], std::to_string(i));
  }
}

TEST(Sign, AuthenticTrafficFlows) {
  XWorld w(2, "SIGN:NAK:COM", quiet());
  w.eps[0]->cast(kGroup, Message::from_string("signed"));
  w.sys.run_for(sim::kSecond);
  EXPECT_EQ(w.logs[1].casts_from(w.eps[0]->address()).size(), 1u);
}

TEST(Sign, IntruderWithWrongKeyRejected) {
  // Two systems-worth of endpoints on one network; the intruder runs the
  // same stack but a different group key. Its casts must never surface at
  // the legitimate member.
  HorusSystem::Options good = quiet();
  good.stack.key = Key{111, 222};
  HorusSystem sys(good);
  auto& a = sys.create_endpoint("SIGN:NAK:COM");
  auto& b = sys.create_endpoint("SIGN:NAK:COM");
  AppLog la, lb;
  la.attach(a);
  lb.attach(b);
  std::vector<Address> members = {a.address(), b.address()};
  for (Endpoint* ep : {&a, &b}) {
    ep->join(kGroup);
    ep->install_view(kGroup, members);
  }
  sys.run_for(10 * sim::kMillisecond);
  a.cast(kGroup, Message::from_string("legit"));
  sys.run_for(sim::kSecond);
  ASSERT_EQ(lb.casts.size(), 1u);

  // The intruder: same topology, different key, impersonating a's view.
  HorusSystem::Options evil = quiet();
  evil.stack.key = Key{999, 999};
  // (Same network is required for a real injection test; we emulate the
  // intruder by re-keying endpoint a and showing b now rejects it.)
  sys.config().key = Key{999, 999};
  // New endpoints pick up the changed config; rebuild a sender.
  auto& mallory = sys.create_endpoint("SIGN:NAK:COM");
  mallory.join(kGroup);
  mallory.install_view(kGroup, {mallory.address(), b.address()});
  sys.run_for(10 * sim::kMillisecond);
  mallory.cast(kGroup, Message::from_string("forged"));
  sys.run_for(sim::kSecond);
  for (const auto& d : lb.casts) EXPECT_NE(d.payload, "forged");
}

TEST(Encrypt, RoundTripsThroughStack) {
  XWorld w(2, "ENCRYPT:NAK:COM", quiet());
  w.eps[0]->cast(kGroup, Message::from_string("private business"));
  w.sys.run_for(sim::kSecond);
  auto got = w.logs[1].casts_from(w.eps[0]->address());
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], "private business");
}

TEST(Encrypt, EavesdropperSeesOnlyCiphertext) {
  // A passive eavesdropper: an endpoint running a bare RAWCOM stack that
  // is included in the sender's destination view. It receives the raw
  // datagram content above COM -- with ENCRYPT in the sender's stack that
  // content must not contain the plaintext; without it, it does.
  auto snoop = [](const std::string& sender_stack, const std::string& secret) {
    HorusSystem::Options o = quiet();
    HorusSystem sys(o);
    auto& alice = sys.create_endpoint(sender_stack);
    auto& eve = sys.create_endpoint("RAWCOM");
    std::string captured;
    eve.on_upcall([&](Group&, UpEvent& ev) {
      if (ev.type == UpType::kCast || ev.type == UpType::kSend) {
        captured += ev.msg.payload_string();
      }
    });
    alice.join(kGroup);
    alice.install_view(kGroup, {alice.address(), eve.address()});
    eve.join(kGroup);
    sys.run_for(10 * sim::kMillisecond);
    alice.cast(kGroup, Message::from_string(secret));
    sys.run_for(sim::kSecond);
    return captured;
  };
  const std::string secret = "TOPSECRET-TOPSECRET-TOPSECRET";
  std::string with = snoop("NNAK:ENCRYPT:CHKSUM:RAWCOM", secret);
  EXPECT_EQ(with.find(secret), std::string::npos)
      << "plaintext leaked onto the wire despite ENCRYPT";
  std::string without = snoop("NNAK:CHKSUM:RAWCOM", secret);
  EXPECT_NE(without.find(secret), std::string::npos)
      << "control: without ENCRYPT the plaintext is visible";
}

TEST(Compress, RoundTripsCompressible) {
  XWorld w(2, "COMPRESS:FRAG:NAK:COM", quiet());
  std::string body(5'000, 'z');
  w.eps[0]->cast(kGroup, Message::from_payload(to_bytes(body)));
  w.sys.run_for(2 * sim::kSecond);
  auto got = w.logs[1].casts_from(w.eps[0]->address());
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], body);
}

TEST(Compress, SavesWireBytesOnCompressibleData) {
  // The cast's own wire bytes: a run with the cast less the same run idle,
  // so the status gossip both runs send cancels out.
  auto cast_wire_bytes = [](const std::string& spec) {
    auto run = [&spec](bool cast) {
      XWorld w(2, spec, quiet());
      std::string body(4'000, 'q');
      w.eps[0]->stack().reset_stats();
      if (cast) w.eps[0]->cast(kGroup, Message::from_payload(to_bytes(body)));
      w.sys.run_for(2 * sim::kSecond);
      return w.eps[0]->stack().stats().wire_bytes_sent.load();
    };
    const std::uint64_t busy = run(true);
    const std::uint64_t idle = run(false);
    EXPECT_GT(busy, idle) << spec;
    return busy - idle;
  };
  std::uint64_t with = cast_wire_bytes("COMPRESS:FRAG:NAK:COM");
  std::uint64_t without = cast_wire_bytes("FRAG:NAK:COM");
  EXPECT_LT(with, without / 2) << "compression should shrink the wire volume";
}

TEST(Compress, IncompressibleFallsThrough) {
  XWorld w(2, "COMPRESS:FRAG:NAK:COM", quiet());
  Rng rng(5);
  Bytes noise(3'000, 0);
  for (auto& b : noise) b = static_cast<std::uint8_t>(rng.next_u64());
  w.eps[0]->cast(kGroup, Message::from_payload(Bytes(noise)));
  w.sys.run_for(2 * sim::kSecond);
  ASSERT_EQ(w.logs[1].casts.size(), 1u);
  EXPECT_EQ(to_bytes(w.logs[1].casts[0].payload), noise);
}

TEST(Combined, FullSecurityStackComposes) {
  // Everything at once: compression over encryption over signing over
  // reliable FIFO -- the LEGO claim.
  XWorld w(2, "COMPRESS:ENCRYPT:SIGN:FRAG:NAK:COM", quiet());
  std::string body = "attack at dawn; bring " + std::string(2000, 'x');
  w.eps[0]->cast(kGroup, Message::from_payload(to_bytes(body)));
  w.sys.run_for(2 * sim::kSecond);
  auto got = w.logs[1].casts_from(w.eps[0]->address());
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], body);
}

TEST(Combined, TransformsUnderLossAndCorruption) {
  HorusSystem::Options o = quiet();
  o.net.loss = 0.15;
  o.net.corrupt = 0.1;
  XWorld w(2, "COMPRESS:ENCRYPT:SIGN:NAK:CHKSUM:RAWCOM", o);
  for (int i = 0; i < 25; ++i) {
    w.eps[0]->cast(kGroup, Message::from_string("n=" + std::to_string(i)));
  }
  w.sys.run_for(15 * sim::kSecond);
  auto got = w.logs[1].casts_from(w.eps[0]->address());
  ASSERT_EQ(got.size(), 25u);
  for (int i = 0; i < 25; ++i) {
    EXPECT_EQ(got[static_cast<std::size_t>(i)], "n=" + std::to_string(i));
  }
}

}  // namespace
}  // namespace horus::testing
