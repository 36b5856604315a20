// Frames are a contract with the peer, not an implementation detail: a
// change to how messages are built must not move a single byte on the
// wire. Each case runs a fixed-seed simulated world over one stack, hashes
// every datagram the network delivers (in delivery order, with its source
// and destination; a member's own copies never reach the network), and
// compares the hash with a constant recorded from a known-good build. The casts mix empty, small, near-MTU, just-over-the-
// fragment-threshold and 4 KiB payloads, so the run crosses variable
// header extensions, fragmentation, PACK trains, transforms, NAK
// retransmission (2% loss) and membership flushes.
//
// When a constant changes on purpose (a deliberate wire-format change),
// the failure message prints the new value to record.
#include "../common/test_util.hpp"

#include <ostream>
#include <string>
#include <vector>

namespace horus::testing {
namespace {

struct Case {
  const char* spec;
  std::vector<std::size_t> sizes;  // payload sizes, cycled over the casts
  std::uint64_t want;              // recorded frame hash
};

void PrintTo(const Case& c, std::ostream* os) { *os << c.spec; }

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

void mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h = (h ^ ((v >> (8 * i)) & 0xff)) * kFnvPrime;
  }
}

/// Even casts carry a byte pattern COMPRESS cannot shrink, odd casts a
/// repetitive text it can.
Bytes payload_for(int cast, std::size_t size) {
  Bytes p(size);
  const auto c = static_cast<std::size_t>(cast);
  for (std::size_t i = 0; i < size; ++i) {
    p[i] = cast % 2 == 0
               ? static_cast<std::uint8_t>((c * 131 + i * 7 + (i >> 5)) & 0xff)
               : static_cast<std::uint8_t>("horus "[(c + i) % 6]);
  }
  return p;
}

bool has_mbrship(const std::string& spec) {
  return spec.find("MBRSHIP") != std::string::npos;
}

struct Frames {
  std::uint64_t hash = kFnvOffset;
  std::uint64_t datagrams = 0;
};

Frames run_world(const Case& c) {
  constexpr int kMembers = 3;
  constexpr int kRounds = 40;
  constexpr int kCasts = 2 * kRounds;
  HorusSystem::Options o;
  o.seed = 0x77697265;  // "wire"
  o.net.loss = 0.02;
  World w(kMembers, c.spec, o);
  Frames run;
  // Re-attach each node with a handler that hashes the datagram and then
  // does exactly what SimTransport::bind's handler does.
  for (Endpoint* ep : w.eps) {
    w.sys.net().attach(
        ep->address().id,
        [&run, ep](sim::NodeId src, std::shared_ptr<const Bytes> d) {
          ++run.datagrams;
          mix(run.hash, src);
          mix(run.hash, ep->address().id);
          mix(run.hash, d->size());
          for (std::uint8_t b : *d) run.hash = (run.hash ^ b) * kFnvPrime;
          ep->deliver_datagram(Address{src}, std::move(d));
        });
  }
  if (has_mbrship(c.spec)) {
    w.form_group();
    EXPECT_TRUE(w.converged()) << c.spec;
  } else {
    std::vector<Address> all;
    for (Endpoint* ep : w.eps) {
      ep->join(kGroup);
      all.push_back(ep->address());
    }
    for (Endpoint* ep : w.eps) ep->install_view(kGroup, all);
    w.sys.run_for(10 * sim::kMillisecond);
  }
  std::vector<std::size_t> before;
  for (const AppLog& l : w.logs) before.push_back(l.casts.size());
  // Each round one member casts twice back to back (a PACK train), and
  // rounds overlap in flight (fragments of different senders interleave).
  for (int i = 0; i < kCasts; ++i) {
    std::size_t size = c.sizes[static_cast<std::size_t>(i) % c.sizes.size()];
    w.eps[static_cast<std::size_t>(i / 2) % kMembers]->cast(
        kGroup, Message::from_payload(payload_for(i, size)));
    if (i % 2 == 1) w.sys.run_for(700);
  }
  w.sys.run_for(3 * sim::kSecond);
  for (std::size_t m = 0; m < w.logs.size(); ++m) {
    EXPECT_EQ(w.logs[m].casts.size() - before[m],
              static_cast<std::size_t>(kCasts))
        << c.spec << " member " << m;
  }
  return run;
}

class WireIdentity : public ::testing::TestWithParam<Case> {};

TEST_P(WireIdentity, FramesMatchRecordedHash) {
  const Case& c = GetParam();
  Frames r = run_world(c);
  EXPECT_GT(r.datagrams, 100u);
  EXPECT_EQ(r.hash, c.want) << c.spec << ": " << r.datagrams
                            << " datagrams hash to 0x" << std::hex << r.hash;
}

// 1250 B passes FRAG's threshold (MTU 1400 - 128) unfragmented in one
// near-MTU datagram; 1300 B is just over it (two fragments).
const std::vector<std::size_t> kMixed = {0, 100, 1250, 1300, 4096};

INSTANTIATE_TEST_SUITE_P(
    Stacks, WireIdentity,
    ::testing::Values(
        Case{"CAUSAL:MBRSHIP:FRAG:NAK:COM", kMixed, 0x75099aac936b687dull},
        Case{"PACK:TOTAL:STABLE:MBRSHIP:FRAG:NAK:COM", kMixed,
             0x27dbf2f52ec0cc71ull},
        // NFRAG below NAK: NFRAG needs best-effort delivery under it.
        Case{"MBRSHIP:NAK:NFRAG:COM", kMixed, 0x1d9e29cf110163bfull},
        Case{"ENCRYPT:COMPRESS:MBRSHIP:FRAG:NAK:COM", kMixed,
             0xa7de90796dc00d0eull},
        // No fragmentation layer: sizes stay under the MTU. Compressible
        // payloads take COMPRESS's rebuild path; RAWCOM sends no CRC.
        Case{"COMPRESS:ENCRYPT:SIGN:NAK:CHKSUM:RAWCOM", {0, 100, 1250},
             0x67f13abcf66b4972ull}));

}  // namespace
}  // namespace horus::testing
