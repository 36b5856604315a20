// The Horus message object: header pushing in place, the documented frame
// layout, wire round-trips, copy-on-write, and the capture/reinjection path
// used by logging layers.
#include "horus/core/message.hpp"

#include <gtest/gtest.h>

#include "../common/test_util.hpp"
#include "horus/core/wirebuf.hpp"
#include "horus/layers/common.hpp"
#include "horus/util/crc32.hpp"
#include "horus/util/hotpath_stats.hpp"

namespace horus {
namespace {

constexpr std::size_t kPrefix = Stack::kFramePrefix;  // gid + epoch stamp

/// The frame finalize_wire builds, minus its gid/stamp prefix:
/// [region padded to region_bytes][headers, outermost first][payload].
Bytes body_of(Message& m, std::size_t region_bytes) {
  MutByteSpan frame = m.finalize_wire(0, region_bytes, 0);
  return Bytes(frame.begin() + kPrefix, frame.end());
}

Bytes cat(std::initializer_list<ByteSpan> parts) {
  Bytes out;
  for (ByteSpan p : parts) out.insert(out.end(), p.begin(), p.end());
  return out;
}

TEST(Message, PayloadBasics) {
  Message m = Message::from_string("hello");
  EXPECT_FALSE(m.rx());
  EXPECT_EQ(m.payload_size(), 5u);
  EXPECT_EQ(m.payload_string(), "hello");
  EXPECT_EQ(m.header_overhead(), 0u);
}

TEST(Message, EmptyMessage) {
  Message m;
  EXPECT_EQ(m.payload_size(), 0u);
  EXPECT_TRUE(m.payload_bytes().empty());
  EXPECT_TRUE(body_of(m, 0).empty());
}

// from_payload takes over the caller's bytes as the wire buffer.
TEST(Message, FromPayloadAdoptsWithoutCopy) {
  Bytes p = to_bytes("adopted");
  const std::uint8_t* data = p.data();
  std::uint64_t copied = msg_path_stats().bytes_copied.load();
  Message m = Message::from_payload(std::move(p));
  EXPECT_EQ(m.upper_span().data(), data);
  EXPECT_EQ(msg_path_stats().bytes_copied.load(), copied);
  EXPECT_EQ(m.payload_string(), "adopted");
}

TEST(Message, PushBlocksAppearOutermostFirstOnWire) {
  // Headers pushed as the message travels DOWN: the last pushed (bottom
  // layer) must be first on the wire, so the receiving bottom layer pops
  // it first.
  Message m = Message::from_string("PP");
  m.push_block(to_bytes("AA"));  // upper layer
  m.push_block(to_bytes("bb"));  // lower layer
  EXPECT_EQ(to_string(body_of(m, 0)), "bbAAPP");
  EXPECT_EQ(m.header_overhead(), 4u);
  EXPECT_EQ(m.payload_string(), "PP");
}

TEST(Message, RxPopsInWireOrder) {
  Message tx = Message::from_string("payload");
  tx.push_block(to_bytes("UPPER"));
  tx.push_block(to_bytes("lower"));
  Message rx = Message::from_wire(body_of(tx, 0), 0);
  ASSERT_TRUE(rx.rx());
  // Bottom layer reads its 5 bytes first.
  Reader r1 = rx.reader();
  EXPECT_EQ(to_string(r1.raw(5)), "lower");
  rx.consume(5);
  Reader r2 = rx.reader();
  EXPECT_EQ(to_string(r2.raw(5)), "UPPER");
  rx.consume(5);
  EXPECT_EQ(rx.payload_string(), "payload");
  EXPECT_EQ(rx.header_overhead(), 10u);
}

TEST(Message, WireLengthLimitExcludesTrailer) {
  Message tx = Message::from_string("data");
  Bytes wire = body_of(tx, 0);
  wire.push_back(0xCC);  // transport trailer (e.g. COM's CRC)
  wire.push_back(0xCC);
  auto buf = std::make_shared<const Bytes>(wire);
  Message rx = Message::from_wire(buf, 0, wire.size() - 2);
  EXPECT_EQ(rx.payload_string(), "data");
}

TEST(Message, RegionRoundTrip) {
  Message tx = Message::from_string("p");
  MutByteSpan region = tx.region_mut(4);
  region[0] = 0xde;
  region[3] = 0xad;
  Bytes wire = body_of(tx, 4);
  EXPECT_EQ(wire, (Bytes{0xde, 0, 0, 0xad, 'p'}));
  Message rx = Message::from_wire(wire, 4);
  EXPECT_EQ(rx.region().size(), 4u);
  EXPECT_EQ(rx.region()[3], 0xad);
  EXPECT_EQ(rx.payload_string(), "p");
}

TEST(Message, RegionZeroPaddedWhenUnwritten) {
  Message tx = Message::from_string("x");
  Bytes wire = body_of(tx, 8);  // region never touched
  EXPECT_EQ(wire, (Bytes{0, 0, 0, 0, 0, 0, 0, 0, 'x'}));
  // Partly staged: the unwritten tail is zero too, even in a recycled
  // buffer whose bytes were dirty.
  WireBufPool pool(64);
  {
    Message dirty = Message::make_linear(pool.acquire(64), 8, 0, to_bytes("d"));
    MutByteSpan r = dirty.region_mut(8);
    std::fill(r.begin(), r.end(), 0xff);
  }
  Message m = Message::make_linear(pool.acquire(64), 8, 0, to_bytes("y"));
  m.region_mut(2)[0] = 0x11;
  EXPECT_EQ(body_of(m, 8), (Bytes{0x11, 0, 0, 0, 0, 0, 0, 0, 'y'}));
}

TEST(Message, ConsumePastEndThrows) {
  Message rx = Message::from_wire(to_bytes("abc"), 0);
  EXPECT_THROW(rx.consume(4), DecodeError);
}

TEST(Message, ShortRegionThrows) {
  EXPECT_THROW(Message::from_wire(to_bytes("ab"), 4), DecodeError);
}

TEST(Message, UpperSpanTxIncludesHeadersAndPayload) {
  Message m = Message::from_string("pay");
  m.push_block(to_bytes("h1"));
  m.push_block(to_bytes("h2"));
  EXPECT_EQ(to_string(m.upper_span()), "h2h1pay");
}

TEST(Message, UpperSpanRxIsRemainder) {
  Message rx = Message::from_wire(to_bytes("lowUPPERpay"), 0);
  rx.consume(3);
  EXPECT_EQ(to_string(rx.upper_span()), "UPPERpay");
}

TEST(Message, FromPartsIsOneRxBuffer) {
  Message rx = Message::from_parts(to_bytes("RR"), to_bytes("hdrPAY"));
  ASSERT_TRUE(rx.rx());
  EXPECT_EQ(to_string(rx.region()), "RR");
  // Region and rest are adjacent in one buffer.
  EXPECT_EQ(rx.region().data() + 2, rx.upper_span().data());
  rx.consume(3);
  EXPECT_EQ(rx.payload_string(), "PAY");
}

TEST(Message, CaptureAndReinject) {
  // The logging path: capture a tx message mid-stack, rebuild it later on
  // a stack (tx) or re-deliver it above the capturing layer (rx).
  using layers::CapturedMsg;
  testing::World w(1, "NAK:COM");
  Stack& stack = w.eps[0]->stack();
  Message m = Message::from_string("body");
  m.push_block(to_bytes("UP"));
  MutByteSpan region = m.region_mut(2);
  region[0] = 0x7f;
  CapturedMsg cap = CapturedMsg::capture(m);
  EXPECT_EQ(to_string(cap.region()), std::string("\x7f\0", 2));
  EXPECT_EQ(to_string(cap.rest()), "UPbody");
  // Reinject as tx: content becomes the payload, region re-seeded, laid
  // out with the stack's geometry.
  Message tx = cap.to_tx(stack);
  EXPECT_EQ(tx.payload_string(), "UPbody");
  EXPECT_EQ(tx.region()[0], 0x7f);
  EXPECT_TRUE(tx.fits(stack.region_bytes(), 4));
  // Reinject as rx: positioned exactly above the capturing layer.
  Message rx = cap.to_rx();
  ASSERT_TRUE(rx.rx());
  Reader r = rx.reader();
  EXPECT_EQ(to_string(r.raw(2)), "UP");
  rx.consume(2);
  EXPECT_EQ(rx.payload_string(), "body");
  EXPECT_EQ(rx.region()[0], 0x7f);
}

// PACK trains and MBRSHIP flush logs carry encode()'s output: its bytes
// are [varint region length][region][varint rest length][rest].
TEST(Message, CaptureEncodingIsFixed) {
  using layers::CapturedMsg;
  Message m = Message::from_string("xyz");
  m.push_block(to_bytes("H"));
  m.region_mut(2)[1] = 0x5a;
  CapturedMsg cap = CapturedMsg::capture(m);
  Writer w;
  cap.encode(w);
  EXPECT_EQ(w.data(), (Bytes{2, 0x00, 0x5a, 4, 'H', 'x', 'y', 'z'}));
  Reader r(w.data());
  CapturedMsg back = CapturedMsg::decode(r);
  EXPECT_EQ(back.buf, cap.buf);
  EXPECT_EQ(back.region_len, cap.region_len);
}

TEST(Message, FromWireWithOffsetSkipsFraming) {
  // Endpoint-level framing: [8-byte gid prefix][message bytes][trailer].
  Bytes frame = to_bytes("GIDGIDGIhdrsPAYLOADtt");
  auto buf = std::make_shared<const Bytes>(frame);
  Message rx = Message::from_wire(buf, 0, frame.size() - 2, 8);
  Reader r = rx.reader();
  EXPECT_EQ(to_string(r.raw(4)), "hdrs");
  rx.consume(4);
  EXPECT_EQ(rx.payload_string(), "PAYLOAD");
}

TEST(Message, FromWireOffsetWithRegion) {
  Bytes frame = to_bytes("12345678RRRRrest");
  Message rx = Message::from_wire(
      std::make_shared<const Bytes>(frame), 4, frame.size(), 8);
  EXPECT_EQ(to_string(rx.region()), "RRRR");
  EXPECT_EQ(rx.payload_string(), "rest");
}

TEST(Message, FromWireOffsetPastEndThrows) {
  Bytes tiny = to_bytes("abc");
  EXPECT_THROW(Message::from_wire(std::make_shared<const Bytes>(tiny), 0,
                                  tiny.size(), 5),
               DecodeError);
}

// Copying a tx message shares its wire buffer: no payload bytes move.
TEST(Message, CopySharesBuffer) {
  Message m = Message::from_payload(Bytes(1000, 7));
  std::uint64_t copied = msg_path_stats().bytes_copied.load();
  Message copy = m;
  EXPECT_EQ(msg_path_stats().bytes_copied.load(), copied);
  EXPECT_EQ(copy.upper_span().data(), m.upper_span().data());
  EXPECT_EQ(copy.payload_size(), 1000u);
}

// -- the headroom buffer ----------------------------------------------------

// The documented frame, byte for byte: [gid LE][stamp LE][region padded]
// [headers, outermost first][payload][trailer room].
TEST(MessageLinear, FinalizeBuildsDocumentedFrame) {
  constexpr std::size_t kRegion = 4;
  const Bytes want_body = cat({Bytes{0xaa, 0x00, 0xbb, 0x00}, to_bytes("out"),
                               to_bytes("INNER"), to_bytes("payload")});
  const Bytes want_prefix = {0x88, 0x77, 0x66, 0x55, 0x44, 0x33,
                             0x22, 0x11, 0x0b, 0x0a};
  auto build = [](Message& m) {
    MutByteSpan region = m.region_mut(kRegion);
    region[0] = 0xaa;
    region[2] = 0xbb;
    m.push_block(to_bytes("INNER"));
    m.push_block(to_bytes("out"));
  };

  WireBufPool pool(256);
  Message lin = Message::make_linear(pool.acquire(256), kRegion,
                                     /*tailroom=*/2, to_bytes("payload"));
  build(lin);
  MutByteSpan frame = lin.finalize_wire(0x1122334455667788ull, kRegion, 2,
                                        /*epoch_stamp=*/0x0a0b);
  ASSERT_EQ(frame.size(), kPrefix + want_body.size() + 2);
  EXPECT_EQ(Bytes(frame.begin(), frame.begin() + kPrefix), want_prefix);
  EXPECT_EQ(Bytes(frame.begin() + kPrefix, frame.end() - 2), want_body);

  // finalize_wire is repeatable (retransmission) and leaves content intact.
  MutByteSpan again = lin.finalize_wire(0x1122334455667788ull, kRegion, 2,
                                        /*epoch_stamp=*/0x0a0b);
  EXPECT_EQ(Bytes(again.begin(), again.end() - 2),
            cat({want_prefix, want_body}));
  EXPECT_EQ(lin.payload_string(), "payload");

  // An adopted payload with no headroom or tailroom yet builds the same
  // frame: the buffer grows to fit.
  Message adopted = Message::from_string("payload");
  build(adopted);
  MutByteSpan f2 = adopted.finalize_wire(0x1122334455667788ull, kRegion, 2,
                                         /*epoch_stamp=*/0x0a0b);
  EXPECT_EQ(Bytes(f2.begin(), f2.end() - 2), cat({want_prefix, want_body}));
}

// move_to (the stack's fit) carries region, headers and the header/payload
// split into the new buffer; later pushes land outside, in order.
TEST(MessageLinear, MoveToKeepsRegionHeadersAndPayload) {
  Message m = Message::from_string("pp");
  m.region_mut(1)[0] = 0x42;
  m.push_block(to_bytes("AA"));
  m.push_block(to_bytes("bb"));
  WireBufPool pool(128);
  m.move_to(pool.acquire(128), 4, 2);
  EXPECT_TRUE(m.fits(4, 2));
  EXPECT_FALSE(m.fits(5, 2));
  EXPECT_EQ(m.payload_string(), "pp");
  EXPECT_EQ(m.header_overhead(), 1u + 4u);
  EXPECT_EQ(body_of(m, 4), cat({Bytes{0x42, 0, 0, 0}, to_bytes("bbAApp")}));
  m.push_block(to_bytes("cc"));
  EXPECT_EQ(body_of(m, 4), cat({Bytes{0x42, 0, 0, 0}, to_bytes("ccbbAApp")}));
}

// Headroom overflow degrades gracefully: the message moves to a larger
// off-pool buffer and the pushes keep working.
TEST(MessageLinear, HeadroomOverflowGrows) {
  auto& growths = msg_path_stats().headroom_growths;
  std::uint64_t before = growths.load();
  WireBufPool pool(32);
  Message m = Message::make_linear(pool.acquire(32), 0, 0, to_bytes("p"));
  Bytes big(64, 0x5a);
  m.push_block(big);  // cannot fit in 31 bytes of headroom
  EXPECT_GT(growths.load(), before);
  EXPECT_EQ(body_of(m, 0), cat({big, to_bytes("p")}));
}

// Copies of a tx message share the wire buffer; the first mutation of a
// shared buffer clones it, leaving the other copy untouched.
TEST(MessageLinear, CopyOnWrite) {
  auto& cows = msg_path_stats().unshare_copies;
  std::uint64_t before = cows.load();
  WireBufPool pool(128);
  Message a = Message::make_linear(pool.acquire(128), 0, 0, to_bytes("body"));
  a.push_block(to_bytes("H1"));
  Message b = a;  // shares the buffer
  b.push_block(to_bytes("H2"));  // must not disturb a
  EXPECT_GT(cows.load(), before);
  EXPECT_EQ(to_string(a.upper_span()), "H1body");
  EXPECT_EQ(to_string(b.upper_span()), "H2H1body");
  Message c = a;
  c.region_mut(1)[0] = 0x01;  // a region write clones too
  EXPECT_TRUE(a.region().empty());
}

TEST(MessageLinear, MakeLinearRoundTrip) {
  WireBufPool pool(128);
  Bytes payload = to_bytes("direct");
  Message m = Message::make_linear(pool.acquire(128), 0, 0, ByteSpan(payload));
  EXPECT_EQ(m.payload_string(), "direct");
  MutByteSpan hdr = m.prepend(3);
  hdr[0] = 'h';
  hdr[1] = 'd';
  hdr[2] = 'r';
  MutByteSpan frame = m.finalize_wire(7, 0, 0);
  Message rx = Message::from_wire(ByteSpan(frame), 0);
  Reader r = rx.reader();
  EXPECT_EQ(r.u64(), 7u);   // gid prefix
  EXPECT_EQ(r.u16(), 0u);   // default stack-epoch stamp
  rx.consume(kPrefix);
  Reader r2 = rx.reader();
  EXPECT_EQ(to_string(r2.raw(3)), "hdr");
  rx.consume(3);
  EXPECT_EQ(rx.payload_string(), "direct");
}

// Growing the region past its staging capacity moves the message to a
// larger buffer, keeping the staged bytes, the headers and the payload.
TEST(MessageLinear, RegionOverflowRelayouts) {
  WireBufPool pool(128);
  Message m = Message::make_linear(pool.acquire(128), 2, 0, to_bytes("p"));
  m.region_mut(2)[0] = 0x11;
  m.push_block(to_bytes("HH"));
  MutByteSpan region = m.region_mut(6);  // > staged cap of 2
  ASSERT_EQ(region.size(), 6u);
  region[5] = 0x42;
  EXPECT_TRUE(m.fits(6, 0));
  EXPECT_EQ(body_of(m, 6),
            cat({Bytes{0x11, 0, 0, 0, 0, 0x42}, to_bytes("HHp")}));
}

// -- oversize payloads and mid-stack control messages -----------------------

/// Records every datagram the network delivers to each node, then hands it
/// on exactly as SimTransport's handler does.
struct Tap {
  std::vector<Bytes> frames;
  explicit Tap(testing::World& w) {
    for (Endpoint* ep : w.eps) {
      w.sys.net().attach(
          ep->address().id,
          [this, ep](sim::NodeId src, std::shared_ptr<const Bytes> d) {
            frames.push_back(*d);
            ep->deliver_datagram(Address{src}, std::move(d));
          });
    }
  }
};

/// A group with a fixed view of every endpoint (the stacks here have no
/// membership layer).
void install_static_view(testing::World& w) {
  std::vector<Address> all;
  for (Endpoint* ep : w.eps) {
    ep->join(testing::kGroup);
    all.push_back(ep->address());
  }
  for (Endpoint* ep : w.eps) ep->install_view(testing::kGroup, all);
}

/// Checks one COM frame: gid prefix, the stack's epoch stamp, CRC trailer.
void expect_com_frame(const Bytes& f, const Stack& stack) {
  ASSERT_GE(f.size(), kPrefix + stack.region_bytes() + 4);
  Reader r(f);
  EXPECT_EQ(r.u64(), testing::kGroup.id);
  EXPECT_EQ(r.u16(), stack.epoch_stamp());
  Reader trailer(ByteSpan(f).last(4));
  EXPECT_EQ(crc32(ByteSpan(f).first(f.size() - 4)), trailer.u32());
}

// A payload larger than the pool's buffer class, on a stack with no
// fragmentation layer: it gets an unpooled buffer with the stack's
// geometry and is framed in place like any other cast.
TEST(MessageGeometry, OversizeCastWithoutFragIsFramedInPlace) {
  HorusSystem::Options o;
  o.net.mtu = 8192;  // the stack's MTU, which sizes its pool, stays 1400
  testing::World w(2, "NAK:COM", o);
  install_static_view(w);
  w.sys.run_for(10 * sim::kMillisecond);
  w.eps[0]->cast(testing::kGroup, Message::from_string("warm the pools"));
  w.sys.run_for(50 * sim::kMillisecond);
  Tap tap(w);
  Stack& stack = w.eps[0]->stack();
  Bytes big(4096);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::uint8_t>(i * 13);
  }
  std::uint64_t oversize = msg_path_stats().oversize.load();
  std::uint64_t misses = msg_path_stats().pool_misses.load();
  std::uint64_t sent = stack.stats().datagrams_sent.load();
  w.eps[0]->cast(testing::kGroup, Message::from_payload(big));
  w.sys.run_for(sim::kMillisecond);
  // One datagram, to the peer: the sender's own copy skips the wire.
  EXPECT_EQ(stack.stats().datagrams_sent.load(), sent + 1);
  EXPECT_GT(msg_path_stats().oversize.load(), oversize);
  EXPECT_EQ(msg_path_stats().pool_misses.load(), misses);
  int casts = 0;
  for (const Bytes& f : tap.frames) {
    expect_com_frame(f, stack);
    // Prefix, region, payload, CRC: the cast (the rest is NAK status).
    if (f.size() != kPrefix + stack.region_bytes() + big.size() + 4) continue;
    ++casts;
    EXPECT_EQ(Bytes(f.end() - 4 - static_cast<std::ptrdiff_t>(big.size()),
                    f.end() - 4),
              big);
  }
  EXPECT_EQ(casts, 1);
  for (std::size_t i = 0; i < 2; ++i) {
    ASSERT_EQ(w.logs[i].casts.size(), 2u) << "member " << i;
    EXPECT_EQ(w.logs[i].casts[1].payload, to_string(big)) << "member " << i;
  }
}

// A control message built mid-stack (NAK's status report: no app payload,
// originated below the top layer) leaves through the same in-place framing.
TEST(MessageGeometry, ControlMessageBuiltMidStackIsFramedInPlace) {
  testing::World w(2, "NAK:COM");
  install_static_view(w);
  Tap tap(w);
  Stack& stack = w.eps[0]->stack();
  std::uint64_t sent = stack.stats().datagrams_sent.load();
  w.sys.run_for(100 * sim::kMillisecond);  // idle: status reports only
  EXPECT_GT(stack.stats().datagrams_sent.load(), sent);
  EXPECT_TRUE(w.logs[1].casts.empty());
  ASSERT_FALSE(tap.frames.empty());
  for (const Bytes& f : tap.frames) expect_com_frame(f, stack);
  // Every one of them was accepted by the receiving COM.
  std::uint64_t received = 0;
  for (Endpoint* ep : w.eps) {
    received += ep->stack().stats().datagrams_received.load();
  }
  EXPECT_EQ(received, tap.frames.size());
}

}  // namespace
}  // namespace horus
