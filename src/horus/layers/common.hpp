// Shared helpers for protocol layer implementations.
#pragma once

#include <map>
#include <vector>

#include "horus/core/endpoint.hpp"
#include "horus/core/group.hpp"
#include "horus/core/stack.hpp"
#include "horus/util/serialize.hpp"

namespace horus::layers {

/// A message captured at some layer boundary, so it can be logged and later
/// re-injected (flush unstable-message exchange, NAK retransmission). One
/// buffer holds the compacted header region as staged so far (empty if no
/// layer above wrote a field yet) followed by `rest`, the content above the
/// capturing layer (upper headers + payload).
struct CapturedMsg {
  Bytes buf;  // region, then rest
  std::size_t region_len = 0;

  [[nodiscard]] ByteSpan region() const {
    return ByteSpan(buf).first(region_len);
  }
  [[nodiscard]] ByteSpan rest() const {
    return ByteSpan(buf).subspan(region_len);
  }

  static CapturedMsg of(ByteSpan region, ByteSpan rest) {
    CapturedMsg c;
    c.buf.reserve(region.size() + rest.size());
    c.buf.insert(c.buf.end(), region.begin(), region.end());
    c.buf.insert(c.buf.end(), rest.begin(), rest.end());
    c.region_len = region.size();
    return c;
  }
  static CapturedMsg capture(const Message& m) {
    return of(m.region(), m.upper_span());
  }
  /// Rebuild a tx message on `s` carrying the captured content as payload,
  /// with the captured region pre-seeded (lower layers overwrite their own
  /// fields in it).
  [[nodiscard]] Message to_tx(Stack& s) const {
    return s.tx_message(rest(), region());
  }
  /// Rebuild an rx message positioned just above the capturing layer.
  [[nodiscard]] Message to_rx() const {
    return Message::from_parts(region(), rest());
  }

  void encode(Writer& w) const {
    w.bytes(region());
    w.bytes(rest());
  }
  static CapturedMsg decode(Reader& r) {
    ByteSpan region = r.bytes_view();
    return of(region, r.bytes_view());
  }
};

/// A fragmentation bundle: a message's content as seen at the fragmenting
/// layer, [varint region length][region][upper headers + payload]. The
/// fragments carry consecutive slices of it.
inline Bytes bundle_of(const Message& m) {
  ByteSpan region = m.region();
  ByteSpan upper = m.upper_span();
  Writer w;
  w.reserve(varint_size(region.size()) + region.size() + upper.size());
  w.bytes(region);
  w.raw(upper);
  return w.take();
}

/// The reassembled bundle as an rx message positioned just above the
/// fragmenting layer: a view over `whole`, no copy. Throws DecodeError on
/// bad framing.
inline Message unbundle(Bytes whole) {
  Reader r(whole);
  std::size_t region_len = r.varint();
  std::size_t at = r.position();
  return Message::from_wire(std::make_shared<const Bytes>(std::move(whole)),
                            region_len, static_cast<std::size_t>(-1), at);
}

inline void encode_addresses(Writer& w, const std::vector<Address>& v) {
  w.varint(v.size());
  for (const Address& a : v) w.u64(a.id);
}

inline std::vector<Address> decode_addresses(Reader& r) {
  std::uint64_t n = r.varint();
  if (n > 1'000'000) throw DecodeError("address list too large");
  std::vector<Address> v;
  v.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) v.push_back(Address{r.u64()});
  return v;
}

inline void encode_seq_map(Writer& w, const std::map<Address, std::uint64_t>& m) {
  w.varint(m.size());
  for (const auto& [a, s] : m) {
    w.u64(a.id);
    w.varint(s);
  }
}

inline std::map<Address, std::uint64_t> decode_seq_map(Reader& r) {
  std::uint64_t n = r.varint();
  if (n > 1'000'000) throw DecodeError("seq map too large");
  std::map<Address, std::uint64_t> m;
  for (std::uint64_t i = 0; i < n; ++i) {
    Address a{r.u64()};
    m[a] = r.varint();
  }
  return m;
}

}  // namespace horus::layers
