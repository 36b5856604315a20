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
/// re-injected (flush unstable-message exchange, NAK retransmission).
/// `rest` is the serialized content above the capturing layer; `region` is
/// the compacted header region as staged so far (empty if no layer above
/// wrote a field yet).
struct CapturedMsg {
  Bytes region;
  Bytes rest;

  static CapturedMsg capture(const Message& m) {
    return CapturedMsg{m.region_copy(), m.upper_wire()};
  }
  /// Rebuild a tx message carrying the captured content as payload, with
  /// the captured region pre-seeded (lower layers overwrite their own
  /// fields in it).
  [[nodiscard]] Message to_tx() const {
    Message m = Message::from_payload(rest);
    if (!region.empty()) {
      MutByteSpan r = m.region_mut(region.size());
      std::copy(region.begin(), region.end(), r.begin());
    }
    return m;
  }
  /// Rebuild an rx message positioned just above the capturing layer.
  [[nodiscard]] Message to_rx() const { return Message::from_parts(region, rest); }

  void encode(Writer& w) const {
    w.bytes(region);
    w.bytes(rest);
  }
  static CapturedMsg decode(Reader& r) {
    CapturedMsg c;
    c.region = r.bytes();
    c.rest = r.bytes();
    return c;
  }
};

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
