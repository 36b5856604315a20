// Bit-granular field packing: the compacted header codec.
//
// Section 10 of the paper proposes that, instead of each layer pushing its
// own word-aligned header, a layer should declare the fields it needs "in
// terms of size and alignment, both specified in bits", and the stack should
// precompute a single compacted header. BitLayout is that precomputation:
// it assigns a bit offset to every (layer, field) pair, and get/set access
// the packed region directly.
//
// Bit order is little-endian throughout: bit `off + i` of the region holds
// bit i of the value, and bit b of the region is bit (b % 8) of byte b / 8.
// The accessors are inline and word-masked: one unaligned 8-byte load (and
// store) plus a shift and a mask, a 9th byte only when a shifted field
// straddles it, and a byte-wise path only for fields that start within the
// last 7 bytes of the buffer, so no access reaches past `buf.size()`.
#pragma once

#include <bit>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "horus/util/bytes.hpp"

namespace horus {

namespace bits_detail {

/// The little-endian word at `p`: one unaligned 8-byte load when `n` >= 8
/// bytes remain, otherwise the `n` remaining bytes, zero-extended.
inline std::uint64_t load_le(const std::uint8_t* p, std::size_t n) {
  std::uint64_t w = 0;
  if (n >= 8) {
    std::memcpy(&w, p, sizeof w);
    if constexpr (std::endian::native == std::endian::big) w = __builtin_bswap64(w);
    return w;
  }
  for (std::size_t i = 0; i < n; ++i) w |= std::uint64_t{p[i]} << (8 * i);
  return w;
}

/// Inverse of load_le: writes min(n, 8) bytes of `w` at `p`.
inline void store_le(std::uint8_t* p, std::size_t n, std::uint64_t w) {
  if (n >= 8) {
    if constexpr (std::endian::native == std::endian::big) w = __builtin_bswap64(w);
    std::memcpy(p, &w, sizeof w);
    return;
  }
  for (std::size_t i = 0; i < n; ++i) p[i] = static_cast<std::uint8_t>(w >> (8 * i));
}

inline std::uint64_t low_mask(int bits) {
  return bits == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << bits) - 1;
}

}  // namespace bits_detail

// Both accessors take a field's first 8 bytes as one word. A field that
// does not end inside that word (shift + bits > 64) ends inside `buf`, so
// its 9th byte is in bounds; a field starting in the last 7 bytes has
// shift + bits <= 56 and never needs it.

/// Read `bits` bits starting at bit offset `off`. bits must be 1..64 and
/// the field must lie within `buf`.
inline std::uint64_t bits_get(ByteSpan buf, std::size_t off, int bits) {
  assert(bits >= 1 && bits <= 64);
  assert(off + static_cast<std::size_t>(bits) <= buf.size() * 8);
  const std::size_t byte = off >> 3;
  const int shift = static_cast<int>(off & 7);
  const std::uint8_t* p = buf.data() + byte;
  std::uint64_t v = bits_detail::load_le(p, buf.size() - byte) >> shift;
  if (shift + bits > 64) v |= std::uint64_t{p[8]} << (64 - shift);
  return v & bits_detail::low_mask(bits);
}

/// Write `bits` low-order bits of `value` at bit offset `off` in `buf`,
/// leaving every other bit unchanged. bits must be 1..64 and the field must
/// lie within `buf`.
inline void bits_set(MutByteSpan buf, std::size_t off, int bits,
                     std::uint64_t value) {
  assert(bits >= 1 && bits <= 64);
  assert(off + static_cast<std::size_t>(bits) <= buf.size() * 8);
  const std::size_t byte = off >> 3;
  const int shift = static_cast<int>(off & 7);
  const std::uint64_t mask = bits_detail::low_mask(bits);
  value &= mask;
  std::uint8_t* p = buf.data() + byte;
  const std::size_t n = buf.size() - byte;
  const std::uint64_t w = bits_detail::load_le(p, n);
  bits_detail::store_le(p, n, (w & ~(mask << shift)) | (value << shift));
  if (shift + bits > 64) {
    const auto hi = static_cast<std::uint8_t>((1u << (shift + bits - 64)) - 1);
    p[8] = static_cast<std::uint8_t>((p[8] & ~hi) | (value >> (64 - shift)));
  }
}

/// Declaration of one header field: a name (diagnostics only) and a width.
struct FieldSpec {
  std::string name;
  int bits = 0;
};

/// A compiled bit-packed layout over a list of field groups (one group per
/// protocol layer in a stack).
class BitLayout {
 public:
  BitLayout() = default;

  /// Append a group of fields; returns the group index.
  std::size_t add_group(const std::vector<FieldSpec>& fields);

  /// Total size of the packed region, in bytes (rounded up once, for the
  /// whole stack -- this is the point of the compaction).
  [[nodiscard]] std::size_t byte_size() const { return (total_bits_ + 7) / 8; }
  [[nodiscard]] std::size_t bit_size() const { return total_bits_; }
  [[nodiscard]] std::size_t group_count() const { return groups_.size(); }

  void set(MutByteSpan region, std::size_t group, std::size_t field,
           std::uint64_t value) const {
    const Slot& s = slot(group, field);
    bits_set(region, s.offset, s.bits, value);
  }
  [[nodiscard]] std::uint64_t get(ByteSpan region, std::size_t group,
                                  std::size_t field) const {
    const Slot& s = slot(group, field);
    return bits_get(region, s.offset, s.bits);
  }

 private:
  struct Slot {
    std::size_t offset;
    int bits;
  };
  [[nodiscard]] const Slot& slot(std::size_t group, std::size_t field) const {
    assert(group < groups_.size() && field < groups_[group].size());
    return groups_[group][field];
  }
  std::vector<std::vector<Slot>> groups_;
  std::size_t total_bits_ = 0;
};

}  // namespace horus
