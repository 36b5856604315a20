#include "horus/util/bitfield.hpp"

#include <gtest/gtest.h>

#include "horus/util/rng.hpp"

namespace horus {
namespace {

// Reference codec: one bit at a time, the definition of the region's bit
// order (bit `off + i` of the buffer holds bit i of the value).
void ref_set(MutByteSpan buf, std::size_t off, int bits, std::uint64_t value) {
  for (int i = 0; i < bits; ++i) {
    std::size_t bit = off + static_cast<std::size_t>(i);
    auto mask = static_cast<std::uint8_t>(1u << (bit & 7));
    if ((value >> i) & 1) {
      buf[bit >> 3] |= mask;
    } else {
      buf[bit >> 3] &= static_cast<std::uint8_t>(~mask);
    }
  }
}

std::uint64_t ref_get(ByteSpan buf, std::size_t off, int bits) {
  std::uint64_t v = 0;
  for (int i = 0; i < bits; ++i) {
    std::size_t bit = off + static_cast<std::size_t>(i);
    v |= static_cast<std::uint64_t>((buf[bit >> 3] >> (bit & 7)) & 1) << i;
  }
  return v;
}

// Every shift 0-7 x width 1-64, each at a few byte positions: in a roomy
// buffer, and in buffers that end exactly with the field's last byte (so
// the tail path, the plain 8-byte word and the 9-byte straddle -- e.g. 64
// bits at shift 7 -- all meet the end of the allocation). The word-masked
// accessors must agree with the reference bit for bit, and every bit
// outside the field must keep its prior value. Under AddressSanitizer a
// load or store past the buffer's end fails this test.
TEST(Bits, WordMaskedAccessorsMatchReference) {
  Rng rng(7);
  for (int shift = 0; shift < 8; ++shift) {
    for (int width = 1; width <= 64; ++width) {
      for (std::size_t first_byte : {0u, 1u, 9u}) {
        const std::size_t off = first_byte * 8 + static_cast<std::size_t>(shift);
        const std::size_t tight = (off + static_cast<std::size_t>(width) + 7) / 8;
        for (std::size_t size : {tight, tight + 16}) {
          Bytes before(size);
          for (auto& b : before) b = static_cast<std::uint8_t>(rng.next_u64());
          for (std::uint64_t value : {rng.next_u64(), ~std::uint64_t{0},
                                      std::uint64_t{0}}) {
            SCOPED_TRACE("shift " + std::to_string(shift) + " width " +
                         std::to_string(width) + " off " + std::to_string(off) +
                         " size " + std::to_string(size));
            Bytes got = before;
            Bytes want = before;
            bits_set(got, off, width, value);
            ref_set(want, off, width, value);
            ASSERT_EQ(got, want);
            // Neighbours untouched: only the field's bits may differ.
            for (std::size_t bit = 0; bit < size * 8; ++bit) {
              if (bit >= off && bit < off + static_cast<std::size_t>(width)) continue;
              ASSERT_EQ(ref_get(got, bit, 1), ref_get(before, bit, 1)) << "bit " << bit;
            }
            ASSERT_EQ(bits_get(got, off, width), ref_get(want, off, width));
            ASSERT_EQ(bits_get(before, off, width), ref_get(before, off, width));
          }
        }
      }
    }
  }
}

TEST(Bits, SetGetSingleBits) {
  Bytes buf(4, 0);
  bits_set(buf, 0, 1, 1);
  bits_set(buf, 7, 1, 1);
  bits_set(buf, 13, 1, 1);
  EXPECT_EQ(bits_get(buf, 0, 1), 1u);
  EXPECT_EQ(bits_get(buf, 7, 1), 1u);
  EXPECT_EQ(bits_get(buf, 13, 1), 1u);
  EXPECT_EQ(bits_get(buf, 1, 1), 0u);
  bits_set(buf, 7, 1, 0);
  EXPECT_EQ(bits_get(buf, 7, 1), 0u);
}

TEST(Bits, UnalignedWideField) {
  Bytes buf(16, 0);
  bits_set(buf, 3, 64, 0xdeadbeefcafef00dULL);
  EXPECT_EQ(bits_get(buf, 3, 64), 0xdeadbeefcafef00dULL);
  // Neighbours untouched.
  EXPECT_EQ(bits_get(buf, 0, 3), 0u);
  EXPECT_EQ(bits_get(buf, 67, 8), 0u);
}

TEST(Bits, ValueTruncatedToWidth) {
  Bytes buf(4, 0);
  bits_set(buf, 0, 4, 0xff);
  EXPECT_EQ(bits_get(buf, 0, 4), 0xfu);
  EXPECT_EQ(bits_get(buf, 4, 4), 0u);
}

TEST(Bits, RandomizedPacking) {
  Rng rng(31);
  for (int iter = 0; iter < 100; ++iter) {
    // Lay out random fields back to back, then verify all.
    struct F {
      std::size_t off;
      int bits;
      std::uint64_t val;
    };
    std::vector<F> fields;
    std::size_t off = 0;
    for (int i = 0; i < 30; ++i) {
      int bits = 1 + static_cast<int>(rng.next_below(64));
      std::uint64_t val = rng.next_u64();
      if (bits < 64) val &= (1ULL << bits) - 1;
      fields.push_back({off, bits, val});
      off += static_cast<std::size_t>(bits);
    }
    Bytes buf((off + 7) / 8, 0);
    for (const auto& f : fields) bits_set(buf, f.off, f.bits, f.val);
    for (const auto& f : fields) {
      EXPECT_EQ(bits_get(buf, f.off, f.bits), f.val)
          << "off " << f.off << " bits " << f.bits;
    }
  }
}

TEST(BitLayout, AssignsDisjointSlots) {
  BitLayout layout;
  std::size_t g0 = layout.add_group({{"a", 3}, {"b", 17}});
  std::size_t g1 = layout.add_group({{"c", 1}});
  std::size_t g2 = layout.add_group({{"d", 64}, {"e", 5}});
  EXPECT_EQ(layout.bit_size(), 3u + 17 + 1 + 64 + 5);
  EXPECT_EQ(layout.byte_size(), (90u + 7) / 8);
  Bytes region(layout.byte_size(), 0);
  layout.set(region, g0, 0, 0x5);
  layout.set(region, g0, 1, 0x1ffff);
  layout.set(region, g1, 0, 1);
  layout.set(region, g2, 0, UINT64_MAX);
  layout.set(region, g2, 1, 0x1f);
  EXPECT_EQ(layout.get(region, g0, 0), 0x5u);
  EXPECT_EQ(layout.get(region, g0, 1), 0x1ffffu);
  EXPECT_EQ(layout.get(region, g1, 0), 1u);
  EXPECT_EQ(layout.get(region, g2, 0), UINT64_MAX);
  EXPECT_EQ(layout.get(region, g2, 1), 0x1fu);
}

TEST(BitLayout, CompactionBeatsWordAlignment) {
  // The Section 10 claim: bit-sized fields waste far less space than
  // word-aligned headers. A realistic stack's fields:
  BitLayout layout;
  layout.add_group({{"kind", 2}, {"gseq", 32}});                   // TOTAL
  layout.add_group({{"kind", 4}, {"vseq", 32}, {"view", 32}});     // MBRSHIP
  layout.add_group({{"last", 1}, {"bundled", 1}});                 // FRAG
  layout.add_group({{"kind", 3}, {"s", 1}, {"e", 32}, {"q", 32}}); // NAK
  layout.add_group({{"gid", 64}, {"src", 64}, {"snd", 1}});        // COM
  std::size_t word_aligned = 4 * 2 + 4 * 3 + 4 * 2 + 4 * 4 + (8 + 8 + 4);
  EXPECT_LT(layout.byte_size(), word_aligned / 1.5);
}

TEST(BitLayout, RejectsBadWidths) {
  BitLayout layout;
  EXPECT_THROW(layout.add_group({{"zero", 0}}), std::invalid_argument);
  EXPECT_THROW(layout.add_group({{"wide", 65}}), std::invalid_argument);
}

}  // namespace
}  // namespace horus
