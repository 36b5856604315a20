// Section 10, problem 3 and fix 3: headers.
//
// "Layers push their own header onto the message. For convenience, this
//  header is aligned to a word boundary. This leads to a considerable
//  overhead of unused bits ... Also, each pop and push operation has an
//  associated overhead. ... A protocol will specify, instead of the layout
//  of their header, the fields that it needs (in terms of size and
//  alignment, both specified in bits). When building a stack, Horus will
//  precompute a single header in which the necessary fields are compacted."
//
// The stack's only codec is the compacted bit-packed region. The classic
// word-aligned push/pop codec survives here, bench-side, as the baseline:
// print_sizes and the micro-operations (encode+decode of a full stack's
// headers) compare the two, and BM_EndToEndCompact reports the region's
// bytes on the wire and time per message in a running stack.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_util.hpp"
#include "horus/util/bitfield.hpp"
#include "horus/util/serialize.hpp"

using namespace horus;
using namespace horus::bench;

namespace {

// The realistic field sets of the TOTAL:MBRSHIP:FRAG:NAK:COM stack.
const std::vector<std::vector<FieldSpec>> kStackFields = {
    {{"kind", 3}, {"gseq", 32}},                                // TOTAL
    {{"kind", 4}, {"view_seq", 32}, {"vseq", 32}},              // MBRSHIP
    {{"last", 1}, {"bundled", 1}},                              // FRAG
    {{"kind", 3}, {"stream", 1}, {"epoch", 32}, {"seq", 32}},   // NAK
    {{"src", 64}, {"is_send", 1}},                              // COM
};

// Both codecs run on the message object the stack uses: a pooled wire
// buffer with headroom, framed in place by finalize_wire, received as a
// view past the frame prefix.
Message tx_message(WireBufPool& pool, std::size_t region_bytes) {
  static const Bytes payload = to_bytes("x");
  return Message::make_linear(pool.acquire(256), region_bytes, 0, payload);
}

Message receive(Message& tx, std::size_t region_bytes) {
  MutByteSpan frame = tx.finalize_wire(0, region_bytes, 0);
  auto datagram = std::make_shared<const Bytes>(frame.begin(), frame.end());
  return Message::from_wire(std::move(datagram), region_bytes,
                            static_cast<std::size_t>(-1), Stack::kFramePrefix);
}

void BM_ClassicPushPop(benchmark::State& state) {
  // Word-aligned encode of each layer's fields as a pushed block, then
  // pop them all back (the per-message work of the classic codec).
  WireBufPool pool(256);
  for (auto _ : state) {
    Message m = tx_message(pool, 0);
    for (const auto& fields : kStackFields) {
      Writer w;
      for (const auto& f : fields) {
        if (f.bits <= 32) {
          w.u32(0x1234);
        } else {
          w.u64(0x12345678);
        }
      }
      m.push_block(w.data());
    }
    Message rx = receive(m, 0);
    std::uint64_t sum = 0;
    for (auto it = kStackFields.rbegin(); it != kStackFields.rend(); ++it) {
      Reader r = rx.reader();
      for (const auto& f : *it) {
        sum += f.bits <= 32 ? r.u32() : r.u64();
      }
      rx.consume(r.position());
    }
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_ClassicPushPop);

void BM_CompactRegion(benchmark::State& state) {
  BitLayout layout;
  std::vector<std::size_t> groups;
  for (const auto& fields : kStackFields) groups.push_back(layout.add_group(fields));
  WireBufPool pool(256);
  for (auto _ : state) {
    Message m = tx_message(pool, layout.byte_size());
    MutByteSpan region = m.region_mut(layout.byte_size());
    for (std::size_t g = 0; g < groups.size(); ++g) {
      for (std::size_t i = 0; i < kStackFields[g].size(); ++i) {
        layout.set(region, groups[g], i, 0x1234);
      }
    }
    Message rx = receive(m, layout.byte_size());
    std::uint64_t sum = 0;
    for (std::size_t g = 0; g < groups.size(); ++g) {
      for (std::size_t i = 0; i < kStackFields[g].size(); ++i) {
        sum += layout.get(rx.region(), groups[g], i);
      }
    }
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_CompactRegion);

void BM_EndToEndCompact(benchmark::State& state) {
  Rig rig("TOTAL:MBRSHIP:FRAG:NAK:COM", 2, Rig::fast_net());
  Bytes payload(100, 0x61);
  for (auto _ : state) {
    rig.cast_and_settle(payload);
  }
  const StackStats& s = rig.eps[0]->stack().stats();
  if (s.datagrams_sent > 0) {
    state.counters["hdr_B/dgram"] = benchmark::Counter(
        static_cast<double>(s.header_bytes_sent) /
        static_cast<double>(s.datagrams_sent));
  }
}
BENCHMARK(BM_EndToEndCompact);

void print_sizes() {
  std::size_t word_aligned = 0;
  std::size_t bits = 0;
  for (const auto& fields : kStackFields) {
    for (const auto& f : fields) {
      word_aligned += f.bits <= 32 ? 4 : 8;
      bits += static_cast<std::size_t>(f.bits);
    }
  }
  std::printf(
      "=== Section 10 fix 3: header compaction ===\n"
      "TOTAL:MBRSHIP:FRAG:NAK:COM header footprint per data message:\n"
      "  classic word-aligned blocks : %zu bytes\n"
      "  compacted bit-packed region : %zu bytes (%zu bits)\n"
      "  saving                      : %.0f%%\n\n",
      word_aligned, (bits + 7) / 8, bits,
      100.0 * (1.0 - static_cast<double>((bits + 7) / 8) /
                         static_cast<double>(word_aligned)));
}

}  // namespace

int main(int argc, char** argv) {
  print_sizes();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
