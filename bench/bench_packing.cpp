// The protocol accelerator, measured: message packing (PACK trains)
// against the same stack running one-message-at-a-time. The paper's Section 10 observation is that layered composition
// costs -- per-message descents, per-message headers, per-message
// datagrams -- can be masked by processing messages in groups; the
// interesting number here is the msgs/s ratio at small (64-byte) casts,
// where per-message overhead dominates payload cost.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_util.hpp"

using namespace horus;
using namespace horus::bench;

namespace {

constexpr std::size_t kCastBytes = 64;
constexpr int kBurst = 64;  // casts issued per iteration before settling

/// Burst-cast throughput for one stack: issue kBurst casts, run the sim
/// until the last member delivered all of them, repeat.
void burst_throughput(benchmark::State& state, const char* spec) {
  std::size_t n = static_cast<std::size_t>(state.range(0));
  HorusSystem::Options opts = Rig::fast_net();
  // Size the packing knobs to the burst: tell the stack the transport's
  // real (large, simulated-LAN) MTU so the auto byte budget does not
  // pre-split trains at 1400-byte Ethernet size, and let whole bursts
  // ride one train (the default cap of 16 is tuned for latency under
  // mixed traffic, not burst throughput).
  opts.stack.mtu = static_cast<std::size_t>(opts.net.mtu);
  opts.stack.packing.max_count = kBurst;
  Rig rig(spec, n, opts);
  Bytes payload(kCastBytes, 0x61);
  std::uint64_t sent = 0;
  std::uint64_t dg_before =
      rig.eps[0]->stack().stats().datagrams_sent.load();
  for (auto _ : state) {
    std::uint64_t want = rig.delivered[n - 1] + kBurst;
    for (int i = 0; i < kBurst; ++i) {
      rig.eps[0]->cast(kGroup, Message::from_payload(Bytes(payload)));
    }
    for (int guard = 0; guard < 100'000 && rig.delivered[n - 1] < want;
         ++guard) {
      rig.sys.run_for(100);
    }
    sent += kBurst;
  }
  state.counters["msgs/s"] = benchmark::Counter(
      static_cast<double>(sent), benchmark::Counter::kIsRate);
  state.counters["bytes/s"] = benchmark::Counter(
      static_cast<double>(sent * kCastBytes), benchmark::Counter::kIsRate);
  // Datagrams the sender actually put on the wire per cast: the packing
  // win in one number (1/trainsize vs. 1 with everything else equal).
  std::uint64_t dg =
      rig.eps[0]->stack().stats().datagrams_sent.load() - dg_before;
  state.counters["datagrams/cast"] =
      sent != 0 ? static_cast<double>(dg) / static_cast<double>(sent) : 0.0;
}

void BM_UnpackedSmallCasts(benchmark::State& state) {
  burst_throughput(state, "FRAG:NAK:COM");
}
void BM_PackedSmallCasts(benchmark::State& state) {
  burst_throughput(state, "PACK:FRAG:NAK:COM");
}
BENCHMARK(BM_UnpackedSmallCasts)->Arg(2)->Arg(4);
BENCHMARK(BM_PackedSmallCasts)->Arg(2)->Arg(4);

// The ordered stack: one ordering stamp per train instead of per cast.
void BM_UnpackedOrderedCasts(benchmark::State& state) {
  burst_throughput(state, "TOTAL:MBRSHIP:FRAG:NAK:COM");
}
void BM_PackedOrderedCasts(benchmark::State& state) {
  burst_throughput(state, "PACK:TOTAL:MBRSHIP:FRAG:NAK:COM");
}
BENCHMARK(BM_UnpackedOrderedCasts)->Arg(2);
BENCHMARK(BM_PackedOrderedCasts)->Arg(2);

}  // namespace

int main(int argc, char** argv) {
  std::printf(
      "=== Protocol accelerator: packing ===\n"
      "Arg = group size; casts are %zu bytes, issued in bursts of %d.\n"
      "The packed stacks coalesce each burst into count-capped trains, so\n"
      "one descent, one sequence number and one datagram carry many casts\n"
      "(datagrams/cast shows the wire-level win). The headline comparison\n"
      "is BM_PackedOrderedCasts vs BM_UnpackedOrderedCasts -- the paper's\n"
      "canonical TOTAL:MBRSHIP:FRAG:NAK:COM stack, where per-cast protocol\n"
      "work is largest: target >= 3x msgs/s at 64-byte casts. The light\n"
      "FRAG:NAK:COM rows isolate the wire/descent share of the win.\n\n",
      kCastBytes, kBurst);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
