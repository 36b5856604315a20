// Section 10, problem 1: "there is an indirect procedure call each time a
// layer boundary is crossed." Measures end-to-end cost as pure pass-through
// (PASS) layers are stacked 0..32 deep over NAK:COM, and the same with
// header-writing TAG layers (adds problem 3's header work per layer). The
// paper's claim that "the cost of a layer can be as low as just a few
// instructions at runtime" shows up as the tiny per-PASS-layer slope.
// PASS and TAG live in baselines.hpp, outside the registry.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>

#include "baselines.hpp"

using namespace horus;
using namespace horus::bench;

namespace {

std::string tower(const char* layer, int n, const char* base) {
  std::string s;
  for (int i = 0; i < n; ++i) {
    s += layer;
    s += ':';
  }
  return s + base;
}

void BM_Depth(benchmark::State& state, const char* layer) {
  int depth = static_cast<int>(state.range(0));
  Rig rig(tower(layer, depth, "NAK:COM"), 2, baseline_net());
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

void BM_PassDepth(benchmark::State& state) { BM_Depth(state, "PASS"); }
void BM_TagDepth(benchmark::State& state) { BM_Depth(state, "TAG"); }

BENCHMARK(BM_PassDepth)->Arg(0)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(32);
// Depth 0 is NAK:COM for both; PassDepth/0 measures it once.
BENCHMARK(BM_TagDepth)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

}  // namespace

int main(int argc, char** argv) {
  std::printf(
      "=== Section 10 problem 1: cost per layer boundary ===\n"
      "PASS = boundary crossing only; TAG = crossing + one 32-bit field\n"
      "written into the compacted header region and read back. Both sit\n"
      "over NAK:COM; PassDepth/0 is that base alone. The slope of Time vs\n"
      "depth is the per-layer cost; hdr_B/dgram shows TAG's 4 bytes/layer\n"
      "of region growth.\n\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
