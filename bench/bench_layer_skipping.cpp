// Section 10, fix 1: "we will avoid unnecessary invocations of a layer,
// skipping layers that take no action on the way down or up."
//
// Stacks N NOP layers (self-declared skippable) over NAK:COM and measures
// end-to-end message cost, against the same tower built of PASS layers --
// the same no-op without the skip declarations, so every data event visits
// each one. The PASS tower is the cost the optimization removes. Both
// layers live in baselines.hpp, outside the registry.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>

#include "baselines.hpp"

using namespace horus;
using namespace horus::bench;

namespace {

std::string tower(const char* layer, int n) {
  std::string s;
  for (int i = 0; i < n; ++i) s += std::string(layer) + ":";
  return s + "NAK:COM";
}

void BM_Tower(benchmark::State& state, const char* layer) {
  Rig rig(tower(layer, static_cast<int>(state.range(0))), 2, baseline_net());
  Bytes payload(100, 0x61);
  for (auto _ : state) {
    rig.cast_and_settle(payload);
  }
}

void BM_SkippingOn(benchmark::State& state) { BM_Tower(state, "NOP"); }
void BM_SkippingOff(benchmark::State& state) { BM_Tower(state, "PASS"); }

BENCHMARK(BM_SkippingOn)->Arg(0)->Arg(4)->Arg(16)->Arg(64);
BENCHMARK(BM_SkippingOff)->Arg(0)->Arg(4)->Arg(16)->Arg(64);

}  // namespace

int main(int argc, char** argv) {
  std::printf(
      "=== Section 10 fix 1: skipping no-op layers ===\n"
      "N no-op layers over NAK:COM; Arg is N. ON stacks skippable NOPs: the\n"
      "data path cost must stay flat in N. OFF stacks PASS, the same no-op\n"
      "without the skip flags: the cost grows with N.\n\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
