// horus-obs overhead budget (docs/obs.md): the acceptance bar is that the
// always-on instrumentation costs < 3% on the deepest-stack cast.
//
// BM_DeepCast_On/Off measure the full end-to-end cast on the deepest
// composed stack with the runtime switch enabled vs disabled -- the same
// binary, so the delta is the probes' dynamic cost (flight ring stores,
// 1/256-sampled clock pairs); BM_DeepCast_ProbeOverhead turns that delta
// into the robust paired `overhead_pct` number. The probes are always
// compiled in; with the switch off each probe site costs one relaxed load.
//
// The micro-benches price the individual instruments so regressions are
// attributable: a counter add and a flight-recorder record must stay in
// the few-ns range or the hot-path budget above stops holding.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <vector>

#include "bench_util.hpp"
#include "horus/obs/flight_recorder.hpp"
#include "horus/obs/metrics.hpp"
#include "horus/runtime/executor.hpp"

using namespace horus;
using namespace horus::bench;

namespace {

// The deepest stack the repo composes end to end: total order + stability
// tracking + membership over reliable fragmented multicast.
constexpr const char* kDeepSpec = "TOTAL:STABLE:MBRSHIP:FRAG:NAK:COM";

void BM_DeepCast(benchmark::State& state, bool metrics_on) {
  obs::set_enabled(metrics_on);
  Rig rig(kDeepSpec);
  Bytes payload(100, 0x61);
  obs::Snapshot before = obs::metrics().snapshot();
  for (auto _ : state) {
    rig.cast_and_settle(payload);
  }
  obs::Snapshot after = obs::metrics().snapshot();
  obs::set_enabled(true);
  // Probe hits per iteration: how many boundary crossings the overhead
  // delta is spread across.
  auto delta = [&](const char* name) -> double {
    const obs::Snapshot::Sample* a = after.find_counter(name);
    const obs::Snapshot::Sample* b = before.find_counter(name);
    return static_cast<double>((a ? a->value : 0) - (b ? b->value : 0));
  };
  if (metrics_on) {
    state.counters["fwd/op"] =
        benchmark::Counter((delta("stack.forward_down") +
                            delta("stack.forward_up")) /
                           static_cast<double>(state.iterations()));
  }
}

void BM_DeepCast_On(benchmark::State& state) { BM_DeepCast(state, true); }
void BM_DeepCast_Off(benchmark::State& state) { BM_DeepCast(state, false); }
BENCHMARK(BM_DeepCast_On);
BENCHMARK(BM_DeepCast_Off);

// The acceptance number. Separate On/Off runs are at the mercy of host
// noise (on a shared single-vCPU box the run-to-run spread exceeds the
// probes' cost), so this benchmark interleaves ~1 ms blocks of casts
// with metrics on and off, alternating which runs first within each
// iteration so drift and warm-up bias cancel, and reports
//   overhead_pct = p10(on blocks) / p10(off blocks) - 1.
// Blocks are timed with *thread CPU time*, which excludes preemption and
// steal outright. What remains regime-dependent is cache-miss stall time
// (a noisy neighbor reloading shared cache between our timeslices), so
// the estimate compares the quiet decile of each population -- the
// interleaving guarantees both populations sample the same quiet spells
// -- which is the probes' intrinsic cost rather than the neighbor's.
void BM_DeepCast_ProbeOverhead(benchmark::State& state) {
  Rig rig(kDeepSpec);
  Bytes payload(100, 0x61);
  constexpr int kBlock = 48;  // casts per block; ~1 ms, shorter than a tick
  auto thread_cpu_s = [] {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
  };
  auto run_block = [&](bool on) {
    obs::set_enabled(on);
    const double t0 = thread_cpu_s();
    for (int i = 0; i < kBlock; ++i) rig.cast_and_settle(payload);
    return thread_cpu_s() - t0;
  };
  run_block(true);  // warm both paths before the first measured pair
  run_block(false);
  std::vector<double> t_on;
  std::vector<double> t_off;
  bool on_first = false;
  for (auto _ : state) {
    if (on_first) {
      t_on.push_back(run_block(true));
      t_off.push_back(run_block(false));
    } else {
      t_off.push_back(run_block(false));
      t_on.push_back(run_block(true));
    }
    on_first = !on_first;
  }
  obs::set_enabled(true);
  auto p10 = [](std::vector<double>& v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 10];
  };
  state.counters["overhead_pct"] = (p10(t_on) / p10(t_off) - 1.0) * 100.0;
}
BENCHMARK(BM_DeepCast_ProbeOverhead)->Unit(benchmark::kMillisecond);

// -- instrument micro-costs -------------------------------------------------

void BM_CounterAdd(benchmark::State& state) {
  obs::Counter c;
  for (auto _ : state) {
    c.add();
  }
  benchmark::DoNotOptimize(c.value());
}
BENCHMARK(BM_CounterAdd);

void BM_HistogramRecord(benchmark::State& state) {
  obs::Histogram h;
  std::uint64_t v = 0;
  for (auto _ : state) {
    h.record(v += 37);
  }
  benchmark::DoNotOptimize(h.count());
}
BENCHMARK(BM_HistogramRecord);

void BM_FlightRingRecord(benchmark::State& state) {
  obs::GroupRing ring;
  std::uint64_t t = 0;
  for (auto _ : state) {
    ++t;
    ring.record(obs::FrEvent::kForwardDown, 3, 100, t, 7);
  }
  benchmark::DoNotOptimize(ring.recorded());
}
BENCHMARK(BM_FlightRingRecord);

void BM_GroupExecutorPost(benchmark::State& state) {
  // Cost of posting + running a task through GroupExecutor with the
  // sampled queue-delay probe on (1 post in 64 takes two clock reads).
  runtime::GroupExecutor exec;
  std::uint64_t n = 0;
  for (auto _ : state) {
    exec.post(1, [&n] { ++n; });
  }
  benchmark::DoNotOptimize(n);
}
BENCHMARK(BM_GroupExecutorPost);

void BM_RegistrySnapshot(benchmark::State& state) {
  obs::MetricsRegistry reg;
  for (int i = 0; i < 64; ++i) {
    reg.counter("c." + std::to_string(i)).add(static_cast<std::uint64_t>(i));
  }
  for (int i = 0; i < 8; ++i) {
    reg.histogram("h." + std::to_string(i)).record(static_cast<std::uint64_t>(i));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(reg.snapshot());
  }
}
BENCHMARK(BM_RegistrySnapshot);

void BM_PrometheusRender(benchmark::State& state) {
  obs::MetricsRegistry reg;
  for (int i = 0; i < 64; ++i) {
    reg.counter("c." + std::to_string(i)).add(static_cast<std::uint64_t>(i));
  }
  for (int i = 0; i < 8; ++i) {
    reg.histogram("h." + std::to_string(i)).record(static_cast<std::uint64_t>(i));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(reg.prometheus());
  }
}
BENCHMARK(BM_PrometheusRender);

}  // namespace

int main(int argc, char** argv) {
  std::printf(
      "=== horus-obs overhead (docs/obs.md) ===\n"
      "Full cast on %s with the metrics runtime switch enabled vs\n"
      "disabled; DeepCast_ProbeOverhead's paired overhead_pct is the\n"
      "acceptance number (bar: < 3%%). Micro-benches price each\n"
      "instrument.\n\n",
      "TOTAL:STABLE:MBRSHIP:FRAG:NAK:COM");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
