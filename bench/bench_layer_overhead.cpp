// Section 10 reproduction: the cost of layering.
//
// The paper reports (on a Sparc 10) that the FRAG layer alone "adds about
// 50 usecs to the one-way latency, which is considerable", and attributes
// layering cost to (1) indirect calls per boundary, (2) locking/threads,
// and (3) word-aligned header push/pop. This bench regenerates the *shape*
// of that result on this host:
//
//   * per-message CPU cost of progressively taller stacks (each row adds
//     one layer; the delta column is that layer's overhead);
//   * header bytes added per layer (with the compacted region, only each
//     layer's field bits -- the paper's fix for the "unused bits" problem);
//   * the hand-FUSED NAK+FRAG production layer vs the composed pair (the
//     paper's proposed remedy of fusing common substacks);
//   * the raw network baseline ("very lightweight protocol stacks permit
//     Horus users to obtain the performance of an ATM network with almost
//     no overhead at all", Section 11).
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_util.hpp"
#include "fused.hpp"

using namespace horus;
using namespace horus::bench;

namespace {

// One cast end-to-end (2 members) per iteration; all simulation work is
// CPU, so per-iteration time is the full two-stack traversal + "network".
void BM_Stack(benchmark::State& state, const std::string& spec,
              std::size_t payload_size,
              HorusSystem::Options opts = Rig::fast_net()) {
  Rig rig(spec, 2, std::move(opts));
  Bytes payload(payload_size, 0x61);
  for (auto _ : state) {
    rig.cast_and_settle(payload);
  }
  // Header bytes per data datagram, from the sender's stack stats.
  const StackStats& s = rig.eps[0]->stack().stats();
  if (s.datagrams_sent > 0) {
    state.counters["hdr_B/dgram"] = benchmark::Counter(
        static_cast<double>(s.header_bytes_sent) /
        static_cast<double>(s.datagrams_sent));
  }
}

// Raw network baseline: one datagram, no stack at all.
void BM_RawNetwork(benchmark::State& state) {
  sim::Scheduler sched;
  sim::SimNetwork net(sched);
  net.set_default_params(Rig::fast_net().net);
  std::uint64_t delivered = 0;
  net.attach(2, [&](sim::NodeId, const std::shared_ptr<const Bytes>&) {
    ++delivered;
  });
  Bytes payload(100, 0x61);
  for (auto _ : state) {
    net.send(1, 2, payload);
    sched.run();
  }
  benchmark::DoNotOptimize(delivered);
}
BENCHMARK(BM_RawNetwork);

const std::pair<const char*, const char*> kLadder[] = {
    {"COM", "COM"},
    {"NAK:COM", "+NAK"},
    {"FRAG:NAK:COM", "+FRAG"},
    {"MBRSHIP:FRAG:NAK:COM", "+MBRSHIP"},
    {"TOTAL:MBRSHIP:FRAG:NAK:COM", "+TOTAL"},
};

const std::pair<const char*, const char*> kExtras[] = {
    {"CAUSAL:MBRSHIP:FRAG:NAK:COM", "CAUSAL variant"},
    {"CHKSUM:MBRSHIP:FRAG:NAK:COM", "+CHKSUM"},
    {"SIGN:MBRSHIP:FRAG:NAK:COM", "+SIGN"},
    {"ENCRYPT:MBRSHIP:FRAG:NAK:COM", "+ENCRYPT"},
    {"COMPRESS:MBRSHIP:FRAG:NAK:COM", "+COMPRESS"},
};

// FUSED is not in the layer registry (it exists only to be measured), so
// its row puts it on top of whatever the registry builds below it.
HorusSystem::Options fused_net() {
  HorusSystem::Options o = Rig::fast_net();
  o.stack_factory = [](const std::string& spec) {
    auto below = layers::make_stack(spec.substr(spec.find(':') + 1));
    below.insert(below.begin(), std::make_unique<layers::Fused>());
    return below;
  };
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  std::printf(
      "=== Section 10: per-layer overhead ladder ===\n"
      "Each benchmark measures one multicast end-to-end (2 members) through\n"
      "the given stack; subtract consecutive rows for a layer's added cost.\n"
      "The paper's comparable figure: FRAG alone added ~50us one-way on a\n"
      "Sparc 10. hdr_B/dgram reproduces the header-bytes growth per layer.\n\n");
  for (auto [spec, label] : kLadder) {
    std::string s = spec;
    benchmark::RegisterBenchmark(
        (std::string("ladder/") + label).c_str(),
        [s](benchmark::State& st) { BM_Stack(st, s, 100); });
  }
  for (auto [spec, label] : kExtras) {
    std::string s = spec;
    benchmark::RegisterBenchmark(
        (std::string("extra/") + label).c_str(),
        [s](benchmark::State& st) { BM_Stack(st, s, 100); });
  }
  benchmark::RegisterBenchmark(
      "extra/FUSED (hand-fused NAK+FRAG)", [](benchmark::State& st) {
        BM_Stack(st, "FUSED:COM", 100, fused_net());
      });
  // Payload scaling on the full stack: does layering cost stay flat while
  // payload cost grows?
  for (std::size_t size : {10u, 1000u, 10'000u}) {
    benchmark::RegisterBenchmark(
        ("payload/TOTAL_stack_" + std::to_string(size) + "B").c_str(),
        [size](benchmark::State& st) {
          BM_Stack(st, "TOTAL:MBRSHIP:FRAG:NAK:COM", size);
        });
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
