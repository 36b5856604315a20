// Allocation profile of the message hot path (ISSUE: zero-allocation
// tx). Reports, per operation, heap allocations (counting global operator
// new) and bytes copied inside Message (msg_path_stats), alongside ns/op:
//
//  * BM_BuilderHotPath  -- the pooled linear builder alone: acquire ->
//    make_linear -> prepend (external Writer) -> finalize_wire -> release.
//    Steady state must report allocs_per_op == 0.
//  * BM_EndpointCast    -- a full cast through a live stack; allocs/op here
//    includes the event machinery, while pool_miss_per_op and
//    copied_bytes_per_op isolate the message path itself.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "bench_util.hpp"
#include "horus/core/message.hpp"
#include "horus/core/wirebuf.hpp"
#include "horus/util/hotpath_stats.hpp"
#include "horus/util/serialize.hpp"

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace horus::bench {
namespace {

constexpr std::size_t kPayload = 64;

void BM_BuilderHotPath(benchmark::State& state) {
  WireBufPool pool(512);
  Bytes payload(kPayload, 0x61);

  auto one_cast = [&] {
    WireBufRef wb = pool.acquire(512);
    Message m = Message::make_linear(std::move(wb), 0, 4, ByteSpan(payload));
    MutByteSpan h = m.prepend(12);
    Writer w(h);
    w.u32(7);
    w.u32(1234);
    w.u32(0xdeadbeef);
    MutByteSpan frame = m.finalize_wire(42, 0, 4);
    benchmark::DoNotOptimize(frame.data());
  };
  for (int i = 0; i < 4; ++i) one_cast();  // warm the pool

  auto& stats = msg_path_stats();
  std::uint64_t allocs0 = g_allocs.load();
  std::uint64_t copied0 = stats.bytes_copied.load();
  for (auto _ : state) one_cast();
  auto n = static_cast<double>(state.iterations());
  state.counters["allocs_per_op"] =
      static_cast<double>(g_allocs.load() - allocs0) / n;
  state.counters["copied_bytes_per_op"] =
      static_cast<double>(stats.bytes_copied.load() - copied0) / n;
}
BENCHMARK(BM_BuilderHotPath);

void BM_EndpointCast(benchmark::State& state, const std::string& spec) {
  Rig rig(spec, 2);
  Bytes payload(kPayload, 0x61);
  for (int i = 0; i < 16; ++i) rig.cast_and_settle(payload);  // warm pools

  auto& stats = msg_path_stats();
  std::uint64_t allocs0 = g_allocs.load();
  std::uint64_t copied0 = stats.bytes_copied.load();
  std::uint64_t miss0 = stats.pool_misses.load();
  for (auto _ : state) rig.cast_and_settle(payload);
  auto n = static_cast<double>(state.iterations());
  state.counters["allocs_per_op"] =
      static_cast<double>(g_allocs.load() - allocs0) / n;
  state.counters["copied_bytes_per_op"] =
      static_cast<double>(stats.bytes_copied.load() - copied0) / n;
  state.counters["pool_miss_per_op"] =
      static_cast<double>(stats.pool_misses.load() - miss0) / n;
}
BENCHMARK_CAPTURE(BM_EndpointCast, com, "COM");
BENCHMARK_CAPTURE(BM_EndpointCast, frag_nak_com, "FRAG:NAK:COM");
BENCHMARK_CAPTURE(BM_EndpointCast, deep, "TOTAL:MBRSHIP:FRAG:NAK:COM");

}  // namespace
}  // namespace horus::bench

BENCHMARK_MAIN();
