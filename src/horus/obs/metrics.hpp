// horus-obs: one namespace for every counter in the system (docs/obs.md).
//
// PRs 1..9 grew five disconnected stats islands -- msg_path_stats(),
// StackStats, sim::NetStats, net::UdpStats and the horus-race counters --
// each with its own accessor and no latency story at all. The paper's
// Figure 1 lists "tracing -- debugging, statistics" and "accounting --
// keeping track of usage" as protocol types; operating a composition at
// production scale additionally needs *runtime* instrumentation of the
// framework itself. This registry is that surface:
//
//  * named Counters, Gauges and log2-bucket latency Histograms, owned by
//    the registry with stable addresses, so hot paths resolve a pointer
//    once (at stack construction) and then pay one relaxed atomic add per
//    event -- no name lookup, no lock;
//  * poll adapters that mirror the existing stats islands into the same
//    namespace at snapshot time (the islands stay where they are; the
//    registry reads them, it does not replace them);
//  * consistent snapshots and a Prometheus text-exposition serializer
//    (horus-node --metrics-dump, horus-check --metrics).
//
// The *probes* (Stack latency tracing, executor queue-delay sampling, the
// flight recorder hooks) are always compiled in. At runtime
// set_enabled(false) short-circuits every probe behind one relaxed load
// (bench_obs measures the enabled-vs-disabled delta on the deepest-stack
// cast).
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "horus/util/thread_annotations.hpp"

namespace horus::obs {

/// Monotonic event count. Relaxed increments: every node loop in a process
/// may bump concurrently and the hot path must never lock for a counter.
class Counter {
 public:
  void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-written instantaneous value (queue delay, depth, ...).
class Gauge {
 public:
  void set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t n) { v_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::int64_t value() const {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Log2-bucket latency histogram. Bucket b counts samples whose bit width
/// is b, i.e. bucket 0 holds the value 0 and bucket b (b >= 1) holds
/// [2^(b-1), 2^b). 65 buckets cover the full uint64 range, recording is
/// two relaxed adds and a bit_width -- cheap enough for sampled hot paths.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 65;

  static std::size_t bucket_of(std::uint64_t v) {
    return static_cast<std::size_t>(std::bit_width(v));
  }
  /// Upper bound (exclusive) of bucket b; ~0 for the last bucket.
  static std::uint64_t bucket_limit(std::size_t b) {
    return b >= 64 ? ~0ULL : (1ULL << b);
  }

  void record(std::uint64_t v) {
    buckets_[bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t sum() const {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t bucket(std::size_t b) const {
    return buckets_[b].load(std::memory_order_relaxed);
  }

  void reset() {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> count_{0};
};

/// One consistent read of the whole namespace: owned instruments plus the
/// poll adapters, name-sorted. "Consistent" per instrument (each value is
/// one atomic load); cross-instrument skew is bounded by snapshot duration.
struct Snapshot {
  struct Sample {
    std::string name;
    std::int64_t value = 0;
  };
  struct Hist {
    std::string name;
    std::array<std::uint64_t, Histogram::kBuckets> buckets{};
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    /// Smallest bucket upper bound below which >= p of samples fall.
    [[nodiscard]] std::uint64_t quantile_bound(double p) const;
  };
  std::vector<Sample> counters;
  std::vector<Sample> gauges;
  std::vector<Hist> histograms;

  [[nodiscard]] const Sample* find_counter(const std::string& name) const;
  [[nodiscard]] const Hist* find_histogram(const std::string& name) const;
};

class MetricsRegistry {
 public:
  /// Get-or-create. Returned references have stable addresses for the
  /// registry's lifetime (instruments are never removed), so hot paths
  /// may cache the pointer. Names are dot-separated (`stack.forward_down`,
  /// `layer.down_ns.NAK`); the exporter sanitizes them for Prometheus.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Mirror an external stats island into the namespace: `fn` is invoked
  /// at snapshot time. `owner` scopes the registration lifetime -- a
  /// component registering polls over its own state must remove_polls()
  /// before dying (NodeRuntime does). nullptr = process lifetime.
  void poll_counter(const std::string& name, const void* owner,
                    std::function<std::uint64_t()> fn);
  void poll_gauge(const std::string& name, const void* owner,
                  std::function<std::int64_t()> fn);
  void remove_polls(const void* owner);

  [[nodiscard]] Snapshot snapshot() const;
  /// Prometheus text exposition format (docs/obs.md). Histograms render as
  /// cumulative le-labelled buckets.
  [[nodiscard]] std::string prometheus() const;

  /// Zero every owned instrument (polled islands keep their own state and
  /// are reset where they live). Tests call this between phases.
  void reset();

 private:
  struct Poll {
    const void* owner = nullptr;
    bool is_counter = true;
    std::function<std::int64_t()> fn;
  };
  // Process-global: several nodes' loops and the exporting thread share it.
  mutable util::Mutex mu_;
  // node-based maps: get-or-create never invalidates handed-out addresses
  std::map<std::string, Counter> counters_ GUARDED_BY(mu_);
  std::map<std::string, Gauge> gauges_ GUARDED_BY(mu_);
  std::map<std::string, Histogram> histograms_ GUARDED_BY(mu_);
  std::map<std::string, Poll> polls_ GUARDED_BY(mu_);
};

/// The process-wide registry. First use registers the poll adapters for
/// the process-wide islands (msg_path_stats, horus-race counters); the
/// per-object islands (UdpStats, StackStats) are registered by their
/// owners (NodeRuntime).
MetricsRegistry& metrics();

namespace detail {
/// Storage for the runtime switch; use enabled()/set_enabled().
inline std::atomic<bool> g_metrics_enabled{true};
}  // namespace detail

/// Global runtime switch for every hot-path probe. Inline so a probe
/// site pays one relaxed load, not a cross-TU call -- the stack makes
/// ~50 such checks per deep cast.
[[nodiscard]] inline bool enabled() {
  return detail::g_metrics_enabled.load(std::memory_order_relaxed);
}
inline void set_enabled(bool on) {
  detail::g_metrics_enabled.store(on, std::memory_order_relaxed);
}

/// Monotonic real time for latency probes, in nanoseconds / microseconds.
inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
inline std::uint64_t now_us() { return now_ns() / 1000; }

/// 1-in-64 sampling tick for the executor queue-delay probe: full
/// histograms are not worth two clock reads per task, a 1/64 sample is
/// (docs/obs.md). The stack's per-layer latency probes sample more
/// sparsely (1/256) and are driven by the flight ring's sequence number
/// instead (GroupRing::kSampleMask), which keeps them off thread-local
/// state.
inline bool sample_tick() {
  thread_local std::uint32_t n = 0;
  return (n++ & 0x3Fu) == 0;
}

}  // namespace horus::obs
