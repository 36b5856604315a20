// Shared pieces of the benchmark: clocks, CPU rotation, latency histograms
// and the backlog guard, workload payloads, the delivery checker and the
// result record printed as JSON.
#pragma once

#include <sched.h>
#include <time.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "horus/obs/metrics.hpp"
#include "horus/util/bytes.hpp"
#include "horus/util/crc32.hpp"
#include "horus/util/rng.hpp"

namespace pb {

inline std::uint64_t wall_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// CPU time of the whole process (all threads), in seconds.
inline double cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Peak resident set size of this process image, from VmHWM. Not
/// getrusage's ru_maxrss: that survives execve, so it would report the
/// launching script's peak when that was higher.
inline double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::strtod(line + 6, nullptr);
  }
  std::fclose(f);
  return kib / 1024.0;
}

/// Spreads a run over every CPU the process may use. On a shared machine
/// the cores differ in speed, and by more than the bounds: a run left on
/// whichever core the scheduler picked reports that core. Pinning chunk i
/// of a measured phase to the i-th CPU (cyclically) makes every run sample
/// every core alike.
class CpuRotation {
 public:
  /// The CPUs the process was allowed at its first use (before any pin).
  static const CpuRotation& process() {
    static const CpuRotation r;
    return r;
  }

  /// Pin the calling thread, and the threads it starts from now on, to the
  /// i-th allowed CPU (cyclically).
  void pin(std::size_t i) const {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[i % cpus_.size()], &one);
    sched_setaffinity(0, sizeof one, &one);
  }

 private:
  CpuRotation() {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof allowed, &allowed) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &allowed)) cpus_.push_back(c);
      }
    }
  }

  std::vector<int> cpus_;
};

/// Median of a sample (by value: the caller's order is kept).
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Quantile of a log2-bucket registry histogram, interpolated in-bucket.
inline double registry_quantile(const horus::obs::Snapshot::Hist* h, double p) {
  if (h == nullptr || h->count == 0) return 0.0;
  const double rank = p * static_cast<double>(h->count);
  double seen = 0;
  for (std::size_t b = 0; b < h->buckets.size(); ++b) {
    const auto c = static_cast<double>(h->buckets[b]);
    if (c == 0) continue;
    if (seen + c >= rank) {
      const double lo = b == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(b) - 1);
      const double width = b == 0 ? 1.0 : lo;
      return lo + width * (rank - seen) / c;
    }
    seen += c;
  }
  return 0.0;
}

/// Latency histogram in whole microseconds, log-linear (HDR style): exact
/// 1 us bins below kSub, then kSub bins per power of two, so no bin is
/// wider than 1/kSub of the values in it (1.6%). It takes ~18 KB, so the
/// benchmark's own bookkeeping stays a small part of `rss_mb`. A quantile
/// interpolates inside its bin, as if the samples of a bin were spread
/// evenly over it, so a p50 over many integer samples still moves when the
/// distribution moves.
class LatHist {
 public:
  static constexpr int kSubBits = 6;
  static constexpr std::uint64_t kSub = 1u << kSubBits;
  static constexpr int kMaxBits = 40;  ///< larger samples are clamped (12 days)

  LatHist() : bins_(kSub * (kMaxBits - kSubBits + 1), 0) {}

  void add(std::uint64_t us) {
    ++n_;
    us = std::min<std::uint64_t>(us, (std::uint64_t{1} << kMaxBits) - 1);
    if (us < kSub) {
      ++bins_[us];
      return;
    }
    const int shift = std::bit_width(us) - kSubBits - 1;
    ++bins_[static_cast<std::size_t>(shift + 1) * kSub + (us >> shift) - kSub];
  }

  void merge(const LatHist& o) {
    n_ += o.n_;
    for (std::size_t i = 0; i < bins_.size(); ++i) bins_[i] += o.bins_[i];
  }

  [[nodiscard]] std::uint64_t count() const { return n_; }

  /// Value below which a share `p` of the samples lies.
  [[nodiscard]] double quantile(double p) const {
    if (n_ == 0) return 0.0;
    const double rank = p * static_cast<double>(n_);
    double seen = 0;
    for (std::size_t i = 0; i < bins_.size(); ++i) {
      if (bins_[i] == 0) continue;
      const double c = static_cast<double>(bins_[i]);
      if (seen + c >= rank) {
        // Bin i covers [lo, lo + width).
        const int shift = i < kSub ? 0 : static_cast<int>(i / kSub) - 1;
        const std::uint64_t mant = i < kSub ? i : kSub + i % kSub;
        const double lo = static_cast<double>(mant << shift);
        return lo + std::ldexp(1.0, shift) * (rank - seen) / c;
      }
      seen += c;
    }
    return std::ldexp(1.0, kMaxBits);
  }

 private:
  std::uint64_t n_ = 0;
  std::vector<std::uint64_t> bins_;
};

/// Workload payload: [crc32 of the rest][sender u64][seq u64][filler].
/// Self-verifying, so receivers check content without a table of what was
/// sent. The filler is a slice of a seeded random pool.
class PayloadMaker {
 public:
  static constexpr std::size_t kHeader = 4 + 8 + 8;

  explicit PayloadMaker(std::uint64_t seed) : pool_(kPool + 8192) {
    horus::Rng rng(horus::stream_seed(seed, 0x9a710ad));
    for (auto& b : pool_) b = static_cast<std::uint8_t>(rng.next_u64());
  }

  [[nodiscard]] horus::Bytes make(std::uint64_t sender, std::uint64_t seq,
                                  std::size_t size) const {
    horus::Bytes b(std::max(size, kHeader));
    std::memcpy(b.data() + 4, &sender, 8);
    std::memcpy(b.data() + 12, &seq, 8);
    const std::size_t off = (seq * 131 + sender * 977) % kPool;
    std::memcpy(b.data() + kHeader, pool_.data() + off, b.size() - kHeader);
    const std::uint32_t crc =
        horus::crc32(horus::ByteSpan(b.data() + 4, b.size() - 4));
    std::memcpy(b.data(), &crc, 4);
    return b;
  }

  /// Decodes (sender, seq); false if the payload is malformed or corrupt.
  static bool parse(horus::ByteSpan p, std::uint64_t& sender,
                    std::uint64_t& seq) {
    if (p.size() < kHeader) return false;
    std::uint32_t crc = 0;
    std::memcpy(&crc, p.data(), 4);
    if (horus::crc32(p.subspan(4)) != crc) return false;
    std::memcpy(&sender, p.data() + 4, 8);
    std::memcpy(&seq, p.data() + 12, 8);
    return true;
  }

 private:
  static constexpr std::size_t kPool = 1 << 16;
  horus::Bytes pool_;
};

/// One member's view of what it delivered: per-sender FIFO (no gap, no
/// duplicate, no reordering) and an order digest over every delivery.
class DeliveryCheck {
 public:
  explicit DeliveryCheck(std::size_t senders) : next_(senders, 0) {}

  /// Returns false on a violation (counted).
  bool deliver(std::uint64_t sender, std::uint64_t seq) {
    if (sender >= next_.size() || seq != next_[sender]) {
      ++violations_;
      return false;
    }
    ++next_[sender];
    ++delivered_;
    digest_ = horus::fnv1a64_step(horus::fnv1a64_step(digest_, sender), seq);
    return true;
  }
  void malformed() { ++violations_; }

  [[nodiscard]] std::uint64_t delivered() const { return delivered_; }
  [[nodiscard]] std::uint64_t delivered_from(std::size_t s) const {
    return next_[s];
  }
  [[nodiscard]] std::uint64_t violations() const { return violations_; }
  [[nodiscard]] std::uint64_t digest() const { return digest_; }

 private:
  std::vector<std::uint64_t> next_;
  std::uint64_t delivered_ = 0;
  std::uint64_t violations_ = 0;
  std::uint64_t digest_ = horus::kFnvBasis;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one invocation prints: the verdict, the failure share and the
/// metrics of the requested kind.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> problems;  ///< why `correct` is false

  void fail(std::string why) {
    correct = false;
    problems.push_back(std::move(why));
  }
  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

/// Latencies of a measured phase: all of them, and those of its first and
/// last quarter, which the backlog guard compares.
struct Latencies {
  LatHist all, first_quarter, last_quarter;

  void merge(const Latencies& o) {
    all.merge(o.all);
    first_quarter.merge(o.first_quarter);
    last_quarter.merge(o.last_quarter);
  }

  /// Backlog guard: an offered rate above capacity shows as a p99 that
  /// grows through the run. Fails the run if the last quarter's p99 exceeds
  /// the first quarter's by more than `bound`.
  void backlog_guard(double bound, Result& res) const {
    const double first = first_quarter.quantile(0.99);
    const double last = last_quarter.quantile(0.99);
    std::printf("backlog guard: p99 first quarter %.1f us, last quarter %.1f us\n",
                first, last);
    if (last > first * (1.0 + bound)) {
      res.fail("backlog: p99 grew from the first to the last quarter");
    }
  }
};

/// Settings of one run, from the command line.
struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Allowed growth of p99 from the first to the last quarter of the
  /// measured phase (the lat_p99_us bound of BENCHMARK.json).
  double backlog_bound = 0.25;
  /// Where the traced run writes the spans of sampled casts.
  std::string trace_dir;
};

}  // namespace pb
