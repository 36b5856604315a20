// horus-obs flight recorder: the last N events per group, always on,
// dumped only when something goes wrong (docs/obs.md).
//
// Counters say *how much*; when a horus-check oracle fails or horus-race
// reports a violation, the question is *what just happened* -- which
// events, through which layers, in what order. The flight recorder keeps
// a fixed-size ring of the most recent stack-boundary events per group:
// event type, layer index, payload size, virtual (scheduler) time and
// source endpoint, plus one real-time stamp per window. Recording is a
// handful of relaxed loads and stores into
// preallocated slots -- no atomic RMW, no allocation, no lock, no
// formatting -- so it is cheap enough to leave on in production builds.
//
// Dumps are produced on: horus-check oracle failure (next to repro.json),
// horus-race violations (via race::set_violation_hook), the FLIGHT dump
// downcall, and SIGUSR1 in horus-node.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "horus/obs/metrics.hpp"
#include "horus/util/thread_annotations.hpp"

namespace horus::obs {

/// What happened at a stack boundary. Stored in the low byte of the
/// packed meta word.
enum class FrEvent : std::uint8_t {
  kDowncall = 1,     ///< application downcall entering the top of the stack
  kForwardDown = 2,  ///< event crossing a layer boundary on the way down
  kForwardUp = 3,    ///< event crossing a layer boundary on the way up
  kAppDeliver = 4,   ///< event delivered to the application sink
  kDatagramRx = 5,   ///< raw datagram handed to the bottom layer
};

/// Layer field value meaning "no layer" (application / transport edge).
inline constexpr std::uint8_t kFrNoLayer = 0xFF;

/// Fixed-size per-group event ring, **single writer**: every recording
/// site (Stack::forward_down/forward_up and the endpoint's datagram task)
/// runs inside its group's serialized execution context -- the same
/// group-ownership discipline horus-race enforces -- so the slot cursor
/// advances with a plain relaxed load+store instead of a fetch_add and the
/// hot path performs no atomic RMW (on x86: no full fence). Fields stay
/// relaxed atomics so concurrent *readers* (a dump from another thread)
/// may observe a torn or half-written *entry* (fields from two different
/// events) but never a torn *field* and never undefined behavior -- an
/// acceptable trade for a recorder whose output is only read post-mortem.
class GroupRing {
 public:
  static constexpr std::size_t kEntries = 256;
  /// Latency-sampling period, driven by the ring sequence instead of a
  /// thread-local tick: record() returns the event's sequence number and
  /// callers take their sampled (clock-paying) path when
  /// `(seq & kSampleMask) == 0` -- 1 in 256 events, deterministically
  /// including the group's very first one. Two clock reads per sample on
  /// a ~250ns crossing price the period: 1/256 keeps the latency
  /// histograms inside the < 3% overhead budget (bench_obs).
  static constexpr std::uint64_t kSampleMask = 0xFF;

  struct Entry {
    std::atomic<std::uint64_t> vtime{0};  ///< scheduler virtual time
    /// size<<32 | layer<<8 | event (FrEvent in the low byte).
    std::atomic<std::uint64_t> meta{0};
    std::atomic<std::uint64_t> src{0};  ///< recording endpoint address id
  };

  /// Record one event; returns its ring sequence number (callers use it to
  /// drive kSampleMask latency sampling). Entries carry no real-time
  /// column: the steady clock is read once per kSampleMask+1 events --
  /// exactly once per ring wrap -- into rtime_win_us(), so a whole window
  /// shares one timestamp. Entries order on virtual time and ring
  /// sequence; real time only correlates a dump with external logs, where
  /// window-level granularity is enough.
  std::uint64_t record(FrEvent ev, std::uint8_t layer, std::uint32_t size,
                       std::uint64_t vtime, std::uint64_t src) {
    const std::uint64_t n = next_.load(std::memory_order_relaxed);
    if ((n & kSampleMask) == 0) {
      rtime_win_.store(now_us(), std::memory_order_relaxed);
    }
    std::atomic<std::uint64_t>& c =
        counts_[static_cast<std::size_t>(ev) & (counts_.size() - 1)];
    // Single writer: a plain load+store increment is exact, no RMW.
    c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
    Entry& e = entries_[n & (kEntries - 1)];
    const std::uint64_t meta = (static_cast<std::uint64_t>(size) << 32) |
                               (static_cast<std::uint64_t>(layer) << 8) |
                               static_cast<std::uint64_t>(ev);
    e.vtime.store(vtime, std::memory_order_relaxed);
    e.src.store(src, std::memory_order_relaxed);
    // meta last: a slot with meta==0 has never been written.
    e.meta.store(meta, std::memory_order_relaxed);
    next_.store(n + 1, std::memory_order_relaxed);
    return n;
  }

  /// Total events ever recorded (not capped at kEntries).
  [[nodiscard]] std::uint64_t recorded() const {
    return next_.load(std::memory_order_relaxed);
  }

  /// Lifetime total of one event type. Exact (single-writer increments);
  /// survives reset() so registry mirrors derived from it stay monotonic.
  [[nodiscard]] std::uint64_t count_of(FrEvent ev) const {
    return counts_[static_cast<std::size_t>(ev) & (counts_.size() - 1)].load(
        std::memory_order_relaxed);
  }

  [[nodiscard]] const Entry& entry(std::size_t i) const {
    return entries_[i & (kEntries - 1)];
  }

  /// Steady-clock timestamp of the current window (refreshed once per
  /// ring wrap); dumps print it once in the group header.
  [[nodiscard]] std::uint64_t rtime_win_us() const {
    return rtime_win_.load(std::memory_order_relaxed);
  }

  /// Clear the event window. Event-type counts are deliberately kept: they
  /// feed the registry's `stack.forward_*` mirrors, which must stay
  /// monotonic across horus-check's per-scenario window resets.
  void reset() {
    next_.store(0, std::memory_order_relaxed);
    for (Entry& e : entries_) {
      e.meta.store(0, std::memory_order_relaxed);
    }
  }

 private:
  std::atomic<std::uint64_t> next_{0};
  std::atomic<std::uint64_t> rtime_win_{0};  ///< window clock cache
  std::array<std::atomic<std::uint64_t>, 8> counts_{};
  std::array<Entry, kEntries> entries_{};
};

/// Process-wide map gid -> ring. ring() is get-or-create with a stable
/// address, so Group caches the pointer once at construction and the hot
/// path never takes the map lock.
class FlightRecorder {
 public:
  GroupRing* ring(std::uint64_t gid);

  /// Remember the layer spec ("TOTAL:STABLE:...:COM") for a group so
  /// dumps can print layer names instead of indices.
  void set_layers(std::uint64_t gid, const std::string& colon_spec);

  /// Sum of count_of(ev) over every group ring. Backs the registry's
  /// `stack.forward_*` poll mirrors, so the stack hot path needs no
  /// process-global counter RMW of its own.
  [[nodiscard]] std::uint64_t count_of(FrEvent ev) const;

  /// Human-readable dump of one group's ring, oldest surviving event
  /// first. Empty string when the group never recorded anything.
  [[nodiscard]] std::string dump(std::uint64_t gid) const;
  /// All groups that recorded at least one event.
  [[nodiscard]] std::string dump_all() const;

  /// Clear every ring and forget layer specs. horus-check calls this per
  /// scenario run so a post-failure replay leaves only that run's events.
  void reset();

 private:
  // Process-global: several nodes' loops in one process share the recorder.
  mutable util::Mutex mu_;
  std::map<std::uint64_t, std::unique_ptr<GroupRing>> rings_ GUARDED_BY(mu_);
  std::map<std::uint64_t, std::vector<std::string>> layer_names_
      GUARDED_BY(mu_);
};

FlightRecorder& flight_recorder();

}  // namespace horus::obs
