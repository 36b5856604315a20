// Discrete-event scheduler with a virtual clock.
//
// Everything in a Horus process -- timer expirations, message deliveries,
// deferred upcalls -- is an event on this queue. Running the queue to
// quiescence with a fixed RNG seed makes entire multi-process executions
// (including crashes, partitions and message loss) bit-for-bit reproducible,
// which is what the integration tests and the Figure 2 scenario rely on.
//
// Time is in microseconds.
//
// Tie-break guarantee: events with equal deadlines fire strictly in
// scheduling order. Every schedule() call is stamped with a monotonically
// increasing sequence number, and the heap orders by (deadline, sequence).
// Two runs that issue the same schedule() calls in the same order therefore
// fire events in exactly the same order -- which is what makes recorded
// executions (horus-check's trace record/replay) bit-identical, independent
// of hash-map iteration order or timer-id values.
//
// Storage: each live event owns a slot that holds its closure; the heap
// holds only (deadline, sequence, slot). A TimerId names a slot and the
// slot's generation, so cancel() frees a live event in place and a stale
// id -- one that already fired or was cancelled -- is a no-op. Memory is
// bounded by the events live at once, and pending()/empty() are exact.
//
// Threading: one thread owns a scheduler -- the simulator's driver, or a
// node loop (net/runtime.hpp), which also runs every task that arms or
// cancels a timer. Only now() may be read from other threads (a relaxed
// atomic; tests and the node's owner read the loop's clock).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

namespace horus::sim {

/// Virtual time in microseconds since simulation start.
using Time = std::uint64_t;
/// Duration in microseconds.
using Duration = std::uint64_t;

constexpr Duration kMicrosecond = 1;
constexpr Duration kMillisecond = 1000;
constexpr Duration kSecond = 1000 * 1000;

/// Handle for cancelling a scheduled event. 0 is never a valid id.
using TimerId = std::uint64_t;

class Scheduler {
 public:
  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// The only call that is safe from any thread.
  [[nodiscard]] Time now() const {
    return now_.load(std::memory_order_relaxed);
  }

  /// Schedule `fn` to run at now() + delay. Returns a cancellable id.
  TimerId schedule(Duration delay, std::function<void()> fn);

  /// Cancel a scheduled event. A no-op for an id that already fired or was
  /// cancelled.
  void cancel(TimerId id);

  /// Run events until the queue is empty. Returns number of events run.
  std::size_t run();

  /// Run events with time <= deadline; advances now() to deadline.
  std::size_t run_until(Time deadline);

  /// Run for a relative duration from current now().
  std::size_t run_for(Duration d) { return run_until(now() + d); }

  /// Run at most one event; returns false if the queue is empty.
  bool step();

  /// Timestamp of the earliest pending event, if any. Lets a node loop arm
  /// its timer precisely instead of busy-polling.
  [[nodiscard]] std::optional<Time> next_due() const {
    if (heap_.empty()) return std::nullopt;
    return heap_.front().at;
  }

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t pending() const { return heap_.size(); }

 private:
  struct Entry {
    Time at = 0;
    std::uint64_t seq = 0;  // tiebreak: FIFO among equal-time events
    std::uint32_t slot = 0;
  };
  struct Slot {
    std::function<void()> fn;
    std::uint32_t gen = 1;  // bumped on every release; never 0
    std::uint32_t pos = 0;  // index in heap_ while live
  };

  static bool earlier(const Entry& a, const Entry& b) {
    return a.at != b.at ? a.at < b.at : a.seq < b.seq;
  }
  void place(std::size_t i, const Entry& e);
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  /// Take heap_[i] out of the heap (its slot stays allocated).
  void remove_at(std::size_t i);
  /// Free a slot: drop its closure and invalidate every id naming it.
  void release(std::uint32_t slot);
  /// Pop the earliest event, advance now() to it and run it.
  void fire_head();

  std::atomic<Time> now_{0};
  std::uint64_t next_seq_ = 0;
  std::vector<Entry> heap_;  // binary min-heap by (at, seq)
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
};

}  // namespace horus::sim
