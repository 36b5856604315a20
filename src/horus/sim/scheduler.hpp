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
// scheduling order. Every schedule() call is stamped, under the queue
// lock, with a monotonically increasing sequence number, and the priority
// queue orders by (deadline, sequence). Two runs that issue the same
// schedule() calls in the same order therefore fire events in exactly the
// same order -- which is what makes recorded executions (horus-check's
// trace record/replay) bit-identical, independent of hash-map iteration
// order or timer-id values. The simulator runs every task on its one
// driver thread, so its posting order is always deterministic.
//
// Thread safety: schedule/cancel/now/next_due may be called from any thread.
// Protocol code runs on the thread that runs the queue (the simulator's
// driver, or a node loop), but Endpoint::join still builds a group's layer
// state -- which arms NAK's timers -- on the caller's thread while a node
// loop may be running the queue. That is the lock's one remaining reason.
// The run methods themselves must stay on one driver thread; event
// closures execute outside the internal lock, so they may freely re-enter
// schedule/cancel. The lock adds no ordering of its own, so
// single-threaded runs are bit-identical to the unlocked implementation.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <queue>
#include <unordered_set>
#include <vector>

#include "horus/analysis/race.hpp"
#include "horus/util/thread_annotations.hpp"

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

  [[nodiscard]] Time now() const {
    return now_.load(std::memory_order_relaxed);
  }

  /// Schedule `fn` to run at now() + delay. Returns a cancellable id.
  TimerId schedule(Duration delay, std::function<void()> fn);

  /// Cancel a previously scheduled event. Safe to call after it fired.
  void cancel(TimerId id);

  /// Run events until the queue is empty. Returns number of events run.
  std::size_t run();

  /// Run events with time <= deadline; advances now() to deadline.
  std::size_t run_until(Time deadline);

  /// Run for a relative duration from current now().
  std::size_t run_for(Duration d) { return run_until(now() + d); }

  /// Run at most one event; returns false if the queue is empty.
  bool step();

  /// Timestamp of the earliest pending (non-cancelled) event, if any. Lets
  /// a node loop arm its timer precisely instead of busy-polling.
  [[nodiscard]] std::optional<Time> next_due() const;

  [[nodiscard]] bool empty() const {
    util::MutexLock lock(mu_);
    return queue_.size() == cancelled_.size();
  }
  [[nodiscard]] std::size_t pending() const {
    util::MutexLock lock(mu_);
    return queue_.size() - cancelled_.size();
  }

 private:
  struct Event {
    Time at = 0;
    std::uint64_t seq = 0;  // tiebreak: FIFO among equal-time events
    TimerId id = 0;
    std::function<void()> fn;
#ifdef HORUS_CHECK_RACES
    // The scheduling thread's clock at schedule() time: the driver thread
    // acquires it before firing, so schedule -> fire is a happens-before
    // edge (state the arming task initialized is legal for the fire path).
    race::ClockSnapshot snap;
#endif
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  /// Drop cancelled events sitting at the head of the queue (so top() is
  /// always a live event). Caller holds mu_.
  void prune_cancelled_locked() const REQUIRES(mu_);
  /// Pop the earliest live event into `out`. Caller holds mu_.
  bool pop_one_locked(Event& out) REQUIRES(mu_);

  mutable util::Mutex mu_;
  std::atomic<Time> now_{0};
  std::uint64_t next_seq_ GUARDED_BY(mu_) = 0;
  TimerId next_id_ GUARDED_BY(mu_) = 1;
  mutable std::priority_queue<Event, std::vector<Event>, Later> queue_
      GUARDED_BY(mu_);
  mutable std::unordered_set<TimerId> cancelled_ GUARDED_BY(mu_);
};

}  // namespace horus::sim
