// Execution model for protocol stacks (paper Section 3).
//
// Horus originally ran stacks with pre-emptive threads and per-layer locks,
// and the paper reports that locking was "a source of bugs in layers
// developed by inexperienced thread users" plus a measurable cost (Section
// 10, problem 2). Its remedy is a monitor that "treats a layer as a
// monitor, allowing only one thread at a time to be active for each group
// object": a run-to-completion event queue. Section 10 adds that
// concurrency within a stack "does not lead to significant gains", so one
// executor realizes that reading:
//
//  * GroupExecutor -- one run-to-completion FIFO drained by one thread in
//                     global post order. In the simulator that thread is
//                     the caller, so worlds stay reproducible; on a real
//                     network it is the node loop (net/runtime.hpp), and
//                     posts from other threads reach it through the inbox.
//
// The paper's other models (direct calls, the event-counter scheme, a
// thread pool with a per-stack lock) exist only to be measured; they live
// in bench/bench_exec_models.cpp.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "horus/util/thread_annotations.hpp"

namespace horus::runtime {

using Task = std::function<void()>;

/// Identity of the paper's unit of mutual exclusion: the group object.
/// Stacks pass the group id; tasks not bound to any group use kNoGroup.
using GroupKey = std::uint64_t;
constexpr GroupKey kNoGroup = 0;

/// Abstract execution model: how work enters a protocol stack.
class Executor {
 public:
  virtual ~Executor() = default;
  /// Submit a task bound to a group, the unit of mutual exclusion
  /// (Section 3). Depending on the model it may run before post returns.
  virtual void post(GroupKey key, Task t) = 0;
};

/// The per-group monitor (Section 3 read literally: "one thread at a time
/// ... active for each group object"). Deterministic: while a task runs,
/// tasks it posts -- for any group -- queue behind it, and one thread
/// drains one FIFO in global post order. That order is the observable
/// schedule horus-check hashes, so it never depends on which groups are
/// involved.
///
/// By default the posting thread drains the FIFO (the simulator's single
/// driver thread). A node loop instead sets a wake callback: from then on
/// only the loop thread -- the one that calls run_inbox() -- runs tasks. A
/// post from any other thread lands in a locked inbox and calls the wake
/// callback; the loop moves the inbox into the FIFO on its next
/// run_inbox(), so posts from one thread keep their order.
class GroupExecutor final : public Executor {
 public:
  /// Observe every dispatch decision: called with (group, dispatch
  /// sequence) immediately before each task runs. horus-check folds this
  /// stream into its run hash so that a replay divergence in *scheduling*
  /// (not just in application-visible events) is detected. Null clears.
  using DispatchTrace = std::function<void(GroupKey, std::uint64_t)>;
  void set_trace(DispatchTrace t) { trace_ = std::move(t); }

  /// Hand the executor to a loop thread. Set it before that thread starts:
  /// `wake` is then called, on the posting thread, whenever a post from
  /// another thread finds the inbox empty. Null detaches again, after the
  /// loop thread is gone: whatever is left in the inbox runs on the
  /// calling thread, and posts run inline on their poster from then on.
  void set_wake(std::function<void()> wake);
  /// Loop thread only: mark the calling thread as the loop thread and run
  /// the tasks other threads posted since the last call, in post order.
  void run_inbox();

  /// Queued (not yet started) tasks, inbox excluded.
  [[nodiscard]] std::size_t pending() const { return size_; }
  [[nodiscard]] std::uint64_t executed() const { return executed_; }

  void post(GroupKey key, Task t) override;

 private:
  /// One queued task. `posted_ns` is the post time of a task the
  /// queue-delay probe sampled (1 in 64 while obs::enabled()), else 0; run()
  /// records the delay just before the task starts.
  struct Slot {
    GroupKey key = kNoGroup;
    std::uint64_t posted_ns = 0;
    Task task;
  };

  void push(Slot s);
  /// Drain the FIFO unless a frame below us already does.
  void run();
  void grow();
  /// Move the inbox into the FIFO (loop thread or detached executor).
  void take_inbox();

  // The FIFO is a ring over a power-of-two vector that only grows: slots
  // are reused in place, so once warmed up a post touches the heap for
  // nothing but the task itself (a std::deque allocates a chunk every
  // dozen tasks).
  std::vector<Slot> ring_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  std::uint64_t executed_ = 0;
  bool running_ = false;
  DispatchTrace trace_;
  std::function<void()> wake_;
  // The inbox is the one place other threads meet the loop thread: their
  // posts go in, the loop's take_inbox takes them out.
  util::Mutex inbox_mu_;
  std::vector<Slot> inbox_ GUARDED_BY(inbox_mu_);
};

}  // namespace horus::runtime
