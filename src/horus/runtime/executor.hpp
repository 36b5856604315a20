// Execution models for protocol stacks (paper Section 3).
//
// Horus originally ran stacks with pre-emptive threads and per-layer locks,
// and the paper reports that locking was "a source of bugs in layers
// developed by inexperienced thread users" plus a measurable cost (Section
// 10, problem 2). Its remedy is a monitor that "treats a layer as a
// monitor, allowing only one thread at a time to be active for each group
// object": a run-to-completion event queue. The monitor is per *group
// object*, not per stack -- two groups on one stack are independent
// monitors and may progress concurrently. Two executors realize that
// reading:
//
//  * GroupExecutor     -- the deterministic monitor (the default): one
//                         run-to-completion FIFO drained by the calling
//                         thread in global post order, so simulated
//                         worlds stay reproducible.
//  * ShardedExecutor   -- the parallel runtime: groups hash onto N worker
//                         shards, each an MPSC run queue drained by one
//                         kernel thread. One thread at a time is active per
//                         group (its shard's), so layer code still needs no
//                         locks -- Section 10's lesson -- while independent
//                         groups use as many cores as there are shards.
//
// The paper's other models (direct calls, the event-counter scheme, a
// thread pool with a per-stack lock) exist only to be measured; they live
// in bench/bench_exec_models.cpp.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "horus/analysis/race.hpp"
#include "horus/util/thread_annotations.hpp"

namespace horus::runtime {

using Task = std::function<void()>;

/// Identity of the paper's unit of mutual exclusion: the group object.
/// Stacks pass the group id; tasks not bound to any group use kNoGroup
/// (they serialize with group 0's shard, which is always valid).
using GroupKey = std::uint64_t;
constexpr GroupKey kNoGroup = 0;

/// Abstract execution model: how work enters a protocol stack.
class Executor {
 public:
  virtual ~Executor() = default;
  /// Submit a task bound to a group, the unit of mutual exclusion
  /// (Section 3). Depending on the model it may run before post returns.
  void post(GroupKey key, Task t) { enqueue(key, wrap(key, std::move(t))); }
  /// Submit several tasks bound to one group as a unit: they run in order,
  /// back to back, costing one queue round-trip instead of one per task
  /// (the delivery-side half of the packing accelerator).
  void post_batch(GroupKey key, std::vector<Task> tasks);
  /// Run until no queued work remains (no-op for models that do not
  /// queue).
  virtual void drain() {}

 private:
  /// The one place tasks are instrumented: the queue-delay probe innermost
  /// (it times queue residency only, not the race bookkeeping), the
  /// horus-race group frame outermost. A batch probes only its first task:
  /// one enqueue, one delay sample.
  Task wrap(GroupKey key, Task t, bool probe = true) const;
  /// Queue (or run) an already-wrapped task.
  virtual void enqueue(GroupKey key, Task t) = 0;
  /// Queue an already-wrapped batch of two or more tasks. Default: compose
  /// into a single task; models with real queues override to enqueue the
  /// tasks individually under one lock acquisition.
  virtual void enqueue_batch(GroupKey key, std::vector<Task> tasks);
};

/// The per-group monitor (Section 3 read literally: "one thread at a time
/// ... active for each group object"). Single-threaded and deterministic:
/// while a task runs, tasks it posts -- for any group -- queue behind it,
/// and the calling thread drains one FIFO in global post order. That order
/// is the observable schedule horus-check hashes, so it never depends on
/// which groups are involved. This is the default executor for endpoints;
/// ShardedExecutor is its parallel twin.
class GroupExecutor final : public Executor {
 public:
  /// Observe every dispatch decision: called with (group, dispatch
  /// sequence) immediately before each task runs. horus-check folds this
  /// stream into its run hash so that a replay divergence in *scheduling*
  /// (not just in application-visible events) is detected. Null clears.
  using DispatchTrace = std::function<void(GroupKey, std::uint64_t)>;
  void set_trace(DispatchTrace t) { trace_ = std::move(t); }

  /// Queued (not yet started) tasks.
  [[nodiscard]] std::size_t pending() const { return size_; }
  [[nodiscard]] std::uint64_t executed() const { return executed_; }

 private:
  void enqueue(GroupKey key, Task t) override;
  void grow();

  // The FIFO is a ring over a power-of-two vector that only grows: slots
  // are reused in place, so once warmed up a post touches the heap for
  // nothing but the task itself (a std::deque allocates a chunk every
  // dozen tasks).
  std::vector<std::pair<GroupKey, Task>> ring_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  std::uint64_t executed_ = 0;
  bool running_ = false;
  DispatchTrace trace_;
};

/// The sharded runtime: groups hash onto N shards, each an MPSC run queue
/// drained by one kernel thread. All tasks for a group land on the same
/// shard FIFO, so per-group run-to-completion and per-group posting order
/// are preserved with no per-layer locks, while distinct groups on
/// different shards run genuinely in parallel.
///
/// The destructor finishes all queued work before joining the workers. A
/// task that throws is counted (task_exceptions()) and the worker carries
/// on; tasks must not assume exceptions propagate to the poster.
class ShardedExecutor final : public Executor {
 public:
  explicit ShardedExecutor(unsigned shards);
  ~ShardedExecutor() override;
  ShardedExecutor(const ShardedExecutor&) = delete;
  ShardedExecutor& operator=(const ShardedExecutor&) = delete;

  /// Block until every posted task (including tasks posted by tasks) has
  /// finished. Callable from any thread that is not a shard worker.
  /// (Opted out of the static lock analysis: the condition wait's
  /// release/reacquire cycle is invisible to it.)
  void drain() override NO_THREAD_SAFETY_ANALYSIS;

  [[nodiscard]] unsigned shards() const {
    return static_cast<unsigned>(shards_.size());
  }
  /// Which shard a group is pinned to (stable for the executor's lifetime).
  [[nodiscard]] unsigned shard_of(GroupKey key) const;
  /// Tasks that terminated by exception (they are swallowed, not rethrown).
  [[nodiscard]] std::uint64_t task_exceptions() const {
    return exceptions_.load(std::memory_order_relaxed);
  }

 private:
  struct Shard {
    util::Mutex mu;
    std::condition_variable cv;
    std::deque<Task> q GUARDED_BY(mu);
    bool stop GUARDED_BY(mu) = false;
    std::thread thread;
  };

  void enqueue(GroupKey key, Task t) override;
  /// One lock acquisition and one wakeup for the whole burst; the tasks
  /// stay individually queued, so per-task exception isolation holds.
  void enqueue_batch(GroupKey key, std::vector<Task> tasks) override;
  void worker(Shard& s) NO_THREAD_SAFETY_ANALYSIS;

  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::uint64_t> inflight_{0};
  std::atomic<std::uint64_t> exceptions_{0};
  util::Mutex idle_mu_;
  std::condition_variable idle_cv_;
};

}  // namespace horus::runtime
