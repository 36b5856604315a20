#include "horus/runtime/executor.hpp"

#include <algorithm>
#include <utility>

#ifdef HORUS_METRICS
#include "horus/obs/metrics.hpp"
#endif

namespace horus::runtime {
namespace {

/// Clears a drain flag even when a task throws. Without this a throwing
/// task leaves running_ latched and every later post queues forever behind
/// a drain loop that no longer exists.
struct RunningGuard {
  explicit RunningGuard(bool& flag) : flag_(flag) { flag_ = true; }
  ~RunningGuard() { flag_ = false; }
  RunningGuard(const RunningGuard&) = delete;
  RunningGuard& operator=(const RunningGuard&) = delete;

 private:
  bool& flag_;
};

/// The executor whose loop runs on this thread (GroupExecutor::run_inbox
/// sets it). Only loop threads ever set it, and they end with their node.
thread_local const GroupExecutor* t_loop_of = nullptr;

}  // namespace

Task Executor::wrap([[maybe_unused]] GroupKey key, Task t) const {
#ifdef HORUS_METRICS
  t = obs::wrap_queue_delay_probe(std::move(t));
#endif
#ifdef HORUS_CHECK_RACES
  t = race::wrap_task(this, key, std::move(t));
#endif
  return t;
}

void GroupExecutor::enqueue(GroupKey key, Task t) {
  if (wake_ && t_loop_of != this) {
    bool was_empty = false;
    {
      util::MutexLock lock(inbox_mu_);
      was_empty = inbox_.empty();
      inbox_.emplace_back(key, std::move(t));
    }
    // A non-empty inbox already has a wake-up on its way.
    if (was_empty) wake_();
    return;
  }
  push(key, std::move(t));
  run();
}

void GroupExecutor::push(GroupKey key, Task t) {
  if (size_ == ring_.size()) grow();
  ring_[(head_ + size_) & (ring_.size() - 1)] = {key, std::move(t)};
  ++size_;
}

void GroupExecutor::run() {
  if (running_) return;  // the draining frame below us will pick it up
  RunningGuard guard(running_);
  while (size_ != 0) {
    auto [k, task] = std::move(ring_[head_]);
    head_ = (head_ + 1) & (ring_.size() - 1);
    --size_;
    ++executed_;
    if (trace_) trace_(k, executed_);
    task();  // may throw: guard unlatches running_, the rest stay queued
  }
}

void GroupExecutor::grow() {
  std::vector<std::pair<GroupKey, Task>> bigger(
      std::max<std::size_t>(16, 2 * ring_.size()));
  for (std::size_t i = 0; i < size_; ++i) {
    bigger[i] = std::move(ring_[(head_ + i) & (ring_.size() - 1)]);
  }
  ring_ = std::move(bigger);
  head_ = 0;
}

void GroupExecutor::take_inbox() {
  util::MutexLock lock(inbox_mu_);
  for (auto& [key, t] : inbox_) push(key, std::move(t));
  inbox_.clear();
}

void GroupExecutor::run_inbox() {
  t_loop_of = this;
  take_inbox();
  run();
}

void GroupExecutor::set_wake(std::function<void()> wake) {
  wake_ = std::move(wake);
  if (wake_) return;
  take_inbox();
  run();
}

}  // namespace horus::runtime
