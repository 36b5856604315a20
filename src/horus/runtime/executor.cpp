#include "horus/runtime/executor.hpp"

#include <algorithm>
#include <utility>

#include "horus/obs/metrics.hpp"

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

/// The sampled post->run delay: gauge `exec.queue_delay_ns` and histogram
/// `exec.queue_delay_hist_ns` (docs/obs.md).
void record_queue_delay(std::uint64_t d) {
  // Resolved once: the registry hands out stable addresses.
  static obs::Gauge& gauge = obs::metrics().gauge("exec.queue_delay_ns");
  static obs::Histogram& hist =
      obs::metrics().histogram("exec.queue_delay_hist_ns");
  gauge.set(static_cast<std::int64_t>(d));
  hist.record(d);
}

}  // namespace

void GroupExecutor::post(GroupKey key, Task t) {
  Slot s{key, obs::enabled() && obs::sample_tick() ? obs::now_ns() : 0,
         std::move(t)};
  if (wake_ && t_loop_of != this) {
    bool was_empty = false;
    {
      util::MutexLock lock(inbox_mu_);
      was_empty = inbox_.empty();
      inbox_.push_back(std::move(s));
    }
    // A non-empty inbox already has a wake-up on its way.
    if (was_empty) wake_();
    return;
  }
  push(std::move(s));
  run();
}

void GroupExecutor::push(Slot s) {
  if (size_ == ring_.size()) grow();
  ring_[(head_ + size_) & (ring_.size() - 1)] = std::move(s);
  ++size_;
}

void GroupExecutor::run() {
  if (running_) return;  // the draining frame below us will pick it up
  RunningGuard guard(running_);
  while (size_ != 0) {
    Slot s = std::move(ring_[head_]);
    head_ = (head_ + 1) & (ring_.size() - 1);
    --size_;
    ++executed_;
    if (trace_) trace_(s.key, executed_);
    if (s.posted_ns != 0) record_queue_delay(obs::now_ns() - s.posted_ns);
    s.task();  // may throw: guard unlatches running_, the rest stay queued
  }
}

void GroupExecutor::grow() {
  std::vector<Slot> bigger(
      std::max<std::size_t>(16, 2 * ring_.size()));
  for (std::size_t i = 0; i < size_; ++i) {
    bigger[i] = std::move(ring_[(head_ + i) & (ring_.size() - 1)]);
  }
  ring_ = std::move(bigger);
  head_ = 0;
}

void GroupExecutor::take_inbox() {
  util::MutexLock lock(inbox_mu_);
  for (Slot& s : inbox_) push(std::move(s));
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
