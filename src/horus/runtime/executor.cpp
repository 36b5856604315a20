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

/// SplitMix64 finalizer: group ids are typically small sequential integers,
/// so they need real mixing before the modulo or all groups land on a few
/// shards.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

Task Executor::wrap([[maybe_unused]] GroupKey key, Task t,
                    [[maybe_unused]] bool probe) const {
#ifdef HORUS_METRICS
  if (probe) t = obs::wrap_queue_delay_probe(std::move(t));
#endif
#ifdef HORUS_CHECK_RACES
  t = race::wrap_task(this, key, std::move(t));
#endif
  return t;
}

void Executor::post_batch(GroupKey key, std::vector<Task> tasks) {
  if (tasks.empty()) return;
  if (tasks.size() == 1) {
    post(key, std::move(tasks[0]));
    return;
  }
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    tasks[i] = wrap(key, std::move(tasks[i]), /*probe=*/i == 0);
  }
  enqueue_batch(key, std::move(tasks));
}

void Executor::enqueue_batch(GroupKey key, std::vector<Task> tasks) {
  enqueue(key, [tasks = std::move(tasks)]() {
    for (const Task& t : tasks) t();
  });
}

void GroupExecutor::enqueue(GroupKey key, Task t) {
  if (size_ == ring_.size()) grow();
  ring_[(head_ + size_) & (ring_.size() - 1)] = {key, std::move(t)};
  ++size_;
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

ShardedExecutor::ShardedExecutor(unsigned shards) {
  if (shards == 0) shards = 1;
  shards_.reserve(shards);
  for (unsigned i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  // Start workers only after the vector is fully built: workers never touch
  // shards_ itself, but post() from another thread may already be hashing.
  for (auto& s : shards_) {
    s->thread = std::thread([this, sp = s.get()] { worker(*sp); });
  }
}

ShardedExecutor::~ShardedExecutor() {
  for (auto& s : shards_) {
    {
      util::MutexLock lock(s->mu);
      s->stop = true;
    }
    s->cv.notify_all();
  }
  // Workers finish their remaining queue before exiting, so queued work is
  // completed, not dropped.
  for (auto& s : shards_) s->thread.join();
  HORUS_RACE_ACQUIRE_ALL();
}

unsigned ShardedExecutor::shard_of(GroupKey key) const {
  return static_cast<unsigned>(mix(key) % shards_.size());
}

void ShardedExecutor::enqueue(GroupKey key, Task t) {
  Shard& s = *shards_[shard_of(key)];
  inflight_.fetch_add(1, std::memory_order_relaxed);
  {
    util::MutexLock lock(s.mu);
    s.q.push_back(std::move(t));
  }
  s.cv.notify_one();
}

void ShardedExecutor::enqueue_batch(GroupKey key, std::vector<Task> tasks) {
  Shard& s = *shards_[shard_of(key)];
  inflight_.fetch_add(tasks.size(), std::memory_order_relaxed);
  {
    util::MutexLock lock(s.mu);
    for (Task& t : tasks) s.q.push_back(std::move(t));
  }
  s.cv.notify_one();
}

void ShardedExecutor::drain() {
  std::unique_lock lock(idle_mu_.native());
  idle_cv_.wait(lock, [this] {
    return inflight_.load(std::memory_order_acquire) == 0;
  });
  // Everything the workers did happens-before drain() returning: publish
  // their clocks to the caller so post-drain reads are recognized as
  // ordered, not flagged.
  HORUS_RACE_ACQUIRE_ALL();
}

void ShardedExecutor::worker(Shard& s) {
  for (;;) {
    Task task;
    {
      std::unique_lock lock(s.mu.native());
      s.cv.wait(lock, [&s] { return s.stop || !s.q.empty(); });
      if (s.q.empty()) return;  // stop requested and queue fully drained
      task = std::move(s.q.front());
      s.q.pop_front();
    }
    try {
      task();
    } catch (...) {
      exceptions_.fetch_add(1, std::memory_order_relaxed);
    }
    // Destroy captured state (messages, buffers) before declaring the task
    // finished, so drain() returning implies all task side effects are done.
    task = nullptr;
    if (inflight_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      util::MutexLock lock(idle_mu_);
      idle_cv_.notify_all();
    }
  }
}

}  // namespace horus::runtime
