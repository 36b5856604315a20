// Section 10, problem 2: "since Horus is thread-safe, multiple procedure
// calls into the same layer often have to be synchronized by a lock. To
// avoid deadlock, it is sometimes necessary to invoke an upcall as a
// thread. ... we are eliminating intra-stack threading, having discovered
// that concurrency within a stack does not lead to significant gains."
//
// Measures the cost of pushing work through each execution model:
//   inline     -- direct procedure calls (no protection);
//   monitor    -- the paper's recommended run-to-completion monitor
//                 (runtime::GroupExecutor, the default);
//   sequenced  -- the event-counter ordering scheme;
//   threadpool -- real kernel threads + the per-stack lock (old Horus);
// plus the end-to-end message cost of a full stack driven by the monitor
// vs the sequenced executor. Only the monitor runs outside this benchmark;
// the other three are defined here.
#include <benchmark/benchmark.h>

#include <condition_variable>
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "horus/core/endpoint.hpp"
#include "horus/core/sim_transport.hpp"
#include "horus/layers/registry.hpp"
#include "horus/runtime/executor.hpp"
#include "horus/sim/network.hpp"
#include "horus/sim/scheduler.hpp"
#include "horus/util/thread_annotations.hpp"

using namespace horus;
using namespace horus::bench;

namespace {

using runtime::GroupKey;
using runtime::kNoGroup;
using runtime::Task;

/// Direct calls; tasks run immediately and may re-enter the stack.
class InlineExecutor final : public runtime::Executor {
 public:
  void post(GroupKey /*key*/, Task t) override { t(); }
};

/// Event-counter model: tasks carry sequence numbers assigned at post time
/// and execute strictly in sequence order. Thread-safe. All work runs
/// eagerly inside post(), so drain() has nothing to do.
class SequencedExecutor final : public runtime::Executor {
 public:
  void post(GroupKey /*key*/, Task t) override {
    std::unique_lock lock(mu_);
    pending_[next_ticket_++] = std::move(t);
    if (running_) return;
    running_ = true;
    while (true) {
      auto it = pending_.find(next_to_run_);
      if (it == pending_.end()) break;
      Task task = std::move(it->second);
      pending_.erase(it);
      ++next_to_run_;
      lock.unlock();
      try {
        task();
      } catch (...) {
        // Re-latch under the lock so a throwing task cannot wedge the
        // queue; later posts resume from next_to_run_.
        lock.lock();
        running_ = false;
        throw;
      }
      lock.lock();
    }
    running_ = false;
  }

 private:
  std::mutex mu_;
  std::uint64_t next_ticket_ = 0;   // next sequence number to hand out
  std::uint64_t next_to_run_ = 0;   // next sequence number allowed to run
  std::map<std::uint64_t, Task> pending_;
  bool running_ = false;
};

/// Kernel-thread pool with a per-executor mutex around task bodies: how
/// threaded Horus ran a stack.
class ThreadPoolExecutor final : public runtime::Executor {
 public:
  explicit ThreadPoolExecutor(unsigned threads);
  ~ThreadPoolExecutor() override;
  ThreadPoolExecutor(const ThreadPoolExecutor&) = delete;
  ThreadPoolExecutor& operator=(const ThreadPoolExecutor&) = delete;

  /// Condition waits release/reacquire the lock in a pattern the static
  /// analysis cannot follow, hence the opt-out; the dynamic sanitizers
  /// cover these paths instead.
  void drain() NO_THREAD_SAFETY_ANALYSIS;
  void post(GroupKey key, Task t) override;

 private:
  void worker() NO_THREAD_SAFETY_ANALYSIS;

  util::Mutex mu_;
  std::condition_variable cv_;
  std::condition_variable idle_cv_;
  std::deque<Task> queue_ GUARDED_BY(mu_);
  std::vector<std::thread> threads_;
  util::Mutex stack_mu_;  // the per-stack lock the paper talks about
  unsigned active_ GUARDED_BY(mu_) = 0;
  bool stop_ GUARDED_BY(mu_) = false;
};

ThreadPoolExecutor::ThreadPoolExecutor(unsigned threads) {
  threads_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) {
    threads_.emplace_back([this] { worker(); });
  }
}

ThreadPoolExecutor::~ThreadPoolExecutor() {
  {
    util::MutexLock lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPoolExecutor::post(GroupKey /*key*/, Task t) {
  {
    util::MutexLock lock(mu_);
    queue_.push_back(std::move(t));
  }
  cv_.notify_one();
}

void ThreadPoolExecutor::drain() {
  std::unique_lock lock(mu_.native());
  idle_cv_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

void ThreadPoolExecutor::worker() {
  for (;;) {
    Task task;
    {
      std::unique_lock lock(mu_.native());
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    {
      // One thread inside the stack at a time, as in threaded Horus.
      util::MutexLock stack_lock(stack_mu_);
      task();
    }
    {
      util::MutexLock lock(mu_);
      --active_;
      if (queue_.empty() && active_ == 0) idle_cv_.notify_all();
    }
  }
}

void BM_Inline(benchmark::State& state) {
  InlineExecutor ex;
  std::uint64_t n = 0;
  for (auto _ : state) {
    ex.post(kNoGroup, [&n] { ++n; });
  }
  benchmark::DoNotOptimize(n);
}
BENCHMARK(BM_Inline);

// The monitor as stacks use it: posts round-robin over 8 groups.
void BM_Monitor(benchmark::State& state) {
  runtime::GroupExecutor ex;
  std::uint64_t n = 0;
  GroupKey g = 0;
  for (auto _ : state) {
    ex.post(++g & 7, [&n] { ++n; });
  }
  benchmark::DoNotOptimize(n);
}
BENCHMARK(BM_Monitor);

void BM_Sequenced(benchmark::State& state) {
  SequencedExecutor ex;
  std::uint64_t n = 0;
  for (auto _ : state) {
    ex.post(kNoGroup, [&n] { ++n; });
  }
  benchmark::DoNotOptimize(n);
}
BENCHMARK(BM_Sequenced);

void BM_ThreadPool(benchmark::State& state) {
  ThreadPoolExecutor ex(2);
  std::uint64_t n = 0;  // protected by the pool's per-stack lock
  for (auto _ : state) {
    ex.post(kNoGroup, [&n] { ++n; });
  }
  ex.drain();
  benchmark::DoNotOptimize(n);
}
BENCHMARK(BM_ThreadPool);

// A raw mutex acquisition for scale (what each layer call paid in the
// lock-per-layer design).
void BM_MutexLockUnlock(benchmark::State& state) {
  std::mutex mu;
  for (auto _ : state) {
    mu.lock();
    mu.unlock();
  }
}
BENCHMARK(BM_MutexLockUnlock);

// Full-stack messages under the two single-threaded models. The endpoints
// are built by hand, the way HorusSystem would, so each row runs its own
// executor.
void BM_StackUnderExecutor(benchmark::State& state, bool sequenced) {
  auto make_exec = [sequenced]() -> std::unique_ptr<runtime::Executor> {
    if (sequenced) return std::make_unique<SequencedExecutor>();
    return std::make_unique<runtime::GroupExecutor>();
  };
  const std::string spec = "MBRSHIP:FRAG:NAK:COM";
  const HorusSystem::Options opts = Rig::fast_net();
  sim::Scheduler sched;
  sim::SimNetwork net(sched, opts.seed);
  net.set_default_params(opts.net);
  SimTransport transport(net);
  Endpoint a(Address{1}, opts.stack, layers::make_stack(spec),
             opts.network_properties, transport, sched, make_exec());
  Endpoint b(Address{2}, opts.stack, layers::make_stack(spec),
             opts.network_properties, transport, sched, make_exec());
  transport.bind(a);
  transport.bind(b);
  std::uint64_t delivered = 0;
  b.on_upcall([&](Group&, UpEvent& ev) {
    if (ev.type == UpType::kCast) ++delivered;
  });
  a.join(kGroup);
  sched.run_until(sched.now() + 50 * sim::kMillisecond);
  b.join(kGroup, a.address());
  sched.run_until(sched.now() + sim::kSecond);
  Bytes payload(100, 0x61);
  for (auto _ : state) {
    std::uint64_t want = delivered + 1;
    a.cast(kGroup, Message::from_payload(Bytes(payload)));
    for (int guard = 0; guard < 10'000 && delivered < want; ++guard) {
      sched.run_until(sched.now() + 100);
    }
  }
  if (delivered < static_cast<std::uint64_t>(state.iterations())) {
    state.SkipWithError("casts were not delivered");
  }
}

void BM_StackMonitor(benchmark::State& state) {
  BM_StackUnderExecutor(state, false);
}
void BM_StackSequenced(benchmark::State& state) {
  BM_StackUnderExecutor(state, true);
}
BENCHMARK(BM_StackMonitor);
BENCHMARK(BM_StackSequenced);

}  // namespace

int main(int argc, char** argv) {
  std::printf(
      "=== Section 10 problem 2: execution models ===\n"
      "Per-task dispatch cost of each model, the raw mutex cost the old\n"
      "lock-per-layer design paid at every boundary, and full-stack message\n"
      "cost under the monitor vs event-counter models.\n\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
