#include "horus/net/runtime.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <ctime>
#include <optional>
#include <stdexcept>
#include <system_error>
#include <utility>

#include "horus/analysis/lint.hpp"
#include "horus/layers/registry.hpp"
#include "horus/obs/metrics.hpp"
#include "horus/properties/algebra.hpp"
#include "horus/runtime/executor.hpp"
#include "horus/util/log.hpp"

namespace horus::net {
namespace {

props::PropertySet wire_properties() {
  // UDP gives exactly what SimNetwork models: best-effort datagrams (P1).
  return props::make_set({props::Property::kBestEffort});
}

/// Lint, then instantiate: an ill-formed stack is rejected at startup with
/// the full report instead of misbehaving on the wire.
std::vector<std::unique_ptr<Layer>> build_layers(const std::string& spec) {
  analysis::LintReport rep = analysis::lint_spec(spec, wire_properties());
  if (!rep.ok()) {
    throw std::invalid_argument("ill-formed stack spec " + spec + "\n" +
                                rep.to_string());
  }
  return layers::make_stack(spec);
}

std::int64_t monotonic_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

int checked(int fd, const char* what) {
  if (fd < 0) throw std::system_error(errno, std::generic_category(), what);
  return fd;
}

}  // namespace

NodeRuntime::Fd::~Fd() {
  if (v >= 0) ::close(v);
}

NodeRuntime::NodeRuntime(const AddressBook& book, Address self,
                         NodeConfig cfg)
    : book_(book),
      self_(self),
      cfg_(std::move(cfg)),
      udp_(book_, self_, cfg_.stack.mtu),
      start_ns_(monotonic_ns()),
      epoll_fd_(checked(::epoll_create1(EPOLL_CLOEXEC), "node: epoll_create1")),
      timer_fd_(checked(::timerfd_create(CLOCK_MONOTONIC,
                                         TFD_NONBLOCK | TFD_CLOEXEC),
                        "node: timerfd_create")),
      wake_fd_(checked(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC),
                       "node: eventfd")) {
  Transport* wire = &udp_;
  if (cfg_.enable_fault_shim) {
    shim_ = std::make_unique<FaultShimTransport>(udp_, cfg_.faults, &sched_);
    wire = shim_.get();
  }
  auto exec = std::make_unique<runtime::GroupExecutor>();
  exec_ = exec.get();
  endpoint_ = std::make_unique<Endpoint>(
      self_, cfg_.stack, build_layers(cfg_.spec), wire_properties(), *wire,
      sched_, std::move(exec));
  // Live reconfiguration needs the same spec->layers construction.
  endpoint_->set_layer_factory(&build_layers);
  udp_.bind(*endpoint_);
  for (int fd : {udp_.fd(), timer_fd_.v, wake_fd_.v}) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    checked(::epoll_ctl(epoll_fd_.v, EPOLL_CTL_ADD, fd, &ev),
            "node: epoll_ctl");
  }
  register_metrics();
  // From here on every post from a thread other than the loop goes through
  // the inbox and wakes the loop.
  exec_->set_wake([this] { wake(); });
  loop_ = std::thread([this] { loop(); });
}

void NodeRuntime::register_metrics() {
  // Mirror this node's stats islands into the horus-obs namespace
  // (docs/obs.md). Owner-scoped: shutdown() removes them, because these
  // lambdas read object state that dies with the runtime.
  obs::MetricsRegistry& reg = obs::metrics();
  auto mirror = [&reg, this](const char* name,
                             const std::atomic<std::uint64_t>& c) {
    reg.poll_counter(name, this,
                     [&c] { return c.load(std::memory_order_relaxed); });
  };
  const UdpStats& u = udp_.stats();
  mirror("udp.tx_datagrams", u.tx_datagrams);
  mirror("udp.tx_bytes", u.tx_bytes);
  mirror("udp.tx_batches", u.tx_batches);
  mirror("udp.tx_eagain_retries", u.tx_eagain_retries);
  mirror("udp.tx_oversize_dropped", u.tx_oversize_dropped);
  mirror("udp.tx_unroutable", u.tx_unroutable);
  mirror("udp.tx_full_dropped", u.tx_full_dropped);
  mirror("udp.rx_datagrams", u.rx_datagrams);
  mirror("udp.rx_bytes", u.rx_bytes);
  mirror("udp.rx_wakeups", u.rx_wakeups);
  mirror("udp.rx_truncated", u.rx_truncated);
  mirror("udp.rx_unknown_peer", u.rx_unknown_peer);
  if (shim_ != nullptr) {
    const FaultShimStats& f = shim_->stats();
    mirror("shim.forwarded", f.forwarded);
    mirror("shim.dropped", f.dropped);
    mirror("shim.duplicated", f.duplicated);
    mirror("shim.delayed", f.delayed);
  }
  const StackStats& st = endpoint_->stack().stats();
  mirror("stack.downcalls", st.downcalls);
  mirror("stack.upcalls_to_app", st.upcalls_to_app);
  mirror("stack.datagrams_sent", st.datagrams_sent);
  mirror("stack.datagrams_received", st.datagrams_received);
  mirror("stack.wire_bytes_sent", st.wire_bytes_sent);
  mirror("stack.header_bytes_sent", st.header_bytes_sent);
  mirror("stack.payload_bytes_sent", st.payload_bytes_sent);
}

NodeRuntime::~NodeRuntime() { shutdown(); }

sim::Time NodeRuntime::wall_now() const {
  return static_cast<sim::Time>((monotonic_ns() - start_ns_) / 1000);
}

void NodeRuntime::wake() const {
  std::uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_fd_.v, &one, sizeof(one));
}

void NodeRuntime::arm_timer() {
  std::optional<sim::Time> due = sched_.next_due();
  const sim::Time at = due ? *due : kDisarmed;
  if (at == armed_at_) return;
  armed_at_ = at;
  itimerspec spec{};  // all zero: disarm
  if (due) {
    const std::int64_t ns = start_ns_ + static_cast<std::int64_t>(at) * 1000;
    spec.it_value.tv_sec = ns / 1'000'000'000;
    spec.it_value.tv_nsec = ns % 1'000'000'000;
  }
  ::timerfd_settime(timer_fd_.v, TFD_TIMER_ABSTIME, &spec, nullptr);
}

void NodeRuntime::loop() {
  // A task that throws must not take the node down; the executor keeps
  // whatever was queued behind it, and the loop comes straight back for it.
  auto guarded = [](auto&& step) {
    try {
      step();
    } catch (const std::exception& ex) {
      HLOG_WARN("NODE") << "protocol task threw: " << ex.what();
    }
  };
  guarded([this] { exec_->run_inbox(); });  // also marks this thread as the loop
  std::array<epoll_event, 3> events{};
  for (;;) {
    arm_timer();
    const int timeout = exec_->pending() != 0 ? 0 : -1;
    const int n = ::epoll_wait(epoll_fd_.v, events.data(),
                               static_cast<int>(events.size()), timeout);
    bool readable = false;
    for (int i = 0; i < n; ++i) {
      const int fd = events[static_cast<std::size_t>(i)].data.fd;
      if (fd == udp_.fd()) {
        readable = true;
        continue;
      }
      if (fd == timer_fd_.v) armed_at_ = kDisarmed;  // it fired
      std::uint64_t count = 0;  // reset the eventfd / timerfd counter
      [[maybe_unused]] ssize_t r = ::read(fd, &count, sizeof(count));
    }
    if (stop_.load(std::memory_order_acquire)) return;
    guarded([this] {
      events_.fetch_add(sched_.run_until(wall_now()),
                        std::memory_order_relaxed);
    });
    guarded([this] { exec_->run_inbox(); });
    if (readable) guarded([this] { udp_.read_burst(); });
  }
}

std::size_t NodeRuntime::run_for(std::chrono::milliseconds d) {
  const std::uint64_t before = events_.load(std::memory_order_relaxed);
  std::this_thread::sleep_for(d);
  return events_.load(std::memory_order_relaxed) - before;
}

void NodeRuntime::shutdown() {
  if (down_) return;
  down_ = true;
  // The poll adapters read state owned by this runtime; unhook them before
  // anything below starts dying.
  obs::metrics().remove_polls(this);
  stop_.store(true, std::memory_order_release);
  wake();
  if (loop_.joinable()) loop_.join();
  // Posts from now on run on their poster; what is still in the inbox runs
  // here, so no task is lost and none runs while the endpoint dies.
  exec_->set_wake(nullptr);
}

std::string NodeRuntime::stats_summary() const {
  const UdpStats& s = udp_.stats();
  auto v = [](const std::atomic<std::uint64_t>& c) {
    return std::to_string(c.load(std::memory_order_relaxed));
  };
  std::string out = "udp tx=" + v(s.tx_datagrams) + " (" + v(s.tx_bytes) +
                    "B, " + v(s.tx_batches) + " batches) rx=" +
                    v(s.rx_datagrams) + " (" + v(s.rx_bytes) + "B) drops[" +
                    "oversize=" + v(s.tx_oversize_dropped) +
                    " unroutable=" + v(s.tx_unroutable) +
                    " full=" + v(s.tx_full_dropped) +
                    " truncated=" + v(s.rx_truncated) +
                    " unknown=" + v(s.rx_unknown_peer) + "]";
  if (shim_ != nullptr) {
    const FaultShimStats& f = shim_->stats();
    out += " shim[fwd=" + v(f.forwarded) + " drop=" + v(f.dropped) +
           " dup=" + v(f.duplicated) + " delay=" + v(f.delayed) + "]";
  }
  return out;
}

}  // namespace horus::net
