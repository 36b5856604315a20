// NodeRuntime: one Horus group member on a real network. Owns the whole
// vertical for a single process -- scheduler, UDP transport (optionally
// wrapped in the fault shim) and endpoint -- and exactly one thread, the
// node loop, which runs all of it:
//
//   * one epoll_wait over three fds: the UDP socket, a timerfd armed at
//     Scheduler::next_due, and an eventfd that other threads write when
//     they post work into the executor's inbox;
//   * on every wake-up, in this order: advance virtual time to the wall
//     clock and fire what is due, run what other threads posted, read the
//     socket. Posts go before the socket so that a node runs its own
//     join() before a peer's JOINREQ that arrived in the meantime;
//   * protocol code runs inline on the endpoint's GroupExecutor, the
//     paper's monitor (Section 3), so a datagram, a timer or a cast never
//     changes threads inside the node;
//   * virtual time is microseconds of the monotonic clock since the runtime
//     was built, so the same layer code runs unmodified against real time;
//   * the socket takes its MTU from StackConfig::mtu, so FRAG fragments
//     to what the socket will actually carry;
//   * shutdown stops and joins the loop, runs what is left in the inbox on
//     the calling thread, and keeps the endpoint for inspection.
//
// Any thread may call the endpoint's downcalls (join, cast, leave, ...):
// each posts one task into the executor's inbox, and the loop builds the
// group, arms its timers and descends the stack. Upcalls run on the node
// loop. The inbox is the only place other threads meet the node; the
// scheduler, transport and endpoint hold no lock. This is what
// tools/horus-node and the multi-process examples build on.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>

#include "horus/core/endpoint.hpp"
#include "horus/net/address_book.hpp"
#include "horus/net/fault_shim.hpp"
#include "horus/net/udp.hpp"

namespace horus::net {

struct NodeConfig {
  /// Stack spec for the node's base stack, top to bottom.
  std::string spec = "MBRSHIP:FRAG:NAK:COM";
  /// Stack tuning. `stack.mtu` also bounds the UDP socket's datagrams.
  StackConfig stack;
  /// Wire fault injection; installed only when enable_fault_shim is set
  /// (a zero-rate shim still costs an RNG decision per datagram).
  FaultShimConfig faults;
  bool enable_fault_shim = false;
};

class NodeRuntime {
 public:
  /// Binds the socket, builds the stack, starts the node loop. Throws on
  /// book/spec/socket problems -- a node that cannot come up correctly
  /// must not come up at all.
  NodeRuntime(const AddressBook& book, Address self, NodeConfig cfg = {});
  ~NodeRuntime();
  NodeRuntime(const NodeRuntime&) = delete;
  NodeRuntime& operator=(const NodeRuntime&) = delete;

  [[nodiscard]] Endpoint& endpoint() { return *endpoint_; }
  [[nodiscard]] UdpTransport& udp() { return udp_; }
  /// Null when the shim is not enabled.
  [[nodiscard]] FaultShimTransport* fault_shim() { return shim_.get(); }
  [[nodiscard]] sim::Scheduler& scheduler() { return sched_; }
  [[nodiscard]] const AddressBook& book() const { return book_; }
  [[nodiscard]] Address self() const { return self_; }

  /// Wait for a wall-clock duration; the node loop runs by itself
  /// meanwhile. Returns the scheduler events the loop ran during the wait.
  std::size_t run_for(std::chrono::milliseconds d);

  /// Stop and join the node loop, then run the tasks other threads left in
  /// its inbox on the calling thread. Idempotent; the destructor calls it.
  /// The endpoint survives for post-run inspection.
  void shutdown();

  /// One-line wire counters for logs and the horus-node tool.
  [[nodiscard]] std::string stats_summary() const;

 private:
  /// An owned file descriptor (closed on destruction).
  struct Fd {
    int v = -1;
    Fd() = default;
    explicit Fd(int fd) : v(fd) {}
    ~Fd();
    Fd(const Fd&) = delete;
    Fd& operator=(const Fd&) = delete;
  };

  /// Mirror UdpStats / shim / base-stack StackStats into the horus-obs
  /// registry, owner-scoped to this runtime (shutdown unhooks them).
  void register_metrics();
  void loop();
  /// Arm the timerfd at the scheduler's next due event, or disarm it.
  void arm_timer();
  /// Virtual time now: microseconds of the monotonic clock since start_ns_.
  [[nodiscard]] sim::Time wall_now() const;
  void wake() const;

  AddressBook book_;
  Address self_;
  NodeConfig cfg_;
  sim::Scheduler sched_;
  UdpTransport udp_;
  std::unique_ptr<FaultShimTransport> shim_;
  runtime::GroupExecutor* exec_ = nullptr;  // owned by endpoint_
  std::unique_ptr<Endpoint> endpoint_;
  std::int64_t start_ns_ = 0;
  Fd epoll_fd_;
  Fd timer_fd_;
  Fd wake_fd_;
  static constexpr sim::Time kDisarmed = ~sim::Time{0};
  sim::Time armed_at_ = kDisarmed;  // loop thread only
  std::atomic<bool> stop_{false};          // set by shutdown() on its caller
  std::atomic<std::uint64_t> events_{0};  // read by run_for() on its caller
  std::thread loop_;
  bool down_ = false;
};

}  // namespace horus::net
