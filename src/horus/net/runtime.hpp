// NodeRuntime: one Horus group member on a real network. Owns the whole
// vertical for a single process -- scheduler, real-time driver, UDP
// transport (optionally wrapped in the fault shim), sharded executor and
// endpoint -- wired the one correct way:
//
//   * the endpoint always runs a ShardedExecutor: the UDP reactor thread
//     posts deliveries cross-thread, which the default GroupExecutor does
//     not allow;
//   * protocol timers land on a sim::Scheduler pumped by a RealTimeDriver
//     from run_for(), so virtual microseconds track the wall clock and
//     the same layer code runs unmodified against real time;
//   * the transport MTU is plumbed into StackConfig::mtu, so FRAG
//     fragments to what the socket will actually carry;
//   * shutdown is ordered: reactor first (no new deliveries), then the
//     executor drains, then the endpoint dies.
//
// This is what tools/horus-node and the multi-process examples build on.
#pragma once

#include <chrono>
#include <memory>
#include <string>

#include "horus/core/endpoint.hpp"
#include "horus/net/address_book.hpp"
#include "horus/net/fault_shim.hpp"
#include "horus/net/udp.hpp"
#include "horus/sim/realtime.hpp"

namespace horus::net {

struct NodeConfig {
  /// Stack spec for the node's base stack, top to bottom.
  std::string spec = "MBRSHIP:FRAG:NAK:COM";
  /// Stack tuning. `stack.mtu` is overwritten with `udp.mtu`.
  StackConfig stack;
  UdpConfig udp;
  /// Wire fault injection; installed only when enable_fault_shim is set
  /// (a zero-rate shim still costs an RNG decision per datagram).
  FaultShimConfig faults;
  bool enable_fault_shim = false;
  /// Executor shards (kernel threads running protocol code). Clamped to
  /// >= 1: UDP delivery requires a thread-safe executor.
  unsigned shards = 1;
};

class NodeRuntime {
 public:
  /// Binds the socket, builds the stack, starts the reactor. Throws on
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

  /// Pump timers and deliveries for a wall-clock duration (the node's
  /// main loop). Returns scheduler events executed.
  std::size_t run_for(std::chrono::milliseconds d);

  /// Stop the wire (reactor down, executor drained). Idempotent; the
  /// destructor calls it. The endpoint survives for post-run inspection.
  void shutdown();

  /// One-line wire counters for logs and the horus-node tool.
  [[nodiscard]] std::string stats_summary() const;

 private:
  /// Mirror UdpStats / shim / base-stack StackStats into the horus-obs
  /// registry, owner-scoped to this runtime (shutdown unhooks them).
  void register_metrics();

  AddressBook book_;
  Address self_;
  NodeConfig cfg_;
  sim::Scheduler sched_;
  UdpTransport udp_;
  std::unique_ptr<FaultShimTransport> shim_;
  std::unique_ptr<Endpoint> endpoint_;
  sim::RealTimeDriver driver_;
  bool down_ = false;
};

}  // namespace horus::net
