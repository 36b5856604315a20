// SimNetwork: an unreliable datagram network (the paper's "COM provides
// unreliable communication over a low-level network of choice").
//
// This is the substitute for the paper's ATM/UDP substrate. It provides
// exactly property P1 (best-effort delivery): datagrams may be dropped,
// duplicated, reordered (via latency jitter), or garbled, per configurable
// per-link parameters. It also models node crashes and network partitions,
// which is what drives the MBRSHIP flush protocol and the Figure 2 scenario.
//
// Delivery is mediated by the shared Scheduler, so a whole multi-node run
// is deterministic given the seed. Like the Scheduler, the network belongs
// to the one thread that drives the simulation: sends, deliveries and the
// world's reconfiguration (partitions, link parameters) all happen there.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "horus/sim/scheduler.hpp"
#include "horus/util/bytes.hpp"
#include "horus/util/rng.hpp"

namespace horus::sim {

/// Identifies a network attachment point (one Horus endpoint).
using NodeId = std::uint64_t;

/// Tunable behaviour of a link (or of the whole network via defaults).
struct LinkParams {
  double loss = 0.0;        ///< probability a datagram is silently dropped
  double duplicate = 0.0;   ///< probability a datagram is delivered twice
  double corrupt = 0.0;     ///< probability some payload bytes are flipped
  Duration delay_min = 50;  ///< microseconds
  Duration delay_max = 200; ///< microseconds; jitter window causes reordering
  std::size_t mtu = 1400;   ///< datagrams larger than this are dropped
};

/// The concrete fate chosen for one datagram send. Everything random about
/// a delivery is decided up front and captured here, so a decision can be
/// recorded, replayed, or selectively neutralized (horus-check's shrinker)
/// without re-running the generator.
struct FaultDecision {
  bool drop = false;             ///< silently lose the datagram
  bool duplicate = false;        ///< deliver a second copy
  std::uint64_t corrupt_seed = 0;///< nonzero: garble bytes using this seed
  Duration delay = 0;            ///< latency of the primary copy
  Duration dup_delay = 0;        ///< latency of the duplicate, if any

  [[nodiscard]] bool faulty() const {
    return drop || duplicate || corrupt_seed != 0;
  }
};

/// Chooses the fate of each datagram. `index` is the network's global send
/// counter (only sends that reach the fault stage -- past the MTU and
/// partition checks -- consume an index), which gives every decision a
/// stable identity for record/replay. Implementations must be
/// deterministic functions of (their seed, index, arguments); they are
/// invoked in send order.
class FaultPolicy {
 public:
  virtual ~FaultPolicy() = default;
  virtual FaultDecision decide(std::uint64_t index, NodeId src, NodeId dst,
                               std::size_t size, const LinkParams& p) = 0;
};

/// The default policy: per-fault-source split RNG streams derived from the
/// network seed (util/rng.hpp stream_seed). Each decision consumes a fixed
/// number of draws from each stream regardless of outcome, so decision
/// `index` is a pure function of (seed, index) -- masking one fault during
/// replay cannot shift any other draw.
class RngFaultPolicy final : public FaultPolicy {
 public:
  explicit RngFaultPolicy(std::uint64_t seed);
  FaultDecision decide(std::uint64_t index, NodeId src, NodeId dst,
                       std::size_t size, const LinkParams& p) override;

 private:
  Rng loss_, dup_, corrupt_, delay_;
};

/// Counters for observability and the benchmark harness. Only the driver
/// counts; they stay atomics like StackStats and UdpStats (whose readers
/// sit on other threads), and perfbench reads them with load(). Relaxed
/// increments only.
struct NetStats {
  std::atomic<std::uint64_t> sent{0};
  std::atomic<std::uint64_t> delivered{0};
  std::atomic<std::uint64_t> dropped_loss{0};
  std::atomic<std::uint64_t> dropped_partition{0};
  std::atomic<std::uint64_t> dropped_crashed{0};
  std::atomic<std::uint64_t> dropped_mtu{0};
  std::atomic<std::uint64_t> duplicated{0};
  std::atomic<std::uint64_t> corrupted{0};
  std::atomic<std::uint64_t> bytes_sent{0};

  void reset() {
    // Relaxed to match the increments (reset is a between-phases
    // operation, not a synchronization point).
    for (auto* c : {&sent, &delivered, &dropped_loss, &dropped_partition,
                    &dropped_crashed, &dropped_mtu, &duplicated, &corrupted,
                    &bytes_sent}) {
      c->store(0, std::memory_order_relaxed);
    }
  }
};

class SimNetwork {
 public:
  /// Datagrams are delivered as shared buffers: the network copies the
  /// caller's bytes exactly once at send time (the simulated NIC DMA) and
  /// every delivery -- including duplicates -- shares that one buffer, so
  /// receive paths can wrap it zero-copy.
  using Handler =
      std::function<void(NodeId src, std::shared_ptr<const Bytes> data)>;

  SimNetwork(Scheduler& sched, std::uint64_t seed = 0x5eed)
      : sched_(sched), policy_(std::make_shared<RngFaultPolicy>(seed)) {}

  /// Attach a node; `handler` is invoked on each delivered datagram.
  void attach(NodeId node, Handler handler);

  /// Detach a node permanently (models a crash). In-flight datagrams to the
  /// node are discarded at delivery time.
  void crash(NodeId node);

  [[nodiscard]] bool is_attached(NodeId node) const;

  /// Best-effort datagram send.
  void send(NodeId src, NodeId dst, ByteSpan data);

  /// One datagram to many destinations in one call (the
  /// Transport::send_batch path). Behaviorally identical to calling
  /// send() once per destination in order -- the same fault decisions are
  /// made with the same indices, so horus-check recordings stay aligned
  /// whether a stack uses the batched or the per-destination wire path --
  /// but all clean deliveries share one buffer copy.
  void send_multi(NodeId src, std::span<const NodeId> dsts, ByteSpan data);

  /// Default parameters for links without an override.
  void set_default_params(const LinkParams& p) { default_params_ = p; }
  [[nodiscard]] const LinkParams& default_params() const {
    return default_params_;
  }

  /// Per-directed-link override.
  void set_link_params(NodeId src, NodeId dst, const LinkParams& p);
  void clear_link_params(NodeId src, NodeId dst);

  /// Partition the network into cells; traffic crosses cells only if the
  /// two nodes share a cell. Nodes not listed are isolated. An empty vector
  /// removes all partitions.
  void set_partitions(const std::vector<std::vector<NodeId>>& cells);
  [[nodiscard]] bool can_reach(NodeId a, NodeId b) const;

  [[nodiscard]] const NetStats& stats() const { return stats_; }
  void reset_stats() { stats_.reset(); }

  /// Replace the fault policy (horus-check installs recording / replaying /
  /// masking policies here). Install before traffic starts: swapping
  /// mid-run invalidates the decision indices recorded so far.
  void set_fault_policy(std::shared_ptr<FaultPolicy> p);
  /// Number of fault decisions made so far (the next decision's index).
  [[nodiscard]] std::uint64_t decisions_made() const { return next_decision_; }

  [[nodiscard]] Scheduler& scheduler() { return sched_; }

 private:
  const LinkParams& params_for(NodeId src, NodeId dst) const;
  void deliver_at(NodeId src, NodeId dst, std::shared_ptr<const Bytes> data,
                  Duration delay);

  Scheduler& sched_;
  std::shared_ptr<FaultPolicy> policy_;
  std::uint64_t next_decision_ = 0;
  LinkParams default_params_;
  std::unordered_map<NodeId, Handler> handlers_;
  std::map<std::pair<NodeId, NodeId>, LinkParams> link_params_;
  std::unordered_map<NodeId, int> cell_of_;  // empty = whole
  bool partitioned_ = false;
  NetStats stats_;
};

}  // namespace horus::sim
