// Stack: a run-time composition of protocol layers (Sections 1, 4, 10).
//
// "When creating an endpoint, a process describes, at run-time, what stack
//  of protocols it needs." The stack owns the layer instances (top to
//  bottom), validates well-formedness against the Section 6 property
//  algebra, compiles the compacted header layout (Section 10, fix 3) and
//  the no-op-layer skip tables (fix 1), and provides the services every
//  layer needs: header codecs, timers, the transport sink below and the
//  application sink above.
#pragma once

#include <atomic>
#include <cassert>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "horus/core/contract.hpp"
#include "horus/core/group.hpp"
#include "horus/core/layer.hpp"
#include "horus/core/message.hpp"
#include "horus/core/types.hpp"
#include "horus/core/wirebuf.hpp"
#include "horus/sim/scheduler.hpp"
#include "horus/util/crypto.hpp"

#ifdef HORUS_METRICS
#include "horus/obs/metrics.hpp"
#endif

namespace horus {

class Endpoint;

/// How layer headers are encoded on the wire.
enum class HeaderCodec {
  kPushPop,  ///< classic: each layer pushes its own word-aligned block
  kCompact,  ///< Section 10 fix 3: one precomputed bit-packed region
};

/// Which membership/partition policy MBRSHIP applies (Section 9).
enum class PartitionPolicy {
  kPrimaryPartition,  ///< Isis-style: only a majority partition makes progress
  kExtendedVs,        ///< Transis/Totem-style: every partition continues
};

/// PACK layer tuning (the protocol accelerator's message packing).
struct PackingConfig {
  /// Train payload budget in bytes. 0 derives it from the MTU so a full
  /// train plus the lower layers' headers always fits in one datagram
  /// (FRAG below never slices mid-train).
  std::size_t max_bytes = 0;
  /// Maximum casts coalesced into one train.
  std::size_t max_count = 16;
  /// Virtual-time window a pending train waits for more casts before the
  /// flush timer sends it anyway. <= 1 disables packing (pass-through).
  sim::Duration flush_after = 2 * sim::kMillisecond;
};

/// Tunables shared by all layers of a stack. Times are in microseconds of
/// simulated (or driver) time.
struct StackConfig {
  HeaderCodec codec = HeaderCodec::kPushPop;
  bool skip_noop_layers = true;  ///< enable the Section 10 layer-skip fast path
  std::size_t mtu = 1400;        ///< transport datagram limit, drives FRAG

  // NAK (reliable FIFO) tuning.
  sim::Duration nak_status_interval = 20 * sim::kMillisecond;
  sim::Duration nak_resend_timeout = 10 * sim::kMillisecond;
  std::size_t nak_window = 256;        ///< max unacked casts buffered per peer
  std::size_t nak_max_retain = 4096;   ///< retransmit buffer cap (then LOST_MESSAGE)
  sim::Duration fail_timeout = 250 * sim::kMillisecond;  ///< silence => PROBLEM

  // MBRSHIP tuning.
  sim::Duration flush_retry = 100 * sim::kMillisecond;
  PartitionPolicy partition_policy = PartitionPolicy::kExtendedVs;
  /// When set, MBRSHIP waits for the application's flush_ok downcall
  /// before contributing its FLUSH reply ("go along with flush", Table 1).
  bool app_controls_flush = false;
  /// When set, the coordinator holds merge requests for the application:
  /// the MERGE_REQUEST upcall must be answered with merge_granted or
  /// merge_denied (Table 1) instead of being auto-granted.
  bool app_controls_merge = false;

  // TOTAL tuning.
  sim::Duration token_idle_delay = 5 * sim::kMillisecond;

  // STABLE / PINWHEEL tuning.
  sim::Duration stability_gossip_interval = 50 * sim::kMillisecond;
  sim::Duration pinwheel_interval = 30 * sim::kMillisecond;

  // PACK (message packing) tuning.
  PackingConfig packing;

  /// Live reconfiguration: how long a superseded stack epoch keeps draining
  /// in-flight datagrams before the endpoint retires its shadow chain and
  /// late stragglers are dropped (counted in msg_path_stats).
  sim::Duration reconfig_drain = 1 * sim::kSecond;

  // Security layers.
  Key key{0x4865726f, 0x73323031};

  /// Shared journal for LOG layers (survives endpoint crashes; see
  /// horus/layers/observe.hpp). Type-erased here so core need not depend
  /// on the layer library; assign a std::shared_ptr<layers::LogStore>.
  /// Null: each LOG layer keeps a private store.
  std::shared_ptr<void> log_store_erased;
};

/// What the stack sits on: a best-effort datagram service (P1).
class Transport {
 public:
  virtual ~Transport() = default;
  virtual void send(Address src, Address dst, ByteSpan datagram) = 0;

  /// One datagram to many destinations (the multicast fan-out COM performs
  /// for every cast). Default: a send() loop, so simple transports need
  /// only the unary hook. Real transports override it to reach the kernel
  /// in one syscall (sendmmsg); the simulated network overrides it to share
  /// one buffer copy across the fan-out. Overrides must behave exactly like
  /// the loop: same per-destination outcomes, in `dsts` order.
  virtual void send_batch(Address src, std::span<const Address> dsts,
                          ByteSpan datagram) {
    for (const Address& dst : dsts) send(src, dst, datagram);
  }
};

/// Counters for benches and tests. Only the thread that runs the stack
/// bumps them, but they stay atomics because other threads read them while
/// it runs: perfbench and the metrics registry's polls
/// (NodeRuntime::register_metrics). Relaxed increments only.
struct StackStats {
  std::atomic<std::uint64_t> downcalls{0};
  std::atomic<std::uint64_t> upcalls_to_app{0};
  std::atomic<std::uint64_t> datagrams_sent{0};
  std::atomic<std::uint64_t> datagrams_received{0};
  std::atomic<std::uint64_t> wire_bytes_sent{0};
  std::atomic<std::uint64_t> header_bytes_sent{0};
  std::atomic<std::uint64_t> payload_bytes_sent{0};

  void reset() {
    // Relaxed to match the increments (reset is a between-phases
    // operation, not a synchronization point).
    for (auto* c : {&downcalls, &upcalls_to_app, &datagrams_sent,
                    &datagrams_received, &wire_bytes_sent,
                    &header_bytes_sent, &payload_bytes_sent}) {
      c->store(0, std::memory_order_relaxed);
    }
  }
};

/// Decoded fixed fields + variable extension of one layer's header.
/// Fields live inline (no layer declares anywhere near kMaxFields of them),
/// so popping a header never allocates.
struct PoppedHeader {
  class FieldArray {
   public:
    static constexpr std::size_t kMaxFields = 8;
    void push_back(std::uint64_t v) {
      assert(n_ < kMaxFields);
      v_[n_++] = v;
    }
    void reserve(std::size_t) {}  // capacity is fixed; vector-compatible
    [[nodiscard]] std::uint64_t operator[](std::size_t i) const { return v_[i]; }
    [[nodiscard]] std::size_t size() const { return n_; }

   private:
    std::uint64_t v_[kMaxFields] = {};
    std::size_t n_ = 0;
  };
  FieldArray fields;
  Bytes var;
};

class Stack {
 public:
  /// `layers` is ordered top to bottom; the bottom layer must be a
  /// transport adapter (info().is_transport). Throws std::invalid_argument
  /// if the composition is ill-formed under the property algebra given
  /// `network_properties`.
  /// `epoch` is the stack-epoch number when this stack is installed by a
  /// live reconfiguration; construct-time stacks are epoch 0.
  Stack(StackConfig cfg, std::vector<std::unique_ptr<Layer>> layers,
        props::PropertySet network_properties, Transport& transport,
        sim::Scheduler& sched, Endpoint& owner, std::uint32_t epoch = 0);
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  // -- entry points ----------------------------------------------------------

  /// Application downcall, entering the top of the stack. Runs inside the
  /// group's task, which Endpoint posts for every downcall.
  void app_down(Group& g, DownEvent& ev);

  /// Batched downcall: all events enter the top of the stack in one
  /// traversal. Layers that declare batch_safe are visited once per train;
  /// below the first batch-opaque layer the train degrades to per-event
  /// forwarding (still inside the same task).
  void app_down_batch(Group& g, std::span<DownEvent> evs);

  /// Wire framing, read by the endpoint's demux: a datagram begins with a
  /// group-id prefix of kGidPrefix bytes followed by a 2-byte stack-epoch
  /// stamp (together kFramePrefix bytes), which routes late arrivals to
  /// their epoch's draining shadow chain instead of the current layout.
  static constexpr std::size_t kGidPrefix = 8;
  static constexpr std::size_t kFramePrefix = kGidPrefix + 2;

  // -- sinks (called by the edge layers) -------------------------------------

  /// Above the top layer: deliver an upcall to the application.
  void app_up(Group& g, UpEvent& ev);

  /// Transmit an already-serialized datagram (transport layers that add
  /// trailers serialize themselves); `wire` must already begin with the
  /// group-id prefix. `payload_size` is for stats only.
  void transport_send_raw(Address dst, ByteSpan wire, std::size_t payload_size);

  /// Fan one serialized datagram out to several destinations through
  /// Transport::send_batch, so a whole-view multicast reaches the wire as
  /// one call (one syscall on a real transport). Counters advance exactly
  /// as if transport_send_raw ran once per destination.
  void transport_send_raw_batch(std::span<const Address> dests, ByteSpan wire,
                                std::size_t payload_size);

  // -- header codec services --------------------------------------------------

  /// Encode `fields` (and optional variable extension) for `layer` onto a
  /// tx message, using the stack's codec.
  void push_header(Message& m, const Layer& layer,
                   std::span<const std::uint64_t> fields, ByteSpan var = {});

  /// Decode (and consume) `layer`'s header from an rx message.
  PoppedHeader pop_header(Message& m, const Layer& layer);

  /// Size of the compacted region (0 in push/pop mode).
  [[nodiscard]] std::size_t region_bytes() const;

  /// Worst-case bytes of framing + headers any descent through this stack
  /// can prepend (gid prefix + region + every layer's fields + var slack).
  /// Computed once at construction; sizes the wire-buffer headroom so that
  /// a steady-state cast never reallocates.
  [[nodiscard]] std::size_t headroom_budget() const { return headroom_budget_; }

  /// The stack's wire-buffer pool (linear tx messages recycle through it).
  [[nodiscard]] WireBufPool& pool() { return *pool_; }

  /// The region bits belonging to layers strictly above `layer`, copied out
  /// and masked to whole bytes. Integrity layers (CHKSUM, SIGN) include
  /// this in their coverage so that compacted headers of upper layers are
  /// protected too. Empty in push/pop mode.
  [[nodiscard]] Bytes region_prefix(const Message& m, const Layer& layer) const;

  // -- services for layers ----------------------------------------------------

  /// Schedule a callback bound to a group. When it fires it enters the
  /// group's task through the endpoint, which skips it if the endpoint has
  /// crashed, the group is destroyed or this stack's epoch has retired.
  sim::TimerId schedule(GroupId gid, sim::Duration d,
                        std::function<void(Group&)> fn);
  void cancel(sim::TimerId id);
  [[nodiscard]] sim::Time now() const;

  [[nodiscard]] const StackConfig& config() const { return cfg_; }
  [[nodiscard]] Endpoint& endpoint() const { return *owner_; }
  [[nodiscard]] Address address() const;

  /// This stack's epoch number and wire stamp. The stamp combines the
  /// epoch counter (low byte) with a hash of the layer-chain names (high
  /// byte): endpoints that switched along the same spec history agree on
  /// full stamps without negotiation, while receivers fall back to the
  /// epoch-number byte for peers running differently-named but
  /// wire-compatible chains (Group::epoch_for_stamp).
  [[nodiscard]] std::uint32_t epoch() const { return epoch_; }
  [[nodiscard]] std::uint16_t epoch_stamp() const { return stamp_; }
  /// The colon-joined spec string of this chain (top to bottom).
  [[nodiscard]] std::string spec_string() const;

  // -- introspection -----------------------------------------------------------

  [[nodiscard]] const std::vector<std::unique_ptr<Layer>>& layers() const {
    return layers_;
  }
  [[nodiscard]] Layer* find_layer(const std::string& name) const;
  [[nodiscard]] props::PropertySet provided_properties() const { return provided_; }
  [[nodiscard]] const StackStats& stats() const { return stats_; }
  void reset_stats() { stats_.reset(); }
  /// The focus/dump downcalls of Table 1: textual state of one layer.
  [[nodiscard]] std::string dump(Group& g, const std::string& layer_name) const;

  /// Create per-group layer state slots for a new group.
  void init_group(Group& g);

  /// Install (or clear, with nullptr) an HCPI contract monitor. The monitor
  /// must outlive the stack's activity; normally it is the shared
  /// ContractMonitor the stack's CheckedLayer wrappers also hold. Off (the
  /// default) the hot path pays one untaken branch per boundary crossing.
  void set_monitor(HcpiMonitor* m) { monitor_ = m; }
  [[nodiscard]] HcpiMonitor* monitor() const { return monitor_; }

  // Internal: used by Layer::pass_down/pass_up. Index is the calling layer.
  void forward_down(std::size_t from_index, Group& g, DownEvent& ev);
  void forward_up(std::size_t from_index, Group& g, UpEvent& ev);
  /// Batch variant of forward_down (Layer::pass_down_batch). Keeps the
  /// train together while the next layer is batch_safe; otherwise -- and
  /// whenever a contract monitor is installed, to keep HCPI frames
  /// balanced -- forwards per event.
  void forward_down_batch(std::size_t from_index, Group& g,
                          std::span<DownEvent> evs);

 private:
  // The endpoint's demux counts stats_.datagrams_received on the stack a
  // datagram is addressed to.
  friend class Endpoint;

  void compile_layout();
  void compile_skip_tables();
  void compute_headroom_budget();
  /// Convert an app-originated data message to linear form in a pooled
  /// wire buffer (the zero-allocation hot path). Messages too large for
  /// the pool's buffer class stay chunked and take the gather path.
  void maybe_linearize(Message& m);

  StackConfig cfg_;
  std::vector<std::unique_ptr<Layer>> layers_;  // [0] = top
  Transport& transport_;
  sim::Scheduler& sched_;
  Endpoint* owner_;
  props::PropertySet provided_ = 0;
  BitLayout layout_;                  // compact codec layout
  std::vector<std::size_t> group_of_; // layer index -> layout group
  // Skip tables: for data events, the next layer index that actually acts
  // (layers_.size() means the sink).
  std::vector<std::size_t> next_down_;
  std::vector<std::size_t> next_up_;  // toward the app; index 0's "next" is sink
  std::size_t headroom_budget_ = 0;
  std::size_t tailroom_ = 0;  // trailer space (CRC) reserved behind payloads
  std::unique_ptr<WireBufPool> pool_;
  StackStats stats_;
  HcpiMonitor* monitor_ = nullptr;
  std::uint32_t epoch_ = 0;
  std::uint16_t stamp_ = 0;
#ifdef HORUS_METRICS
  // horus-obs (docs/obs.md): per-layer latency histograms and boundary
  // counters, resolved once at construction (registry addresses are
  // stable), so a probe hit is pointer-indexed -- no name lookup.
  std::vector<obs::Histogram*> down_lat_;
  std::vector<obs::Histogram*> up_lat_;
  // Endpoint address id, cached so the per-crossing flight-recorder probe
  // doesn't chase owner_->address() (the address is fixed at construction).
  std::uint64_t obs_self_id_ = 0;
#endif
};

}  // namespace horus
