// FaultShimTransport: wire-level fault injection for real deployments. A
// decorator around any Transport (normally UdpTransport) that drops,
// duplicates and delays datagrams before they reach the wire, so the loss
// recovery verified against SimNetwork can be demonstrated on an actual
// network -- a loopback 3-process run at 5% loss exercises NAK
// retransmission for real.
//
// Determinism discipline is inherited from SimNetwork's RngFaultPolicy:
// the shim draws from split RNG streams ("shim-drop" / "shim-dup" /
// "shim-delay", derived from one seed via util::stream_seed), and every
// decision consumes a fixed number of draws from each stream whatever the
// outcome, so decision i is a pure function of (seed, i). On a real
// network the *order* in which threads reach the shim is not
// reproducible, but the fault schedule itself is, which keeps two runs
// with the same seed statistically identical and makes "the run that
// failed" describable by (seed, decision count).
//
// Threading: like the transport it wraps, the shim is driven by the one
// thread that runs the node's protocol code (a NodeRuntime's loop), which
// also runs the scheduler its delayed copies leave from.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "horus/core/stack.hpp"
#include "horus/sim/scheduler.hpp"
#include "horus/util/rng.hpp"

namespace horus::net {

struct FaultShimConfig {
  double drop = 0.0;       ///< probability a datagram never leaves
  double duplicate = 0.0;  ///< probability a datagram leaves twice
  /// Added latency window (virtual microseconds on the shim's scheduler;
  /// in a NodeRuntime those are wall-clock microseconds).
  /// delay_max == 0 disables delays and no scheduler is needed.
  sim::Duration delay_min = 0;
  sim::Duration delay_max = 0;
  std::uint64_t seed = 0x5eed;
};

/// Atomics: NodeRuntime::register_metrics polls them from other threads.
struct FaultShimStats {
  std::atomic<std::uint64_t> forwarded{0};
  std::atomic<std::uint64_t> dropped{0};
  std::atomic<std::uint64_t> duplicated{0};
  std::atomic<std::uint64_t> delayed{0};

  void reset() {
    for (auto* c : {&forwarded, &dropped, &duplicated, &delayed}) {
      c->store(0, std::memory_order_relaxed);
    }
  }
};

class FaultShimTransport final : public Transport {
 public:
  /// `sched` is required when cfg.delay_max > 0 (delayed datagrams are
  /// re-sent from scheduler events; NodeRuntime passes its node loop's
  /// scheduler); throws std::invalid_argument otherwise. The shim does not
  /// own `inner`, which must outlive it.
  FaultShimTransport(Transport& inner, FaultShimConfig cfg,
                     sim::Scheduler* sched = nullptr);

  void send(Address src, Address dst, ByteSpan datagram) override;
  /// Per-destination fates, decided in dsts order (same indices as a
  /// send() loop); survivors that leave immediately still go to the inner
  /// transport as one batch.
  void send_batch(Address src, std::span<const Address> dsts,
                  ByteSpan datagram) override;

  [[nodiscard]] const FaultShimStats& stats() const { return stats_; }
  /// Decisions made so far (the next decision's index) -- the shim's
  /// analogue of SimNetwork::decisions_made().
  [[nodiscard]] std::uint64_t decisions_made() const { return next_decision_; }

 private:
  struct Fate {
    bool drop = false;
    bool duplicate = false;
    sim::Duration delay = 0;
    sim::Duration dup_delay = 0;
  };
  /// Consumes exactly one decision index; fixed draws per stream.
  Fate decide();
  void dispatch(Address src, Address dst, ByteSpan datagram,
                sim::Duration delay);

  Transport* inner_;
  FaultShimConfig cfg_;
  sim::Scheduler* sched_;
  Rng drop_;
  Rng dup_;
  Rng delay_rng_;
  std::uint64_t next_decision_ = 0;
  std::vector<Address> now_;  // send_batch scratch: copies that leave now
  FaultShimStats stats_;
};

}  // namespace horus::net
