// PACK: message packing, the core of the Horus Protocol Accelerator
// (Section 10: layered composition costs can be masked by processing
// messages in groups rather than one at a time).
//
// Consecutive small casts are coalesced into a single packed message -- a
// train of length-prefixed (region, content) elements behind one shared
// descent through the layers below -- so N application casts cost one
// ordering stamp, one reliability sequence number and one datagram instead
// of N. A pending train flushes when it reaches a byte budget (MTU-aware,
// so FRAG below never slices mid-train), a count cap, or when the
// virtual-time flush timer fires; the receive side unpacks a train into
// individual deliveries, preserving per-cast order. Any event that could
// order against the pending casts (a send, a control downcall, a view
// change seen from below) flushes the train first, which keeps PACK
// property-transparent: packing N casts is indistinguishable from the
// application having issued them at the flush instant.
//
// Placement: top of the stack -- above ordering layers (one train, one
// stamp) and above FRAG (trains are pre-split against the budget and must
// never rely on mid-train fragmentation). horus-lint enforces both
// (pack-below-ordering, pack-needs-frag).
#pragma once

#include "horus/core/layer.hpp"
#include "horus/layers/common.hpp"
#include "horus/sim/scheduler.hpp"

namespace horus::layers {

class Pack final : public Layer {
 public:
  Pack();
  const LayerInfo& info() const override { return info_; }
  std::unique_ptr<LayerState> make_state(Group& g) override;
  void down(Group& g, DownEvent& ev) override;
  void up(Group& g, UpEvent& ev) override;
  void dump(Group& g, std::string& out) const override;

  /// Hard cap on elements a received train may claim (decode sanity).
  static constexpr std::uint64_t kMaxTrain = 4096;

 private:
  struct State final : LayerState {
    /// Buffered casts, captured at the PACK boundary (compacted region
    /// bits + serialized content above this layer).
    std::vector<CapturedMsg> pending;
    std::size_t pending_bytes = 0;  ///< encoded train element bytes so far
    sim::TimerId timer = 0;         ///< armed flush timer (0 = none)
    // dump() counters, per group.
    std::uint64_t packs = 0;
    std::uint64_t packed_casts = 0;
    std::uint64_t passthrough = 0;
    std::uint64_t unpacked = 0;
    std::uint64_t corrupt = 0;
  };

  enum class FlushReason { kSize, kCount, kTimer, kBarrier };

  /// Train payload budget in bytes (config, or MTU-derived).
  [[nodiscard]] std::size_t budget() const;
  /// Per-datagram bytes each coalesced cast avoids (frame prefix, CRC
  /// trailer, compacted region); feeds the packed_bytes_saved counter.
  [[nodiscard]] std::size_t lower_overhead() const;
  /// Send the pending train (or lone cast) down; clears the buffer.
  void flush(Group& g, State& st, FlushReason reason);
  /// Forward one cast with the pass-through header (packed = 0).
  void pass_through(Group& g, DownEvent& ev, State& st);
  void arm_timer(Group& g, State& st);

  LayerInfo info_;
};

}  // namespace horus::layers
