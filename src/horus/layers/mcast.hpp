// MCAST: FIFO multicast (P4) by fan-out over reliable FIFO unicast (P3).
//
// The composition-algebra complement of NNAK: NNAK gives dependable
// point-to-point channels but leaves casts best-effort; MCAST turns each
// cast into one reliable unicast per view member (the sender included --
// a member delivers its own multicasts, and that copy never reaches the
// wire; see COM). Per-pair FIFO below becomes
// per-sender FIFO multicast above, which is exactly what FRAG and MBRSHIP
// require -- so MCAST:NNAK is the legal live-switch replacement for NAK
// under a membership stack.
//
// The fan-out trades bandwidth for simplicity (no multicast gap repair, no
// shared retransmit state): N times the datagrams of NAK's single
// serialized cast, each on an independently repaired stream. The cost
// field reflects that -- minimal-stack search keeps preferring NAK.
#pragma once

#include "horus/core/layer.hpp"
#include "horus/layers/common.hpp"

namespace horus::layers {

class Mcast final : public Layer {
 public:
  Mcast();

  const LayerInfo& info() const override { return info_; }
  std::unique_ptr<LayerState> make_state(Group& g) override;
  void down(Group& g, DownEvent& ev) override;
  void up(Group& g, UpEvent& ev) override;
  void dump(Group& g, std::string& out) const override;

 private:
  struct State final : LayerState {
    std::uint64_t fanned_out = 0;   ///< casts turned into unicasts
    std::uint64_t fanout_sends = 0; ///< unicasts those casts became
    std::uint64_t delivered = 0;    ///< fanned-out casts delivered back up
  };

  LayerInfo info_;
};

}  // namespace horus::layers
