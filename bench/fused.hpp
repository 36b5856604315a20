// FUSED: a hand-fused NAK+FRAG production layer.
//
// Section 10: "we envision that it will be possible to take common
// substacks of protocols, and (from the reference implementation) create
// one single production layer." FUSED is that experiment for the
// NAK:FRAG substack: one header, one buffer, reliable FIFO multicast with
// integrated fragmentation. bench_layer_overhead compares it against the
// composed FRAG:NAK pair to quantify what fusing buys.
//
// Scope: a benchmark baseline for static groups -- it does not implement
// NAK's view-epoch machinery (membership layers sit above real NAK, not
// above FUSED). It is not in the layer registry, so no stack spec names
// it: bench_layer_overhead builds FUSED:COM through
// HorusSystem::Options::stack_factory.
#pragma once

#include <map>
#include <optional>

#include "horus/core/layer.hpp"
#include "horus/layers/common.hpp"

namespace horus::layers {

class Fused final : public Layer {
 public:
  Fused();

  const LayerInfo& info() const override { return info_; }
  std::unique_ptr<LayerState> make_state(Group& g) override;
  void down(Group& g, DownEvent& ev) override;
  void up(Group& g, UpEvent& ev) override;
  void dump(Group& g, std::string& out) const override;

 private:
  static constexpr std::uint64_t kPiece = 0;   ///< sequenced cast fragment
  static constexpr std::uint64_t kPassSend = 1;
  static constexpr std::uint64_t kNakReq = 2;
  static constexpr std::uint64_t kStatus = 3;

  struct PeerIn {
    std::uint64_t expected = 1;
    std::map<std::uint64_t, std::pair<bool, Message>> ooo;  ///< (last, msg)
    std::uint64_t known_max = 0;
    Bytes acc;  ///< accumulating fragments of the current message
  };
  struct State final : LayerState {
    std::map<Address, PeerIn> in;
    std::map<Address, std::uint64_t> acked;  ///< per peer, ack of my stream
    std::uint64_t out_seq = 0;
    std::map<std::uint64_t, std::pair<bool, Bytes>> buf;  ///< (last, piece)
    sim::TimerId timer = 0;
    std::uint64_t delivered = 0;
  };

  [[nodiscard]] std::size_t threshold() const;
  void tick(Group& g, State& st);
  void arm(Group& g, State& st);
  void accept_piece(Group& g, State& st, const Address& src, bool last,
                    const Message& msg);
  void send_piece(Group& g, State& st, std::uint64_t seq, bool last,
                  ByteSpan piece, const Address* only_to);

  LayerInfo info_;
};

}  // namespace horus::layers
