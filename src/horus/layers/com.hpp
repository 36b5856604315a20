// COM: the bottom-of-stack adapter (Section 7).
//
// "The COM layer translates the low-level network interface into the
//  Common Protocol Interface. If necessary, COM keeps track of the source
//  of messages (by pushing the address of the source endpoint on each
//  outgoing message)."
//
// COM turns kCast downcalls into one datagram per view member, and kSend
// downcalls into one datagram per explicit destination. A member delivers
// its own multicasts: the copy addressed to itself skips the wire
// (Stack::transport_send_raw_batch hands it to the endpoint's receive
// path), so the network can never lose, delay, corrupt or MTU-drop it. It
// pushes the group id and source address, and optionally appends a CRC-32
// trailer to each datagram, which is why the full COM provides P10 (garbling
// detection) and P11 (source address) in Table 3. The "RAWCOM" variant
// omits the checksum (providing only P11), for stacks that layer CHKSUM
// explicitly.
#pragma once

#include "horus/core/layer.hpp"

namespace horus::layers {

class Com final : public Layer {
 public:
  explicit Com(bool checksum);

  const LayerInfo& info() const override { return info_; }
  void down(Group& g, DownEvent& ev) override;
  void up(Group& g, UpEvent& ev) override;
  void raw_receive(Group& g, Address src,
                   std::shared_ptr<const Bytes> datagram,
                   std::size_t offset) override;
  void dump(Group& g, std::string& out) const override;

 private:
  void transmit(Group& g, Message& msg, const std::vector<Address>& dests);

  bool checksum_;
  LayerInfo info_;
};

}  // namespace horus::layers
