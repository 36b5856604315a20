// Adapter binding a Horus endpoint to the simulated datagram network.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "horus/core/endpoint.hpp"
#include "horus/sim/network.hpp"

namespace horus {

/// Transport over sim::SimNetwork. One instance can serve many endpoints;
/// like the network, it belongs to the simulation's driver thread.
class SimTransport final : public Transport {
 public:
  explicit SimTransport(sim::SimNetwork& net) : net_(&net) {}

  void send(Address src, Address dst, ByteSpan datagram) override {
    net_->send(src.id, dst.id, datagram);
  }

  /// One network call for the whole fan-out, so the simulated wire stays
  /// behaviorally aligned with the real UDP sendmmsg path (same fault
  /// decision indices as a per-destination loop; one buffer copy shared
  /// by all clean deliveries). The id scratch is reused, so no call pays
  /// for an allocation.
  void send_batch(Address src, std::span<const Address> dsts,
                  ByteSpan datagram) override {
    ids_.clear();
    for (const Address& d : dsts) ids_.push_back(d.id);
    net_->send_multi(src.id, ids_, datagram);
  }

  /// Register an endpoint's receive path with the network. Zero-copy: the
  /// network's shared receive buffer is threaded straight through to the
  /// stack, which pops headers by advancing a cursor over it.
  void bind(Endpoint& ep) {
    net_->attach(ep.address().id,
                 [&ep](sim::NodeId src, std::shared_ptr<const Bytes> data) {
                   ep.deliver_datagram(Address{src}, std::move(data));
                 });
  }

  /// Fail-stop crash: endpoint stops processing and the network stops
  /// delivering to it.
  void crash(Endpoint& ep) {
    ep.crash();
    net_->crash(ep.address().id);
  }

 private:
  sim::SimNetwork* net_;
  std::vector<sim::NodeId> ids_;
};

}  // namespace horus
