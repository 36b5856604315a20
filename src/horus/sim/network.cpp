#include "horus/sim/network.hpp"

#include <utility>

namespace horus::sim {

RngFaultPolicy::RngFaultPolicy(std::uint64_t seed)
    : loss_(stream_seed(seed, fnv1a64("net-loss"))),
      dup_(stream_seed(seed, fnv1a64("net-duplicate"))),
      corrupt_(stream_seed(seed, fnv1a64("net-corrupt"))),
      delay_(stream_seed(seed, fnv1a64("net-delay"))) {}

FaultDecision RngFaultPolicy::decide(std::uint64_t /*index*/, NodeId /*src*/,
                                     NodeId /*dst*/, std::size_t /*size*/,
                                     const LinkParams& p) {
  // Every stream is consumed the same number of times per decision,
  // whatever the outcome, so decision i depends only on (seed, i).
  FaultDecision d;
  d.drop = loss_.chance(p.loss);
  d.duplicate = dup_.chance(p.duplicate);
  bool corrupt = corrupt_.chance(p.corrupt);
  std::uint64_t cseed = corrupt_.next_u64();
  if (corrupt) d.corrupt_seed = cseed | 1;  // nonzero marks "garble"
  Duration window = p.delay_max > p.delay_min ? p.delay_max - p.delay_min : 0;
  d.delay = p.delay_min + delay_.next_below(window);
  d.dup_delay = p.delay_min + delay_.next_below(window);
  return d;
}

void SimNetwork::set_fault_policy(std::shared_ptr<FaultPolicy> p) {
  policy_ = std::move(p);
}

void SimNetwork::attach(NodeId node, Handler handler) {
  handlers_[node] = std::move(handler);
}

void SimNetwork::crash(NodeId node) { handlers_.erase(node); }

bool SimNetwork::is_attached(NodeId node) const {
  return handlers_.contains(node);
}

void SimNetwork::set_link_params(NodeId src, NodeId dst, const LinkParams& p) {
  link_params_[{src, dst}] = p;
}

void SimNetwork::clear_link_params(NodeId src, NodeId dst) {
  link_params_.erase({src, dst});
}

void SimNetwork::set_partitions(const std::vector<std::vector<NodeId>>& cells) {
  cell_of_.clear();
  partitioned_ = !cells.empty();
  int idx = 0;
  for (const auto& cell : cells) {
    for (NodeId n : cell) cell_of_[n] = idx;
    ++idx;
  }
}

bool SimNetwork::can_reach(NodeId a, NodeId b) const {
  if (!partitioned_) return true;
  auto ia = cell_of_.find(a);
  auto ib = cell_of_.find(b);
  if (ia == cell_of_.end() || ib == cell_of_.end()) return false;
  return ia->second == ib->second;
}

const LinkParams& SimNetwork::params_for(NodeId src, NodeId dst) const {
  auto it = link_params_.find({src, dst});
  return it != link_params_.end() ? it->second : default_params_;
}

void SimNetwork::send(NodeId src, NodeId dst, ByteSpan data) {
  const NodeId one[1] = {dst};
  send_multi(src, one, data);
}

void SimNetwork::send_multi(NodeId src, std::span<const NodeId> dsts,
                            ByteSpan data) {
  if (dsts.empty()) return;
  stats_.sent.fetch_add(dsts.size(), std::memory_order_relaxed);
  stats_.bytes_sent.fetch_add(dsts.size() * data.size(),
                              std::memory_order_relaxed);
  // Decisions are consumed per destination in `dsts` order, so this is
  // index-for-index identical to a send() loop.
  // The one copy on the receive path (the simulated NIC writing into a
  // fresh receive buffer); every clean delivery of this burst -- duplicates
  // included -- shares it from here on.
  std::shared_ptr<const Bytes> clean;
  for (NodeId dst : dsts) {
    const LinkParams& p = params_for(src, dst);
    if (data.size() > p.mtu) {
      stats_.dropped_mtu.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if (!can_reach(src, dst)) {
      stats_.dropped_partition.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    FaultDecision d =
        policy_->decide(next_decision_++, src, dst, data.size(), p);
    if (d.drop) {
      stats_.dropped_loss.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    std::shared_ptr<const Bytes> payload;
    if (d.corrupt_seed != 0 && !data.empty()) {
      stats_.corrupted.fetch_add(1, std::memory_order_relaxed);
      // Flip 1-4 bytes chosen by the decision's private stream, so the
      // exact garbling replays with the decision. Garbled deliveries need
      // their own copy; sharing would corrupt the other destinations.
      Bytes copy(data.begin(), data.end());
      Rng garble(d.corrupt_seed);
      std::uint64_t flips = 1 + garble.next_below(4);
      for (std::uint64_t i = 0; i < flips; ++i) {
        copy[garble.next_below(copy.size())] ^=
            static_cast<std::uint8_t>(1 + garble.next_below(255));
      }
      payload = std::make_shared<const Bytes>(std::move(copy));
    } else {
      if (clean == nullptr) {
        clean = std::make_shared<const Bytes>(data.begin(), data.end());
      }
      payload = clean;
    }
    if (d.duplicate) {
      stats_.duplicated.fetch_add(1, std::memory_order_relaxed);
      deliver_at(src, dst, payload, d.dup_delay);
    }
    deliver_at(src, dst, std::move(payload), d.delay);
  }
}

void SimNetwork::deliver_at(NodeId src, NodeId dst,
                            std::shared_ptr<const Bytes> data,
                            Duration delay) {
  sched_.schedule(delay, [this, src, dst, data = std::move(data)]() {
    auto it = handlers_.find(dst);
    if (it == handlers_.end()) {
      stats_.dropped_crashed.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    // Partition state is evaluated at delivery time too: a datagram in
    // flight when the partition forms does not cross it.
    if (!can_reach(src, dst)) {
      stats_.dropped_partition.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    stats_.delivered.fetch_add(1, std::memory_order_relaxed);
    it->second(src, data);
  });
}

}  // namespace horus::sim
