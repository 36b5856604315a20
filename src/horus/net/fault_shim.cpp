#include "horus/net/fault_shim.hpp"

#include <stdexcept>

namespace horus::net {

FaultShimTransport::FaultShimTransport(Transport& inner, FaultShimConfig cfg,
                                       sim::Scheduler* sched)
    : inner_(&inner), sched_(sched), policy_(cfg.seed) {
  if (cfg.delay_max > 0 && sched_ == nullptr) {
    throw std::invalid_argument(
        "fault shim: delays need a scheduler to re-send from");
  }
  if (cfg.delay_max < cfg.delay_min) {
    throw std::invalid_argument("fault shim: delay_max < delay_min");
  }
  params_.loss = cfg.drop;
  params_.duplicate = cfg.duplicate;
  params_.delay_min = cfg.delay_min;
  params_.delay_max = cfg.delay_max;
}

void FaultShimTransport::dispatch(Address src, Address dst, ByteSpan datagram,
                                  sim::Duration delay) {
  if (delay == 0 || sched_ == nullptr) {
    stats_.forwarded.fetch_add(1, std::memory_order_relaxed);
    inner_->send(src, std::span<const Address>(&dst, 1), datagram);
    return;
  }
  // The span is dead once we return; the delayed copy owns its bytes. The
  // closure runs on the scheduler's thread, which is the one that sends.
  stats_.delayed.fetch_add(1, std::memory_order_relaxed);
  sched_->schedule(delay, [this, src, dst,
                           copy = Bytes(datagram.begin(), datagram.end())]() {
    stats_.forwarded.fetch_add(1, std::memory_order_relaxed);
    inner_->send(src, std::span<const Address>(&dst, 1), copy);
  });
}

void FaultShimTransport::send(Address src, std::span<const Address> dsts,
                              ByteSpan datagram) {
  // Per-destination fates in dsts order. Destinations whose primary copy
  // leaves now are re-gathered so the inner transport still sees one send;
  // duplicates and delayed copies go out individually. The policy ignores
  // the MTU: the inner transport enforces its own.
  now_.clear();
  for (const Address& dst : dsts) {
    const sim::FaultDecision f = policy_.decide(
        next_decision_++, src.id, dst.id, datagram.size(), params_);
    if (f.drop) {
      stats_.dropped.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if (f.duplicate) {
      stats_.duplicated.fetch_add(1, std::memory_order_relaxed);
      dispatch(src, dst, datagram, f.dup_delay);
    }
    if (f.delay == 0 || sched_ == nullptr) {
      now_.push_back(dst);
    } else {
      dispatch(src, dst, datagram, f.delay);
    }
  }
  if (now_.empty()) return;
  stats_.forwarded.fetch_add(now_.size(), std::memory_order_relaxed);
  inner_->send(src, now_, datagram);
}

}  // namespace horus::net
