#include "horus/net/fault_shim.hpp"

#include <stdexcept>

namespace horus::net {

FaultShimTransport::FaultShimTransport(Transport& inner, FaultShimConfig cfg,
                                       sim::Scheduler* sched)
    : inner_(&inner),
      cfg_(cfg),
      sched_(sched),
      drop_(stream_seed(cfg.seed, fnv1a64("shim-drop"))),
      dup_(stream_seed(cfg.seed, fnv1a64("shim-dup"))),
      delay_rng_(stream_seed(cfg.seed, fnv1a64("shim-delay"))) {
  if (cfg_.delay_max > 0 && sched_ == nullptr) {
    throw std::invalid_argument(
        "fault shim: delays need a scheduler to re-send from");
  }
  if (cfg_.delay_max < cfg_.delay_min) {
    throw std::invalid_argument("fault shim: delay_max < delay_min");
  }
}

FaultShimTransport::Fate FaultShimTransport::decide() {
  // Fixed draws per stream per decision, whatever the outcome: decision
  // next_decision_ depends only on (seed, index).
  Fate f;
  f.drop = drop_.chance(cfg_.drop);
  f.duplicate = dup_.chance(cfg_.duplicate);
  sim::Duration window =
      cfg_.delay_max > cfg_.delay_min ? cfg_.delay_max - cfg_.delay_min : 0;
  f.delay = cfg_.delay_min + delay_rng_.next_below(window);
  f.dup_delay = cfg_.delay_min + delay_rng_.next_below(window);
  ++next_decision_;
  return f;
}

void FaultShimTransport::dispatch(Address src, Address dst, ByteSpan datagram,
                                  sim::Duration delay) {
  if (delay == 0 || sched_ == nullptr) {
    stats_.forwarded.fetch_add(1, std::memory_order_relaxed);
    inner_->send(src, dst, datagram);
    return;
  }
  // The span is dead once we return; the delayed copy owns its bytes. The
  // closure runs on the scheduler's thread, which is the one that sends.
  stats_.delayed.fetch_add(1, std::memory_order_relaxed);
  sched_->schedule(delay, [this, src, dst,
                           copy = Bytes(datagram.begin(), datagram.end())]() {
    stats_.forwarded.fetch_add(1, std::memory_order_relaxed);
    inner_->send(src, dst, copy);
  });
}

void FaultShimTransport::send(Address src, Address dst, ByteSpan datagram) {
  Fate f = decide();
  if (f.drop) {
    stats_.dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (f.duplicate) {
    stats_.duplicated.fetch_add(1, std::memory_order_relaxed);
    dispatch(src, dst, datagram, f.dup_delay);
  }
  dispatch(src, dst, datagram, f.delay);
}

void FaultShimTransport::send_batch(Address src,
                                    std::span<const Address> dsts,
                                    ByteSpan datagram) {
  // Per-destination fates in dsts order. Destinations whose primary copy
  // leaves now are re-gathered so the inner transport still sees one
  // batched send; duplicates and delayed copies go out individually.
  now_.clear();
  for (const Address& dst : dsts) {
    Fate f = decide();
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
  inner_->send_batch(src, now_, datagram);
}

}  // namespace horus::net
