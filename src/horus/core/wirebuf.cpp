#include "horus/core/wirebuf.hpp"

namespace horus {

void WireBuf::unref() {
  if (refs_.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
  if (home_ != nullptr) {
    {
      std::lock_guard<std::mutex> lock(home_->mu);
      if (!home_->closed && home_->free.size() < home_->max_free) {
        home_->free.push_back(this);
        return;
      }
    }
    // Pool gone or full: self-delete, keeping the shared state alive until
    // after the delete so the mutex above is not destroyed while held.
    std::shared_ptr<detail::PoolShared> keep = std::move(home_);
    delete this;
    return;
  }
  delete this;
}

WireBufRef WireBufRef::make_unpooled(std::size_t capacity) {
  return WireBufRef(new WireBuf(capacity, nullptr));
}

WireBufRef WireBufRef::adopt(Bytes bytes) {
  return WireBufRef(new WireBuf(std::move(bytes)));
}

WireBufPool::WireBufPool(std::size_t buf_capacity, std::size_t max_free)
    : buf_capacity_(buf_capacity),
      shared_(std::make_shared<detail::PoolShared>()) {
  shared_->max_free = max_free;
}

WireBufPool::~WireBufPool() {
  std::vector<WireBuf*> scrap;
  {
    std::lock_guard<std::mutex> lock(shared_->mu);
    shared_->closed = true;
    scrap.swap(shared_->free);
  }
  // Break the free-list <-> PoolShared reference cycle before deleting.
  for (WireBuf* b : scrap) {
    b->home_.reset();
    delete b;
  }
}

WireBufRef WireBufPool::acquire(std::size_t at_least) {
  MsgPathStats& stats = msg_path_stats();
  if (at_least > buf_capacity_) {
    stats.oversize.fetch_add(1, std::memory_order_relaxed);
    return WireBufRef::make_unpooled(at_least);
  }
  {
    std::lock_guard<std::mutex> lock(shared_->mu);
    if (!shared_->free.empty()) {
      WireBuf* b = shared_->free.back();
      shared_->free.pop_back();
      b->refs_.store(1, std::memory_order_relaxed);
      stats.pool_hits.fetch_add(1, std::memory_order_relaxed);
      return WireBufRef(b);
    }
  }
  stats.pool_misses.fetch_add(1, std::memory_order_relaxed);
  return WireBufRef(new WireBuf(buf_capacity_, shared_));
}

std::size_t WireBufPool::free_count() const {
  std::lock_guard<std::mutex> lock(shared_->mu);
  return shared_->free.size();
}

}  // namespace horus
