// Headroom-based wire buffers: the storage of every tx message.
//
// Section 3 of the paper requires that the message object "permits Horus to
// pass messages up and down a stack with no copying of the data", and
// Section 10 attributes most layering overhead to per-boundary header
// push/pop and memory handling. A WireBuf is the remedy, Linux-skb style:
// one contiguous buffer per tx message, sized up front from the stack's
// precomputed header budget, into which every layer serializes its header
// *in place* by prepending into reserved headroom. Serializing for the wire
// is then a near-no-op: the datagram already exists contiguously inside the
// buffer.
//
// Buffers are reference counted (messages are value types; a copy shares
// the buffer until one side writes) and recycled through a small free-list
// pool owned by the Stack, so a steady-state cast performs zero heap
// allocations inside Message/Writer. The pool is thread-safe: stacks may
// run on threaded executors, and a buffer may be released on a different
// thread than the one that acquired it. A buffer is only ever reached
// through a Message's WireBufRef; nothing else aliases its storage.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "horus/util/bytes.hpp"
#include "horus/util/hotpath_stats.hpp"

namespace horus {

class WireBuf;
class WireBufPool;
class WireBufRef;

namespace detail {
/// Shared pool state. Kept alive (via shared_ptr) by every outstanding
/// buffer, so a buffer released after its pool is destroyed self-deletes
/// instead of dangling.
struct PoolShared {
  std::mutex mu;  // a Message may die, and return its buffer, on any thread
  std::vector<WireBuf*> free;
  std::size_t max_free = 0;
  bool closed = false;
};
}  // namespace detail

/// One reference-counted contiguous buffer. Created by WireBufPool
/// (pooled) or through WireBufRef's factories (adopted payloads, oversize
/// and copy-on-write fallbacks).
class WireBuf {
 public:
  [[nodiscard]] std::uint8_t* data() { return storage_.data(); }
  [[nodiscard]] const std::uint8_t* data() const { return storage_.data(); }
  [[nodiscard]] std::size_t capacity() const { return storage_.size(); }

 private:
  friend class WireBufPool;
  friend class WireBufRef;

  WireBuf(std::size_t cap, std::shared_ptr<detail::PoolShared> home)
      : storage_(cap), home_(std::move(home)) {}
  explicit WireBuf(Bytes bytes) : storage_(std::move(bytes)) {}

  void ref() { refs_.fetch_add(1, std::memory_order_relaxed); }
  void unref();

  Bytes storage_;
  std::atomic<std::uint32_t> refs_{1};
  std::shared_ptr<detail::PoolShared> home_;  ///< null: plain heap buffer
};

/// Intrusive smart pointer over WireBuf.
class WireBufRef {
 public:
  WireBufRef() = default;
  explicit WireBufRef(WireBuf* b) : p_(b) {}  // adopts the initial reference
  WireBufRef(const WireBufRef& o) : p_(o.p_) {
    if (p_ != nullptr) p_->ref();
  }
  WireBufRef(WireBufRef&& o) noexcept : p_(o.p_) { o.p_ = nullptr; }
  WireBufRef& operator=(const WireBufRef& o) {
    if (this != &o) {
      reset();
      p_ = o.p_;
      if (p_ != nullptr) p_->ref();
    }
    return *this;
  }
  WireBufRef& operator=(WireBufRef&& o) noexcept {
    if (this != &o) {
      reset();
      p_ = o.p_;
      o.p_ = nullptr;
    }
    return *this;
  }
  ~WireBufRef() { reset(); }

  void reset() {
    if (p_ != nullptr) {
      p_->unref();
      p_ = nullptr;
    }
  }
  [[nodiscard]] WireBuf* get() const { return p_; }
  WireBuf* operator->() const { return p_; }
  explicit operator bool() const { return p_ != nullptr; }
  /// True when this is the only live reference (mutation is safe).
  [[nodiscard]] bool unique() const {
    return p_ != nullptr && p_->refs_.load(std::memory_order_acquire) == 1;
  }

  /// A plain heap buffer outside any pool (copy-on-write clones, oversize
  /// requests when no pool is involved).
  static WireBufRef make_unpooled(std::size_t capacity);
  /// A plain heap buffer that takes over `bytes` (no copy).
  static WireBufRef adopt(Bytes bytes);

 private:
  WireBuf* p_ = nullptr;
};

/// Fixed-capacity-class free-list pool. One per Stack, sized from the
/// stack's header budget + MTU so every in-budget tx message is a pool hit.
class WireBufPool {
 public:
  explicit WireBufPool(std::size_t buf_capacity, std::size_t max_free = 64);
  ~WireBufPool();
  WireBufPool(const WireBufPool&) = delete;
  WireBufPool& operator=(const WireBufPool&) = delete;

  /// A buffer with at least `at_least` capacity. In-class requests reuse
  /// free-listed buffers (steady state: zero allocations); oversize
  /// requests fall back to a dedicated heap buffer.
  [[nodiscard]] WireBufRef acquire(std::size_t at_least);

  [[nodiscard]] std::size_t free_count() const;

 private:
  std::size_t buf_capacity_;
  std::shared_ptr<detail::PoolShared> shared_;
};

}  // namespace horus
