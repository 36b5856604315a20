// Observability layers from the paper's protocol-type table (Figure 1):
//
//   "logging     -- tolerance of total crash failures"
//   "tracing     -- debugging, statistics"
//   "accounting  -- keeping track of usage"
//
// Each is a pure pass-through on the data path (no headers, no wire
// bytes): they demonstrate that cross-cutting concerns slot into a stack
// exactly like protocol machinery does.
#pragma once

#include <deque>
#include <map>
#include <memory>

#include "horus/core/layer.hpp"
#include "horus/layers/common.hpp"
#include "horus/util/thread_annotations.hpp"

namespace horus::layers {

/// Durable store shared by LOG layers. It outlives endpoints, so after a
/// *total* crash (every member gone) the group's delivered history can be
/// recovered from it. Hand one instance to StackConfig::log_store before
/// creating endpoints.
///
/// Internally synchronized: one store is shared by *multiple* endpoints
/// (that is its whole point), and endpoints on different node loops append
/// from different threads concurrently -- the store is the one
/// observe-layer object the group-ownership discipline does not cover.
/// journal() therefore returns a snapshot by value: a reference into the
/// map could be invalidated by a concurrent append's vector growth.
struct LogStore {
  struct Entry {
    Address source;
    std::uint64_t msg_id = 0;
    Bytes payload;
  };
  using Key = std::pair<std::uint64_t, std::uint64_t>;  // (owner, group)

  void append(Address owner, GroupId gid, Entry e) {
    util::MutexLock lock(mu_);
    journals_[{owner.id, gid.id}].push_back(std::move(e));
  }
  [[nodiscard]] std::vector<Entry> journal(Address owner, GroupId gid) const {
    util::MutexLock lock(mu_);
    auto it = journals_.find({owner.id, gid.id});
    return it != journals_.end() ? it->second : std::vector<Entry>{};
  }
  [[nodiscard]] std::size_t total_entries() const {
    util::MutexLock lock(mu_);
    std::size_t n = 0;
    for (const auto& [k, v] : journals_) n += v.size();
    return n;
  }

 private:
  mutable util::Mutex mu_;
  std::map<Key, std::vector<Entry>> journals_ GUARDED_BY(mu_);
};

/// LOG: journals every delivered multicast into the shared LogStore.
/// After a total crash, a recovering process replays
/// `store->journal(addr, gid)` to rebuild its application state before
/// rejoining.
class LogLayer final : public Layer {
 public:
  LogLayer();
  const LayerInfo& info() const override { return info_; }
  std::unique_ptr<LayerState> make_state(Group& g) override;
  void up(Group& g, UpEvent& ev) override;
  void dump(Group& g, std::string& out) const override;

 private:
  struct State final : LayerState {
    std::shared_ptr<LogStore> store;  ///< config's, or a private fallback
    std::uint64_t journaled = 0;
  };
  LayerInfo info_;
};

/// TRACE: counts every event crossing the layer in both directions, and
/// keeps a short ring of recent event descriptions for debugging; all
/// visible via the dump downcall.
class Trace final : public Layer {
 public:
  /// Ring size of the recent-event log; overflow drops the oldest entry.
  static constexpr std::size_t kRecentCap = 32;

  Trace();
  const LayerInfo& info() const override { return info_; }
  std::unique_ptr<LayerState> make_state(Group& g) override;
  void down(Group& g, DownEvent& ev) override;
  void up(Group& g, UpEvent& ev) override;
  void dump(Group& g, std::string& out) const override;

 private:
  struct State final : LayerState {
    std::map<std::string, std::uint64_t> counts;
    std::deque<std::string> recent;
  };
  void note(State& st, std::string what);
  LayerInfo info_;
};

/// ACCOUNT: per-peer usage metering -- messages and payload bytes received
/// from each member, messages/bytes sent by us.
class Account final : public Layer {
 public:
  Account();
  const LayerInfo& info() const override { return info_; }
  std::unique_ptr<LayerState> make_state(Group& g) override;
  void down(Group& g, DownEvent& ev) override;
  void up(Group& g, UpEvent& ev) override;
  void dump(Group& g, std::string& out) const override;

 private:
  struct Usage {
    std::uint64_t messages = 0;
    std::uint64_t bytes = 0;
  };
  struct State final : LayerState {
    std::map<Address, Usage> received_from;
    Usage sent;
  };
  LayerInfo info_;
};

}  // namespace horus::layers
