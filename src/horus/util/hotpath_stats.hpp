// Process-wide counters for the message hot path (headroom wire buffers,
// pooled writers, zero-copy receive). Benches report them per operation;
// the allocation tests assert the steady-state invariants: a warmed-up
// cast must show no pool misses, no writer spills and no headroom growths.
#pragma once

#include <atomic>
#include <cstdint>

namespace horus {

/// Atomics: one process-wide set, bumped by every node's loop and read by
/// perfbench and the metrics registry's polls from other threads.
struct MsgPathStats {
  std::atomic<std::uint64_t> pool_hits{0};     ///< pooled buffer reused
  std::atomic<std::uint64_t> pool_misses{0};   ///< new buffer heap-allocated
  std::atomic<std::uint64_t> oversize{0};      ///< request exceeded pool class
  std::atomic<std::uint64_t> headroom_growths{0};  ///< prepend overflowed
  std::atomic<std::uint64_t> unshare_copies{0};    ///< copy-on-write clones
  std::atomic<std::uint64_t> writer_spills{0};     ///< external Writer overflow
  std::atomic<std::uint64_t> bytes_copied{0};      ///< hot-path memcpy volume

  // Message packing (the protocol accelerator).
  std::atomic<std::uint64_t> packs_built{0};        ///< packed trains flushed
  std::atomic<std::uint64_t> casts_packed{0};       ///< casts coalesced into trains
  std::atomic<std::uint64_t> flushes_by_size{0};    ///< train hit the byte budget
  std::atomic<std::uint64_t> flushes_by_count{0};   ///< train hit the count cap
  std::atomic<std::uint64_t> flushes_by_timer{0};   ///< flush timer fired
  std::atomic<std::uint64_t> packed_bytes_saved{0}; ///< per-datagram overhead not sent
  std::atomic<std::uint64_t> trains_unpacked{0};    ///< packed datagrams fanned out
  std::atomic<std::uint64_t> casts_unpacked{0};     ///< casts delivered out of trains
  std::atomic<std::uint64_t> corrupt_trains{0};     ///< undecodable trains dropped whole
  std::atomic<std::uint64_t> batch_sends{0};        ///< Transport::send calls with 2+ destinations

  // Live reconfiguration (epoch-versioned stacks).
  std::atomic<std::uint64_t> reconfigs_requested{0};  ///< reconfigure() accepted
  std::atomic<std::uint64_t> reconfigs_completed{0};  ///< new epoch installed
  std::atomic<std::uint64_t> reconfigs_rejected{0};   ///< failed the transition check
  std::atomic<std::uint64_t> stale_epoch_drops{0};    ///< datagram for a retired epoch
  std::atomic<std::uint64_t> shadow_datagrams{0};     ///< old-epoch stragglers drained
  std::atomic<std::uint64_t> shadows_retired{0};      ///< drained epochs freed
  std::atomic<std::uint64_t> state_transfers{0};      ///< layer export/import pairs run

  void reset() {
    // Relaxed, like the increments: reset happens between workload phases
    // (never racing a counted operation whose value the caller cares
    // about), so the seq_cst fences of plain atomic assignment buy nothing.
    for (auto* c :
         {&pool_hits, &pool_misses, &oversize, &headroom_growths,
          &unshare_copies, &writer_spills, &bytes_copied, &packs_built,
          &casts_packed, &flushes_by_size, &flushes_by_count,
          &flushes_by_timer, &packed_bytes_saved,
          &trains_unpacked, &casts_unpacked, &corrupt_trains,
          &batch_sends, &reconfigs_requested,
          &reconfigs_completed, &reconfigs_rejected, &stale_epoch_drops,
          &shadow_datagrams, &shadows_retired, &state_transfers}) {
      c->store(0, std::memory_order_relaxed);
    }
  }
};

/// The process-wide instance (the hot path is too hot for per-stack lookup).
MsgPathStats& msg_path_stats();

}  // namespace horus
