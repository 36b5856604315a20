// UdpTransport: the real wire. Implements the Transport interface the
// protocol stacks send through -- the same interface SimTransport
// implements over the simulated network -- on top of a non-blocking UDP
// socket, so a stack built and verified in the simulator deploys onto a
// real network unchanged (the paper's COM "over a low-level network of
// choice").
//
// Architecture:
//
//   * Tx happens on the thread that runs the protocol code -- in a node
//     that is the node loop. The socket is non-blocking; a full socket
//     buffer is absorbed by a short poll(POLLOUT) retry loop (counted)
//     before the datagram is dropped best-effort. Multi-destination
//     fan-out (the COM broadcast path) goes through sendmmsg: one syscall
//     per tx_batch destinations.
//
//   * Rx has no thread of its own. The owner watches fd() for readability
//     and calls read_burst(), which drains the socket with recvmmsg into
//     pre-sized Bytes buffers that become the zero-copy delivery buffers
//     themselves -- the kernel writes straight into the allocation that
//     deliver_datagram() hands to the stack, so a datagram is copied
//     exactly once (NIC -> buffer), matching SimNetwork's one-copy
//     discipline. Source addresses resolve to Horus addresses through the
//     AddressBook; unknown senders are counted and dropped before any stack
//     code sees the bytes.
//
// Threading contract: one thread owns the transport -- the one that runs
// the bound endpoint's protocol code, since read_burst() hands each
// datagram to Endpoint::deliver_datagram and sends come from that code.
// NodeRuntime (net/runtime.hpp) calls both from its node loop. Only the
// stats are read from other threads.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "horus/core/endpoint.hpp"
#include "horus/net/address_book.hpp"

namespace horus::net {

struct UdpConfig {
  /// Largest datagram this transport will put on (or accept from) the
  /// wire. Sends above it are dropped and counted -- the stack's FRAG
  /// layer is supposed to make them impossible (plumb this same value
  /// into StackConfig::mtu; NodeRuntime does).
  std::size_t mtu = 1400;
  /// Datagrams per recvmmsg / destinations per sendmmsg syscall.
  unsigned rx_batch = 16;
  unsigned tx_batch = 16;
  /// How long a send will poll for POLLOUT when the socket buffer is full
  /// before dropping (best-effort transport: drop, never block forever).
  int full_sock_wait_ms = 50;
  /// Kernel socket buffer sizes; 0 keeps the system default.
  int so_rcvbuf = 1 << 20;
  int so_sndbuf = 1 << 20;
};

/// Wire counters, mirroring sim::NetStats for the real transport. Atomics:
/// the node loop counts while other threads read (perfbench, and the
/// registry polls NodeRuntime::register_metrics installs).
struct UdpStats {
  std::atomic<std::uint64_t> tx_datagrams{0};
  std::atomic<std::uint64_t> tx_bytes{0};
  std::atomic<std::uint64_t> tx_batches{0};         ///< sendmmsg syscalls
  std::atomic<std::uint64_t> tx_eagain_retries{0};  ///< POLLOUT waits
  std::atomic<std::uint64_t> tx_oversize_dropped{0};///< send > mtu
  std::atomic<std::uint64_t> tx_unroutable{0};      ///< dst not in the book
  std::atomic<std::uint64_t> tx_full_dropped{0};    ///< buffer never drained, or hard send error
  std::atomic<std::uint64_t> rx_datagrams{0};
  std::atomic<std::uint64_t> rx_bytes{0};
  std::atomic<std::uint64_t> rx_wakeups{0};         ///< read_burst calls
  std::atomic<std::uint64_t> rx_truncated{0};       ///< datagram > mtu (MSG_TRUNC)
  std::atomic<std::uint64_t> rx_unknown_peer{0};    ///< sender not in the book

  void reset() {
    for (auto* c :
         {&tx_datagrams, &tx_bytes, &tx_batches, &tx_eagain_retries,
          &tx_oversize_dropped, &tx_unroutable, &tx_full_dropped,
          &rx_datagrams, &rx_bytes, &rx_wakeups, &rx_truncated,
          &rx_unknown_peer}) {
      c->store(0, std::memory_order_relaxed);
    }
  }
};

class UdpTransport final : public Transport {
 public:
  /// Opens and binds the socket immediately (so construction fails fast on
  /// a taken port). `self` must be in the book; its entry is the bind
  /// address. Throws std::invalid_argument for book problems and
  /// std::system_error for socket failures.
  UdpTransport(const AddressBook& book, Address self, UdpConfig cfg = {});
  ~UdpTransport() override;
  UdpTransport(const UdpTransport&) = delete;
  UdpTransport& operator=(const UdpTransport&) = delete;

  // -- Transport --------------------------------------------------------------

  void send(Address src, Address dst, ByteSpan datagram) override;
  void send_batch(Address src, std::span<const Address> dsts,
                  ByteSpan datagram) override;

  // -- rx ---------------------------------------------------------------------

  /// Attach the endpoint whose stacks receive this socket's datagrams. One
  /// endpoint per transport (one socket == one Horus address); binding
  /// twice throws.
  void bind(Endpoint& ep);

  /// The socket, for the owner's readiness wait.
  [[nodiscard]] int fd() const { return fd_; }
  /// Drain the socket with recvmmsg and deliver what arrived to the bound
  /// endpoint. Call it on the endpoint's loop thread when fd() is
  /// readable.
  void read_burst();

  [[nodiscard]] Address self() const { return self_; }
  [[nodiscard]] const UdpConfig& config() const { return cfg_; }
  [[nodiscard]] const UdpStats& stats() const { return stats_; }
  void reset_stats() { stats_.reset(); }
  /// The port actually bound (== the book's entry for self).
  [[nodiscard]] std::uint16_t local_port() const { return local_port_; }

 private:
  /// One routed, size-checked datagram onto the wire, with the EAGAIN
  /// retry loop. Returns false only on a hard (non-EAGAIN) send error.
  bool send_one(const PeerEntry& peer, ByteSpan datagram);

  AddressBook book_;  // copied: the transport outlives the caller's book
  Address self_;
  UdpConfig cfg_;
  int fd_ = -1;
  std::uint16_t local_port_ = 0;
  Endpoint* endpoint_ = nullptr;
  /// Receive slots, reused across bursts.
  std::vector<Bytes> rx_bufs_;
  /// send_batch scratch: the routed destinations of one fan-out.
  std::vector<const PeerEntry*> tx_peers_;
  UdpStats stats_;
};

}  // namespace horus::net
