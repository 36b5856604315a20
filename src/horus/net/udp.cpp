#include "horus/net/udp.hpp"

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <system_error>
#include <utility>

#include "horus/util/log.hpp"

namespace horus::net {
namespace {

[[noreturn]] void sys_fail(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

/// How long a send polls for POLLOUT when the socket buffer is full before
/// dropping (best-effort transport: drop, never block forever).
constexpr int kFullSockWaitMs = 50;
/// Kernel socket buffer sizes.
constexpr int kSoRcvbuf = 1 << 20;
constexpr int kSoSndbuf = 1 << 20;

void close_if(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

}  // namespace

UdpTransport::UdpTransport(const AddressBook& book, Address self,
                           std::size_t mtu)
    : book_(book), self_(self), mtu_(mtu) {
  const PeerEntry* me = book_.find(self);
  if (me == nullptr) {
    throw std::invalid_argument(
        "udp: address book has no entry for local id " +
        std::to_string(self.id) + " (a node must be able to find itself)");
  }
  fd_ = ::socket(me->sa.ss_family, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                 0);
  if (fd_ < 0) sys_fail("udp: socket");
  int one = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &kSoRcvbuf, sizeof(kSoRcvbuf));
  ::setsockopt(fd_, SOL_SOCKET, SO_SNDBUF, &kSoSndbuf, sizeof(kSoSndbuf));
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&me->sa), me->sa_len) <
      0) {
    int saved = errno;
    close_if(fd_);
    errno = saved;
    sys_fail("udp: bind");
  }
  sockaddr_storage bound{};
  socklen_t blen = sizeof(bound);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &blen) == 0) {
    if (bound.ss_family == AF_INET) {
      local_port_ =
          ntohs(reinterpret_cast<const sockaddr_in*>(&bound)->sin_port);
    } else if (bound.ss_family == AF_INET6) {
      local_port_ =
          ntohs(reinterpret_cast<const sockaddr_in6*>(&bound)->sin6_port);
    }
  }
}

UdpTransport::~UdpTransport() { close_if(fd_); }

void UdpTransport::bind(Endpoint& ep) {
  if (endpoint_ != nullptr) {
    throw std::logic_error("udp: transport already bound to an endpoint");
  }
  if (ep.address() != self_) {
    throw std::invalid_argument(
        "udp: endpoint address " + std::to_string(ep.address().id) +
        " does not match transport's local id " + std::to_string(self_.id));
  }
  endpoint_ = &ep;
}

bool UdpTransport::send_one(const PeerEntry& peer, ByteSpan datagram) {
  for (;;) {
    ssize_t n = ::sendto(fd_, datagram.data(), datagram.size(), 0,
                         reinterpret_cast<const sockaddr*>(&peer.sa),
                         peer.sa_len);
    if (n >= 0) {
      stats_.tx_datagrams.fetch_add(1, std::memory_order_relaxed);
      stats_.tx_bytes.fetch_add(datagram.size(), std::memory_order_relaxed);
      return true;
    }
    if (errno == EINTR) continue;
    if (errno != EAGAIN && errno != EWOULDBLOCK) {
      // Hard error (e.g. ICMP-reported unreachable): best-effort drop. The
      // stack's NAK layer recovers if the peer is actually alive.
      stats_.tx_full_dropped.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    stats_.tx_eagain_retries.fetch_add(1, std::memory_order_relaxed);
    pollfd pfd{fd_, POLLOUT, 0};
    int r = ::poll(&pfd, 1, kFullSockWaitMs);
    if (r <= 0) {
      // Buffer stayed full for the whole grace period: drop (P1 permits
      // it, and blocking the node loop would be worse).
      stats_.tx_full_dropped.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
  }
}

void UdpTransport::send(Address /*src*/, std::span<const Address> dsts,
                        ByteSpan datagram) {
  if (datagram.size() > mtu_) {
    stats_.tx_oversize_dropped.fetch_add(dsts.size(),
                                         std::memory_order_relaxed);
    return;
  }
  // Route everything first; the syscall batches then contain only
  // sendable destinations.
  std::vector<const PeerEntry*>& peers = tx_peers_;
  peers.clear();
  for (const Address& dst : dsts) {
    const PeerEntry* peer = book_.find(dst);
    if (peer == nullptr) {
      stats_.tx_unroutable.fetch_add(1, std::memory_order_relaxed);
      HLOG_DEBUG("UDP") << "unroutable destination " << dst.id;
      continue;
    }
    peers.push_back(peer);
  }
  if (peers.empty()) return;
  if (peers.size() == 1) {
    send_one(*peers[0], datagram);
    return;
  }
  // One iovec shared by every message: the same bytes go to each
  // destination (sendmmsg never writes through msg_iov).
  iovec iov{const_cast<std::uint8_t*>(datagram.data()), datagram.size()};
  std::size_t next = 0;
  while (next < peers.size()) {
    std::size_t n = std::min<std::size_t>(peers.size() - next, kBatch);
    for (std::size_t i = 0; i < n; ++i) {
      mmsghdr& m = tx_msgs_[i];
      std::memset(&m, 0, sizeof(m));
      m.msg_hdr.msg_name =
          const_cast<sockaddr_storage*>(&peers[next + i]->sa);
      m.msg_hdr.msg_namelen = peers[next + i]->sa_len;
      m.msg_hdr.msg_iov = &iov;
      m.msg_hdr.msg_iovlen = 1;
    }
    int sent = ::sendmmsg(fd_, tx_msgs_.data(), static_cast<unsigned>(n), 0);
    if (sent < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        stats_.tx_eagain_retries.fetch_add(1, std::memory_order_relaxed);
        pollfd pfd{fd_, POLLOUT, 0};
        if (::poll(&pfd, 1, kFullSockWaitMs) > 0) continue;
      }
      // Grace period expired (or hard error): drop the rest best-effort.
      stats_.tx_full_dropped.fetch_add(peers.size() - next,
                                       std::memory_order_relaxed);
      return;
    }
    stats_.tx_batches.fetch_add(1, std::memory_order_relaxed);
    stats_.tx_datagrams.fetch_add(static_cast<std::uint64_t>(sent),
                                  std::memory_order_relaxed);
    stats_.tx_bytes.fetch_add(static_cast<std::uint64_t>(sent) *
                                  datagram.size(),
                              std::memory_order_relaxed);
    next += static_cast<std::size_t>(sent);
  }
}

void UdpTransport::read_burst() {
  stats_.rx_wakeups.fetch_add(1, std::memory_order_relaxed);
  // Persistent receive slots: the kernel writes each datagram straight
  // into the Bytes that will be delivered; only slots actually consumed
  // are re-allocated.
  for (;;) {
    for (unsigned i = 0; i < kBatch; ++i) {
      if (rx_bufs_[i].size() != mtu_) rx_bufs_[i].resize(mtu_);
      rx_iovs_[i] = {rx_bufs_[i].data(), rx_bufs_[i].size()};
      std::memset(&rx_msgs_[i], 0, sizeof(rx_msgs_[i]));
      rx_msgs_[i].msg_hdr.msg_name = &rx_srcs_[i];
      rx_msgs_[i].msg_hdr.msg_namelen = sizeof(rx_srcs_[i]);
      rx_msgs_[i].msg_hdr.msg_iov = &rx_iovs_[i];
      rx_msgs_[i].msg_hdr.msg_iovlen = 1;
    }
    int got = ::recvmmsg(fd_, rx_msgs_.data(), kBatch, MSG_DONTWAIT, nullptr);
    if (got <= 0) break;  // EAGAIN: socket drained (or transient error)
    for (int i = 0; i < got; ++i) {
      if ((rx_msgs_[i].msg_hdr.msg_flags & MSG_TRUNC) != 0) {
        // Bigger than our MTU-sized buffer: the tail is already lost, so
        // the whole datagram is dropped (FRAG on the sender prevents this
        // between well-configured nodes).
        stats_.rx_truncated.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      const PeerEntry* sender = book_.find_sender(
          reinterpret_cast<const sockaddr*>(&rx_srcs_[i]),
          rx_msgs_[i].msg_hdr.msg_namelen);
      if (sender == nullptr) {
        // Not in the book: nothing downstream can authenticate or route a
        // reply, so the bytes never reach protocol code.
        stats_.rx_unknown_peer.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      std::size_t len = rx_msgs_[i].msg_len;
      stats_.rx_datagrams.fetch_add(1, std::memory_order_relaxed);
      stats_.rx_bytes.fetch_add(len, std::memory_order_relaxed);
      Bytes buf = std::move(rx_bufs_[i]);
      buf.resize(len);  // shrink: no reallocation, no copy
      // On the loop thread the endpoint's post runs inline: the datagram
      // goes through the stack before the next one is looked at.
      endpoint_->deliver_datagram(
          sender->addr, std::make_shared<const Bytes>(std::move(buf)));
    }
    if (static_cast<unsigned>(got) < kBatch) break;  // drained in one gulp
  }
}

}  // namespace horus::net
