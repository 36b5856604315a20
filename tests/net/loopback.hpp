// Loopback helpers shared by the real-UDP tests: a raw socket the test
// owns (a controllable fake peer), book entries and free ports.
#pragma once

#include <arpa/inet.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "horus/util/bytes.hpp"

namespace horus::net {

/// An ephemeral loopback UDP socket: we can send raw datagrams from its
/// port, and releasing it frees a port for a node to bind.
struct RawSock {
  int fd = -1;
  std::uint16_t port = 0;

  RawSock() {
    fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_CLOEXEC, 0);
    sockaddr_in sa{};
    sa.sin_family = AF_INET;
    inet_pton(AF_INET, "127.0.0.1", &sa.sin_addr);
    ::bind(fd, reinterpret_cast<const sockaddr*>(&sa), sizeof(sa));
    socklen_t len = sizeof(sa);
    ::getsockname(fd, reinterpret_cast<sockaddr*>(&sa), &len);
    port = ntohs(sa.sin_port);
  }
  ~RawSock() {
    if (fd >= 0) ::close(fd);
  }
  RawSock(const RawSock&) = delete;
  RawSock& operator=(const RawSock&) = delete;

  void send_to(std::uint16_t dst_port, const Bytes& data) const {
    sockaddr_in sa{};
    sa.sin_family = AF_INET;
    sa.sin_port = htons(dst_port);
    inet_pton(AF_INET, "127.0.0.1", &sa.sin_addr);
    ::sendto(fd, data.data(), data.size(), 0,
             reinterpret_cast<const sockaddr*>(&sa), sizeof(sa));
  }
};

/// `n` distinct ports that were free a moment ago (loopback-only, so the
/// reuse race is negligible).
inline std::vector<std::uint16_t> free_ports(std::size_t n) {
  std::vector<RawSock> probes(n);
  std::vector<std::uint16_t> ports;
  for (const RawSock& p : probes) ports.push_back(p.port);
  return ports;
}

inline std::uint16_t free_port() { return free_ports(1)[0]; }

inline std::string loopback_entry(std::uint64_t id, std::uint16_t port) {
  return std::to_string(id) + " 127.0.0.1:" + std::to_string(port) + "\n";
}

/// Poll until `pred` holds or ~2s pass (the node loop is asynchronous).
inline bool eventually(const std::function<bool()>& pred) {
  for (int i = 0; i < 200; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return pred();
}

}  // namespace horus::net
