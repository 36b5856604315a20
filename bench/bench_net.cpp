// Real-wire benchmarks for horus-net: casts through actual kernel UDP
// sockets on loopback (the EXPERIMENTS.md "real network" row) and the raw
// sendmmsg fan-out path in isolation.
//
//   * BM_NetCastThroughput: two NodeRuntime processes-in-one (two sockets,
//     two node loops), a formed 2-member view, bursts
//     of casts pushed until both sides deliver. Reports msgs/s end to end
//     and datagrams/cast (wire cost of one multicast through
//     MBRSHIP:FRAG:NAK:COM, NAK gossip included).
//   * BM_UdpSendBatch: UdpTransport::send_batch to N destinations, no
//     stack -- what one sendmmsg burst costs vs N sendto calls.
#include <benchmark/benchmark.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "horus/net/runtime.hpp"

using namespace horus;
using namespace std::chrono_literals;

namespace {

std::uint16_t grab_port(std::vector<int>& hold) {
  int fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_CLOEXEC, 0);
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  inet_pton(AF_INET, "127.0.0.1", &sa.sin_addr);
  ::bind(fd, reinterpret_cast<const sockaddr*>(&sa), sizeof(sa));
  socklen_t len = sizeof(sa);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&sa), &len);
  hold.push_back(fd);
  return ntohs(sa.sin_port);
}

std::string book_text(const std::vector<std::uint16_t>& ports) {
  std::string text;
  for (std::size_t i = 0; i < ports.size(); ++i) {
    text += std::to_string(i + 1) + " 127.0.0.1:" + std::to_string(ports[i]) +
            "\n";
  }
  return text;
}

/// Two real nodes over loopback with a settled 2-member view. Expensive to
/// stand up (sockets + node loops + view formation), so one rig serves a
/// whole benchmark run.
struct TwoNodeRig {
  net::AddressBook book;
  std::unique_ptr<net::NodeRuntime> n1, n2;
  std::atomic<std::uint64_t> delivered1{0}, delivered2{0};
  GroupId gid{0xbe7c4};

  TwoNodeRig() {
    std::vector<int> hold;
    std::vector<std::uint16_t> ports = {grab_port(hold), grab_port(hold)};
    for (int fd : hold) ::close(fd);
    book = net::AddressBook::parse(book_text(ports));
    net::NodeConfig cfg;
    n1 = std::make_unique<net::NodeRuntime>(book, Address{1}, cfg);
    n2 = std::make_unique<net::NodeRuntime>(book, Address{2}, cfg);
    n1->endpoint().on_upcall([this](Group&, UpEvent& ev) {
      if (ev.type == UpType::kCast) ++delivered1;
    });
    n2->endpoint().on_upcall([this](Group&, UpEvent& ev) {
      if (ev.type == UpType::kCast) ++delivered2;
    });
    n1->endpoint().join(gid);
    n2->endpoint().join(gid, Address{1});
    // Pump both nodes until the 2-member view has settled everywhere.
    for (int i = 0; i < 500; ++i) {
      pump(10ms);
      auto* g1 = n1->endpoint().find_group(gid);
      auto* g2 = n2->endpoint().find_group(gid);
      if (g1 && g2 && g1->view().size() == 2 && g2->view().size() == 2) break;
    }
  }
  ~TwoNodeRig() {
    n1->shutdown();
    n2->shutdown();
  }

  void pump(std::chrono::milliseconds total) {
    auto end = std::chrono::steady_clock::now() + total;
    while (std::chrono::steady_clock::now() < end) {
      n1->run_for(5ms);
      n2->run_for(5ms);
    }
  }
};

void BM_NetCastThroughput(benchmark::State& state) {
  static TwoNodeRig* rig = new TwoNodeRig();  // shared across runs
  const std::size_t payload = static_cast<std::size_t>(state.range(0));
  const int kBurst = 16;
  Message msg = Message::from_payload(Bytes(payload, 0x42));
  std::uint64_t casts = 0;
  std::uint64_t tx0 = rig->n1->udp().stats().tx_datagrams.load();
  for (auto _ : state) {
    std::uint64_t want1 = rig->delivered1.load() + kBurst;
    std::uint64_t want2 = rig->delivered2.load() + kBurst;
    for (int i = 0; i < kBurst; ++i) rig->n1->endpoint().cast(rig->gid, msg);
    while (rig->delivered1.load() < want1 || rig->delivered2.load() < want2) {
      rig->pump(1ms);
    }
    casts += kBurst;
  }
  std::uint64_t tx = rig->n1->udp().stats().tx_datagrams.load() - tx0;
  state.SetItemsProcessed(static_cast<std::int64_t>(casts));
  state.counters["msgs/s"] = benchmark::Counter(
      static_cast<double>(casts), benchmark::Counter::kIsRate);
  state.counters["datagrams/cast"] = benchmark::Counter(
      casts ? static_cast<double>(tx) / static_cast<double>(casts) : 0);
}
BENCHMARK(BM_NetCastThroughput)->Arg(64)->Arg(1024)
    ->UseRealTime()->Unit(benchmark::kMicrosecond);

void BM_UdpSendBatch(benchmark::State& state) {
  // Destinations are real bound sockets nobody reads: the kernel accepts
  // the datagrams and drops them when the buffers fill, so this times the
  // tx path alone.
  const int ndst = static_cast<int>(state.range(0));
  std::vector<int> hold;
  std::vector<std::uint16_t> ports;
  ports.push_back(grab_port(hold));  // self
  for (int i = 0; i < ndst; ++i) ports.push_back(grab_port(hold));
  ::close(hold[0]);  // free the self port for the transport to bind
  hold.erase(hold.begin());
  net::AddressBook book = net::AddressBook::parse(book_text(ports));
  net::UdpTransport udp(book, Address{1});
  std::vector<Address> dsts;
  for (int i = 0; i < ndst; ++i) dsts.push_back(Address{2 + static_cast<std::uint64_t>(i)});
  Bytes payload(256, 0x55);
  for (auto _ : state) {
    udp.send_batch(Address{1}, dsts, payload);
  }
  for (int fd : hold) ::close(fd);
  state.SetItemsProcessed(state.iterations() * ndst);
  state.counters["datagrams/s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * ndst),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_UdpSendBatch)->Arg(1)->Arg(4)->Arg(16)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  std::printf(
      "=== horus-net: real UDP over loopback ===\n"
      "BM_NetCastThroughput: 2 NodeRuntimes (MBRSHIP:FRAG:NAK:COM), bursts\n"
      "of 16 casts, measured cast->deliver on both nodes through kernel\n"
      "sockets; Arg = payload bytes. datagrams/cast is the wire cost of a\n"
      "2-member multicast including NAK/MBRSHIP gossip.\n"
      "BM_UdpSendBatch: raw sendmmsg fan-out, Arg = destinations.\n\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
