// A replicated key-value store: state machine replication over Horus's
// totally ordered multicast -- the paper's "it is straightforward to
// implement replicated data ... in Horus" (Section 9).
//
// Every replica applies the same update stream in the same order (TOTAL),
// so replicas never diverge, even with concurrent writers, packet loss and
// a replica crash in the middle. New replicas can join and catch up.
//
//   $ ./replicated_kv                      # simulated 3-replica run
//
// Multi-process mode: the same Replica code deployed over real UDP, one
// process per replica (horus-net). Each process writes its own keys, all
// apply the identical TOTAL order, and the digests printed at the end
// match across processes:
//
//   $ ./replicated_kv --node=1 --book=book.txt &
//   $ ./replicated_kv --node=2 --book=book.txt --contact=1 &
//   $ ./replicated_kv --node=3 --book=book.txt --contact=1 &
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "horus/api/system.hpp"
#include "horus/net/runtime.hpp"
#include "horus/util/serialize.hpp"

using namespace horus;

namespace {

constexpr GroupId kStore{0x5707e};

constexpr const char* kSpec = "TOTAL:MBRSHIP:FRAG:NAK:COM";

/// A replica: applies SET/DEL commands delivered by the group. The same
/// class runs over the simulated network (sim main) and over real UDP
/// (node-mode main): it only ever sees an Endpoint.
class Replica {
 public:
  Replica(Endpoint& ep, std::string name)
      : name_(std::move(name)), ep_(&ep) {
    ep_->on_upcall([this](Group&, UpEvent& ev) {
      if (ev.type == UpType::kCast) apply(ev.msg.payload_bytes());
    });
  }

  void bootstrap() { ep_->join(kStore); }
  void join_via(const Replica& other) { ep_->join(kStore, other.ep_->address()); }

  void set(const std::string& k, const std::string& v) {
    Writer w;
    w.u8('S');
    w.str(k);
    w.str(v);
    ep_->cast(kStore, Message::from_payload(w.take()));
  }
  void del(const std::string& k) {
    Writer w;
    w.u8('D');
    w.str(k);
    ep_->cast(kStore, Message::from_payload(w.take()));
  }

  [[nodiscard]] const std::map<std::string, std::string>& data() const {
    return data_;
  }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] Endpoint& endpoint() { return *ep_; }

  [[nodiscard]] std::string digest() const {
    std::string d;
    for (const auto& [k, v] : data_) d += k + "=" + v + ";";
    return d;
  }

 private:
  void apply(const Bytes& cmd) {
    try {
      Reader r(cmd);
      char op = static_cast<char>(r.u8());
      std::string k = r.str();
      if (op == 'S') {
        data_[k] = r.str();
      } else if (op == 'D') {
        data_.erase(k);
      }
      ++applied_;
    } catch (const DecodeError&) {
      // not a store command; ignore
    }
  }

  std::string name_;
  Endpoint* ep_;
  std::map<std::string, std::string> data_;
  std::uint64_t applied_ = 0;
};

/// Real-network mode: one replica in this process, peers in others. Every
/// process writes keys tagged with its own id; TOTAL arbitrates one global
/// order, so after the run every process prints the same digest (the
/// net_multiproc test asserts exactly that across three children).
int run_node(std::uint64_t id, const std::string& book_path,
             std::uint64_t contact, long run_ms) {
  net::NodeConfig cfg;
  cfg.spec = kSpec;
  net::AddressBook book = net::AddressBook::load_file(book_path);
  net::NodeRuntime node(book, Address{id}, cfg);
  Replica self(node.endpoint(), "node" + std::to_string(id));

  node.endpoint().join(kStore, Address{contact});
  // Let the view settle, then race some writes against the other replicas.
  node.run_for(std::chrono::milliseconds(run_ms / 4));
  self.set("leader", self.name());
  self.set("k" + std::to_string(id), "v" + std::to_string(id));
  if (id % 2 == 0) self.del("k" + std::to_string(id - 1));
  node.run_for(std::chrono::milliseconds(run_ms - run_ms / 4));
  node.shutdown();

  // Quiescent now (node loop joined, inbox run): safe to read data.
  std::printf("DIGEST id=%llu %s\n", static_cast<unsigned long long>(id),
              self.digest().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t node_id = 0;
  std::uint64_t contact = 0;
  std::string book;
  long run_ms = 3000;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto val = [&] { return arg.substr(arg.find('=') + 1); };
    if (arg.rfind("--node=", 0) == 0) node_id = std::strtoull(val().c_str(), nullptr, 0);
    else if (arg.rfind("--book=", 0) == 0) book = val();
    else if (arg.rfind("--contact=", 0) == 0) contact = std::strtoull(val().c_str(), nullptr, 0);
    else if (arg.rfind("--run-ms=", 0) == 0) run_ms = std::strtol(val().c_str(), nullptr, 0);
    else {
      std::fprintf(stderr, "usage: replicated_kv [--node=ID --book=FILE [--contact=ID] [--run-ms=N]]\n");
      return 2;
    }
  }
  if (node_id != 0) {
    try {
      return run_node(node_id, book, contact, run_ms);
    } catch (const std::exception& ex) {
      std::fprintf(stderr, "replicated_kv: %s\n", ex.what());
      return 1;
    }
  }

  HorusSystem::Options opts;
  opts.net.loss = 0.1;
  HorusSystem sys(opts);

  Replica r1(sys.create_endpoint(kSpec), "r1");
  Replica r2(sys.create_endpoint(kSpec), "r2");
  Replica r3(sys.create_endpoint(kSpec), "r3");
  r1.bootstrap();
  sys.run_for(100 * sim::kMillisecond);
  r2.join_via(r1);
  sys.run_for(sim::kSecond);
  r3.join_via(r1);
  sys.run_for(2 * sim::kSecond);

  // Concurrent writers racing on the same keys: total order arbitrates
  // identically at every replica.
  r1.set("leader", "r1");
  r2.set("leader", "r2");
  r3.set("leader", "r3");
  r1.set("x", "1");
  r2.set("y", "2");
  r3.del("x");
  sys.run_for(3 * sim::kSecond);

  std::printf("after concurrent writes:\n");
  for (const Replica* r : {&r1, &r2, &r3}) {
    std::printf("  %s: %s\n", r->name().c_str(), r->digest().c_str());
  }
  bool agree = r1.digest() == r2.digest() && r2.digest() == r3.digest();
  std::printf("replicas agree: %s\n\n", agree ? "YES" : "NO");

  // Crash a replica; the survivors keep serving writes.
  sys.crash(r3.endpoint());
  r1.set("after-crash", "still-works");
  sys.run_for(5 * sim::kSecond);
  std::printf("after r3 crash:\n  r1: %s\n  r2: %s\n", r1.digest().c_str(),
              r2.digest().c_str());
  bool agree2 = r1.digest() == r2.digest();
  std::printf("survivors agree: %s\n", agree2 ? "YES" : "NO");
  return agree && agree2 ? 0 : 1;
}
