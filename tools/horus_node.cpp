// horus-node: run one Horus group member over real UDP.
//
// One process == one endpoint: give it an id, an address book and a stack
// spec, and it joins a group, multicasts a scripted workload and reports
// what it delivered. Three terminals (or the net_multiproc test) make a
// real distributed deployment of the same stacks the simulator runs:
//
//   $ horus-node --id=1 --book=book.txt --casts=10 --run-ms=4000
//   $ horus-node --id=2 --book=book.txt --contact=1 --casts=10 --run-ms=4000
//   $ horus-node --id=3 --book=book.txt --contact=1 --casts=10 --run-ms=4000
//
// The final RESULT line is machine-readable (the multi-process test parses
// it): per-sender delivery counts and FIFO digests, plus the last view.
// With --drop/--dup/--delay-max-us the wire-level fault shim is installed
// under the stack, so loss recovery can be demonstrated on localhost.
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <chrono>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "horus/net/runtime.hpp"
#include "horus/obs/flight_recorder.hpp"
#include "horus/obs/metrics.hpp"
#include "horus/util/rng.hpp"
#include "horus/util/serialize.hpp"

using namespace horus;

namespace {

/// SIGUSR1 asks a live node for its flight-recorder rings (docs/obs.md);
/// the handler only sets a flag, the main loop does the dumping.
volatile std::sig_atomic_t g_dump_flight = 0;

void on_sigusr1(int) { g_dump_flight = 1; }

struct Args {
  std::uint64_t id = 0;
  std::string book;
  std::string spec = "MBRSHIP:FRAG:NAK:COM";
  std::uint64_t group = 0x6e0de;
  std::uint64_t contact = 0;  // 0: bootstrap a new group
  long run_ms = 3000;
  long casts = 0;
  long cast_start_ms = 500;
  long cast_gap_ms = 20;
  long payload = 64;
  long leave_at_ms = 0;  // 0: never leave
  double drop = 0.0;
  double dup = 0.0;
  long delay_min_us = 0;
  long delay_max_us = 0;
  std::uint64_t seed = 0x5eed;
  long mtu = 1400;
  bool quiet = false;
  std::string metrics_dump;   // Prometheus exposition file ("" = off)
  long metrics_every_ms = 0;  // 0: write once at shutdown only
};

[[noreturn]] void usage(const char* what) {
  std::fprintf(stderr,
               "horus-node: %s\n"
               "usage: horus-node --id=N --book=FILE [--spec=S] [--group=N]\n"
               "  [--contact=N] [--run-ms=N] [--casts=N] [--cast-start-ms=N]\n"
               "  [--cast-gap-ms=N] [--payload=N] [--leave-at-ms=N]\n"
               "  [--drop=P] [--dup=P] [--delay-min-us=N] [--delay-max-us=N]\n"
               "  [--seed=N] [--mtu=N] [--quiet]\n"
               "  [--metrics-dump=FILE] [--metrics-every-ms=N]\n"
               "SIGUSR1 dumps the flight recorder to stderr.\n",
               what);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto eq = arg.find('=');
    std::string key = arg.substr(0, eq);
    std::string val = eq == std::string::npos ? "" : arg.substr(eq + 1);
    auto num = [&]() -> long { return std::strtol(val.c_str(), nullptr, 0); };
    auto u64 = [&]() -> std::uint64_t {
      return std::strtoull(val.c_str(), nullptr, 0);
    };
    if (key == "--id") a.id = u64();
    else if (key == "--book") a.book = val;
    else if (key == "--spec") a.spec = val;
    else if (key == "--group") a.group = u64();
    else if (key == "--contact") a.contact = u64();
    else if (key == "--run-ms") a.run_ms = num();
    else if (key == "--casts") a.casts = num();
    else if (key == "--cast-start-ms") a.cast_start_ms = num();
    else if (key == "--cast-gap-ms") a.cast_gap_ms = num();
    else if (key == "--payload") a.payload = num();
    else if (key == "--leave-at-ms") a.leave_at_ms = num();
    else if (key == "--drop") a.drop = std::strtod(val.c_str(), nullptr);
    else if (key == "--dup") a.dup = std::strtod(val.c_str(), nullptr);
    else if (key == "--delay-min-us") a.delay_min_us = num();
    else if (key == "--delay-max-us") a.delay_max_us = num();
    else if (key == "--seed") a.seed = u64();
    else if (key == "--mtu") a.mtu = num();
    else if (key == "--quiet") a.quiet = true;
    else if (key == "--metrics-dump") a.metrics_dump = val;
    else if (key == "--metrics-every-ms") a.metrics_every_ms = num();
    else usage(("unknown flag " + arg).c_str());
  }
  if (a.id == 0) usage("--id is required (and must be nonzero)");
  if (a.book.empty()) usage("--book is required");
  if (a.payload < 16) a.payload = 16;  // room for the (sender, seq) header
  return a;
}

/// What this node observed, written to from the node loop via upcalls.
struct Observed {
  std::mutex mu;
  std::uint64_t views = 0;
  View last_view;
  std::uint64_t delivered = 0;
  struct PerSender {
    std::uint64_t count = 0;
    std::uint64_t digest = fnv1a64("node-digest");
  };
  std::map<std::uint64_t, PerSender> from;
};

}  // namespace

int main(int argc, char** argv) {
  Args a = parse_args(argc, argv);
  net::NodeConfig cfg;
  cfg.spec = a.spec;
  cfg.udp.mtu = static_cast<std::size_t>(a.mtu);
  if (a.drop > 0 || a.dup > 0 || a.delay_max_us > 0) {
    cfg.enable_fault_shim = true;
    cfg.faults.drop = a.drop;
    cfg.faults.duplicate = a.dup;
    cfg.faults.delay_min = a.delay_min_us;
    cfg.faults.delay_max = a.delay_max_us;
    cfg.faults.seed = a.seed;
  }

  std::optional<net::NodeRuntime> node_store;
  try {
    net::AddressBook book = net::AddressBook::load_file(a.book);
    node_store.emplace(book, Address{a.id}, cfg);
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "horus-node: %s\n", ex.what());
    return 1;
  }
  net::NodeRuntime& node = *node_store;

  Observed obs;
  GroupId gid{a.group};
  node.endpoint().on_upcall([&](Group&, UpEvent& ev) {
    std::lock_guard lock(obs.mu);
    if (ev.type == UpType::kView) {
      ++obs.views;
      obs.last_view = ev.view;
      return;
    }
    if (ev.type != UpType::kCast) return;
    Bytes payload = ev.msg.payload_bytes();
    try {
      Reader r(payload);
      std::uint64_t sender = r.u64();
      std::uint64_t seq = r.u64();
      auto& per = obs.from[sender];
      ++per.count;
      ++obs.delivered;
      per.digest = fnv1a64_step(per.digest, seq);
    } catch (const DecodeError&) {
      // not a workload cast (foreign traffic on the group): ignore
    }
  });

  node.endpoint().join(gid, Address{a.contact});

  std::signal(SIGUSR1, on_sigusr1);
  auto write_metrics = [&] {
    if (a.metrics_dump.empty()) return;
    if (std::FILE* f = std::fopen(a.metrics_dump.c_str(), "w")) {
      std::string text = horus::obs::metrics().prometheus();
      std::fwrite(text.data(), 1, text.size(), f);
      std::fclose(f);
    } else {
      std::fprintf(stderr, "horus-node: cannot write %s\n",
                   a.metrics_dump.c_str());
    }
  };

  using Clock = std::chrono::steady_clock;
  const auto start = Clock::now();
  long sent = 0;
  long last_metrics_ms = 0;
  bool left = false;
  auto elapsed_ms = [&]() -> long {
    return static_cast<long>(std::chrono::duration_cast<
                                 std::chrono::milliseconds>(Clock::now() -
                                                            start)
                                 .count());
  };
  // The node loop runs the stack by itself; this thread only paces the
  // scripted workload, the leave and the dumps.
  while (elapsed_ms() < a.run_ms) {
    node.run_for(std::chrono::milliseconds(10));
    long now = elapsed_ms();
    while (!left && sent < a.casts &&
           now >= a.cast_start_ms + sent * a.cast_gap_ms) {
      Writer w;
      w.u64(a.id);
      w.u64(static_cast<std::uint64_t>(sent));
      for (long p = 16; p < a.payload; ++p) {
        w.u8(static_cast<std::uint8_t>(p));
      }
      node.endpoint().cast(gid, Message::from_payload(w.take()));
      ++sent;
    }
    if (!left && a.leave_at_ms > 0 && now >= a.leave_at_ms) {
      node.endpoint().leave(gid);
      left = true;
    }
    if (g_dump_flight != 0) {
      g_dump_flight = 0;
      std::string flight = horus::obs::flight_recorder().dump_all();
      std::fprintf(stderr, "%s",
                   flight.empty() ? "FLIGHT (no events recorded)\n"
                                  : flight.c_str());
      std::fflush(stderr);
    }
    if (a.metrics_every_ms > 0 &&
        now - last_metrics_ms >= a.metrics_every_ms) {
      last_metrics_ms = now;
      write_metrics();
    }
  }
  // Final dump before shutdown: shutdown() unregisters the runtime's poll
  // adapters, so a post-shutdown write would lose the stack.*/udp.* series.
  write_metrics();
  node.shutdown();

  // Post-shutdown: the node loop is joined and its inbox run, so obs is
  // quiescent (the lock is for the analyzer's benefit).
  std::lock_guard lock(obs.mu);
  std::string from;
  for (const auto& [sender, per] : obs.from) {
    if (!from.empty()) from += ",";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%llu:%llu:%016llx",
                  static_cast<unsigned long long>(sender),
                  static_cast<unsigned long long>(per.count),
                  static_cast<unsigned long long>(per.digest));
    from += buf;
  }
  std::string view;
  for (const Address& m : obs.last_view.members()) {
    if (!view.empty()) view += ",";
    view += std::to_string(m.id);
  }
  if (!a.quiet) {
    std::printf("STATS id=%llu %s\n", static_cast<unsigned long long>(a.id),
                node.stats_summary().c_str());
  }
  std::printf("RESULT id=%llu views=%llu view_seq=%llu view=%s sent=%ld "
              "delivered=%llu from=%s left=%d\n",
              static_cast<unsigned long long>(a.id),
              static_cast<unsigned long long>(obs.views),
              static_cast<unsigned long long>(obs.last_view.id().seq),
              view.c_str(), sent,
              static_cast<unsigned long long>(obs.delivered), from.c_str(),
              left ? 1 : 0);
  std::fflush(stdout);
  return 0;
}
