// udp_loopback_fifo: three NodeRuntimes in one process on real UDP
// sockets over 127.0.0.1 (the host's loopback, not a real link), running
// MBRSHIP:FRAG:NAK:COM. One sender keeps kWindow casts outstanding at the
// slowest member (closed loop: an open loop's tail on loopback is mostly
// scheduling noise). Each node is pumped by its own thread calling
// run_for(10 ms) in a loop, as horus-node's main loop does; with the load
// generator that is four benchmark threads.
//
// All threads of a world run on one CPU, so CPU per cast and latency are
// one-core figures: the hand-offs between reactor, executor shard, pump and
// generator happen on one run queue. Left to the scheduler, or with one CPU
// per node, the cross-core wakeups make the wall-time figures unsteady on a
// shared machine (README.md, "UDP thread placement").
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "horus/net/runtime.hpp"
#include "horus/obs/metrics.hpp"
#include "horus/util/hotpath_stats.hpp"
#include "workloads.hpp"

namespace pb {
namespace {

using namespace std::chrono_literals;

constexpr std::size_t kMembers = 3;
constexpr std::uint64_t kWindow = 32;  ///< casts outstanding; well under nak_window
constexpr std::size_t kPayload = 100;
constexpr std::uint64_t kRing = 4096;  ///< cast times by seq; >> kWindow
constexpr horus::GroupId kGroup{0xbe4d};
/// The measured phase runs on kSegments freshly formed worlds in turn.
/// Throughput here is set by NAK's flow control (nak_window casts per
/// status round), so it depends on how the three nodes' status timers
/// happen to be phased at join time; one world per run would make that
/// draw the run's result.
constexpr int kSegments = 8;
/// Chunks of the measured phase per world. Each spans many NAK status
/// rounds (rates are the median over chunks; the backlog guard pools the
/// first and the last quarter of every world's chunks).
constexpr int kChunksPerSegment = 4;
constexpr int kChunks = kSegments * kChunksPerSegment;

/// Free UDP ports on 127.0.0.1 (bound, read back, released).
std::vector<std::uint16_t> free_ports(std::size_t n) {
  std::vector<int> fds;
  std::vector<std::uint16_t> ports;
  for (std::size_t i = 0; i < n; ++i) {
    const int fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_CLOEXEC, 0);
    if (fd < 0) throw std::runtime_error("socket() failed");
    sockaddr_in sa{};
    sa.sin_family = AF_INET;
    inet_pton(AF_INET, "127.0.0.1", &sa.sin_addr);
    socklen_t len = sizeof sa;
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&sa), sizeof sa) != 0 ||
        ::getsockname(fd, reinterpret_cast<sockaddr*>(&sa), &len) != 0) {
      ::close(fd);
      for (int f : fds) ::close(f);
      throw std::runtime_error("cannot bind a loopback UDP port");
    }
    fds.push_back(fd);
    ports.push_back(ntohs(sa.sin_port));
  }
  for (int fd : fds) ::close(fd);
  return ports;
}

class UdpWorld {
 public:
  UdpWorld() : checks_(kMembers, DeliveryCheck(1)) {
    const std::vector<std::uint16_t> ports = free_ports(kMembers);
    std::string text;
    for (std::size_t i = 0; i < kMembers; ++i) {
      text += std::to_string(i + 1) + " 127.0.0.1:" + std::to_string(ports[i]) + "\n";
    }
    book_ = horus::net::AddressBook::parse(text);
    horus::net::NodeConfig cfg;
    cfg.spec = "MBRSHIP:FRAG:NAK:COM";
    for (std::size_t i = 0; i < kMembers; ++i) {
      nodes_.push_back(std::make_unique<horus::net::NodeRuntime>(
          book_, horus::Address{i + 1}, cfg));
      nodes_.back()->endpoint().on_upcall(
          [this, i](horus::Group&, horus::UpEvent& ev) { on_upcall(i, ev); });
    }
    nodes_[0]->endpoint().join(kGroup);
    for (std::size_t i = 1; i < kMembers; ++i) {
      nodes_[i]->endpoint().join(kGroup, horus::Address{1});
    }
    try {
      for (std::size_t i = 0; i < kMembers; ++i) {
        pumps_.emplace_back([this, i] { pump(i); });
      }
    } catch (...) {
      stop_pumps();
      throw;
    }
  }

  ~UdpWorld() {
    stop_pumps();
    for (auto& n : nodes_) n->shutdown();
  }
  UdpWorld(const UdpWorld&) = delete;
  UdpWorld& operator=(const UdpWorld&) = delete;

  /// Wait until every member has installed the full view.
  bool wait_formed(std::chrono::milliseconds limit) {
    std::unique_lock lock(mu_);
    return cv_.wait_for(lock, limit, [this] { return formed_ == kMembers; });
  }

  /// Closed loop: block until fewer than kWindow casts are outstanding at
  /// the slowest member, or the deadline passes.
  bool wait_window(std::uint64_t sent, std::chrono::steady_clock::time_point until) {
    std::unique_lock lock(mu_);
    return cv_.wait_until(lock, until, [&] { return sent - slowest() < kWindow; });
  }

  /// Wait until the slowest member delivered `n` casts.
  bool wait_delivered(std::uint64_t n, std::chrono::milliseconds limit) {
    std::unique_lock lock(mu_);
    return cv_.wait_for(lock, limit, [&] { return slowest() >= n; });
  }

  void cast(std::uint64_t seq, const PayloadMaker& maker) {
    horus::Message msg = horus::Message::from_payload(maker.make(0, seq, kPayload));
    const std::uint64_t t0 = wall_ns();
    cast_wall_[seq % kRing].store(t0, std::memory_order_relaxed);
    nodes_[0]->endpoint().cast(kGroup, std::move(msg));
    cast_ns_ += wall_ns() - t0;
  }

  std::uint64_t slowest() const {
    std::uint64_t m = UINT64_MAX;
    for (const auto& d : delivered_) m = std::min(m, d.load(std::memory_order_acquire));
    return m;
  }
  std::uint64_t delivered(std::size_t i) const { return delivered_[i].load(); }

  /// Start recording latencies of casts from `first_seq` on.
  void record(std::uint64_t first_seq) {
    first_seq_.store(first_seq);
    for (auto& r : rec_) r = std::make_unique<Latencies>();
    recording_.store(true, std::memory_order_release);  // publishes rec_
  }
  void set_chunk(int c) { chunk_.store(c, std::memory_order_relaxed); }
  /// Merged latency histograms (call when deliveries have stopped).
  Latencies merged() const {
    Latencies m;
    for (const auto& r : rec_) m.merge(*r);
    return m;
  }

  const std::vector<DeliveryCheck>& checks() const { return checks_; }
  /// What a pump thread threw, if it stopped on an exception.
  std::string pump_error() {
    std::lock_guard lock(mu_);
    return pump_error_;
  }
  std::uint64_t driver_events() const { return driver_events_.load(); }
  std::uint64_t cast_ns() const { return cast_ns_; }

  template <class F>
  std::uint64_t sum_udp(F field) const {
    std::uint64_t n = 0;
    for (const auto& node : nodes_) n += field(node->udp().stats()).load();
    return n;
  }
  template <class F>
  std::uint64_t sum_stack(F field) const {
    std::uint64_t n = 0;
    for (const auto& node : nodes_) n += field(node->endpoint().stack().stats()).load();
    return n;
  }

 private:
  /// A node's main loop, as in horus-node: run_for(10 ms) until stopped.
  void pump(std::size_t i) {
    try {
      while (!stop_.load(std::memory_order_relaxed)) {
        driver_events_.fetch_add(nodes_[i]->run_for(10ms), std::memory_order_relaxed);
      }
    } catch (const std::exception& ex) {
      std::lock_guard lock(mu_);
      pump_error_ = ex.what();
    }
  }

  void stop_pumps() {
    stop_.store(true);
    for (std::thread& t : pumps_) t.join();
  }

  void on_upcall(std::size_t member, horus::UpEvent& ev) {
    if (ev.type == horus::UpType::kView) {
      if (ev.view.size() == kMembers && !full_view_[member]) {
        full_view_[member] = true;
        std::lock_guard lock(mu_);
        ++formed_;
        cv_.notify_all();
      }
      return;
    }
    if (ev.type != horus::UpType::kCast) return;
    const std::uint64_t now = wall_ns();
    const horus::Bytes payload = ev.msg.payload_bytes();
    std::uint64_t sender = 0;
    std::uint64_t seq = 0;
    if (!PayloadMaker::parse(payload, sender, seq)) {
      checks_[member].malformed();
      return;
    }
    if (!checks_[member].deliver(sender, seq)) return;
    if (recording_.load(std::memory_order_acquire) && seq >= first_seq_.load()) {
      const std::uint64_t lat =
          (now - cast_wall_[seq % kRing].load(std::memory_order_relaxed)) / 1000;
      Latencies& r = *rec_[member];
      r.all.add(lat);
      const int c = chunk_.load(std::memory_order_relaxed);
      if (c < kChunksPerSegment / 4) r.first_quarter.add(lat);
      if (c >= kChunksPerSegment - kChunksPerSegment / 4) r.last_quarter.add(lat);
    }
    {
      std::lock_guard lock(mu_);
      delivered_[member].store(checks_[member].delivered(), std::memory_order_release);
    }
    cv_.notify_all();
  }

  horus::net::AddressBook book_;
  std::vector<std::unique_ptr<horus::net::NodeRuntime>> nodes_;
  std::vector<DeliveryCheck> checks_;  // member i: written on node i's executor
  bool full_view_[kMembers] = {};
  std::array<std::atomic<std::uint64_t>, kMembers> delivered_{};
  std::array<std::atomic<std::uint64_t>, kRing> cast_wall_{};
  // Per member: each delivers on its own node's executor thread, so each
  // record has a single writer.
  std::array<std::unique_ptr<Latencies>, kMembers> rec_;
  std::atomic<bool> recording_{false};
  std::atomic<std::uint64_t> first_seq_{0};
  std::atomic<int> chunk_{0};
  std::uint64_t cast_ns_ = 0;
  std::mutex mu_;
  std::condition_variable cv_;
  std::size_t formed_ = 0;
  std::string pump_error_;
  std::atomic<std::uint64_t> driver_events_{0};
  std::atomic<bool> stop_{false};
  std::vector<std::thread> pumps_;  // last: joined before the state above dies
};

/// A world on fresh loopback ports. The ports are found free and then
/// bound by the nodes, so another process may take one in between: retry.
std::unique_ptr<UdpWorld> make_world() {
  for (int attempt = 1;; ++attempt) {
    try {
      return std::make_unique<UdpWorld>();
    } catch (const std::system_error&) {
      if (attempt == 5) throw;
    }
  }
}

/// Wall time of set-ups (sockets, reactors, executors, joins, full view at
/// every member). One set-up varies severalfold, so the metric is the
/// median of a few hundred repeats, taken in two batches: before and after
/// the measured phase.
void add_setups(std::vector<double>& samples, bool& ok) {
  const CpuRotation& cpus = CpuRotation::process();
  const std::uint64_t start = wall_ns();
  const std::size_t first = samples.size();
  while (samples.size() - first < 5 ||
         (wall_ns() - start < 2'000'000'000ULL && samples.size() - first < 401)) {
    cpus.pin(samples.size());
    const std::uint64_t t0 = wall_ns();
    auto w = make_world();
    ok = w->wait_formed(5s) && ok;
    samples.push_back(static_cast<double>(wall_ns() - t0) * 1e-9);
  }
}

/// Counters of one world, read together so a phase is their difference.
struct Counters {
  enum : std::size_t {
    kDgrams, kWire, kHeader, kTxBatches, kEagain, kWakeups, kRx,
    kEvents, kCastNs, kCopied, kMisses, kFull, kTrunc, kUnknown, kN
  };
  std::array<std::uint64_t, kN> v{};

  static Counters read(const UdpWorld& w) {
    using horus::StackStats;
    using horus::net::UdpStats;
    Counters c;
    c.v[kDgrams] = w.sum_stack([](const StackStats& s) -> auto& { return s.datagrams_sent; });
    c.v[kWire] = w.sum_stack([](const StackStats& s) -> auto& { return s.wire_bytes_sent; });
    c.v[kHeader] = w.sum_stack([](const StackStats& s) -> auto& { return s.header_bytes_sent; });
    c.v[kTxBatches] = w.sum_udp([](const UdpStats& s) -> auto& { return s.tx_batches; });
    c.v[kEagain] = w.sum_udp([](const UdpStats& s) -> auto& { return s.tx_eagain_retries; });
    c.v[kWakeups] = w.sum_udp([](const UdpStats& s) -> auto& { return s.rx_wakeups; });
    c.v[kRx] = w.sum_udp([](const UdpStats& s) -> auto& { return s.rx_datagrams; });
    c.v[kFull] = w.sum_udp([](const UdpStats& s) -> auto& { return s.tx_full_dropped; });
    c.v[kTrunc] = w.sum_udp([](const UdpStats& s) -> auto& { return s.rx_truncated; });
    c.v[kUnknown] = w.sum_udp([](const UdpStats& s) -> auto& { return s.rx_unknown_peer; });
    c.v[kEvents] = w.driver_events();
    c.v[kCastNs] = w.cast_ns();
    const horus::MsgPathStats& mp = horus::msg_path_stats();
    c.v[kCopied] = mp.bytes_copied.load();
    c.v[kMisses] = mp.pool_misses.load();
    return c;
  }
  void add_delta(const Counters& end, const Counters& start) {
    for (std::size_t i = 0; i < kN; ++i) v[i] += end.v[i] - start.v[i];
  }
  [[nodiscard]] double operator[](std::size_t i) const { return static_cast<double>(v[i]); }
};

}  // namespace

bool is_udp_workload(const std::string& name) { return name == "udp_loopback_fifo"; }

void run_udp_workload(const RunArgs& args, Result& res, EndToEnd& e2e,
                      LayerValues& layers) {
  bool ok = true;
  std::vector<double> setups;
  if (!args.trace) add_setups(setups, ok);

  PayloadMaker maker(args.seed);
  const auto chunk = std::chrono::nanoseconds(
      static_cast<std::int64_t>(args.seconds * 1e9 / kChunks));
  Counters total;
  Latencies lat;
  horus::obs::Snapshot::Hist queue;
  std::vector<double> rate, cpu;
  std::uint64_t casts = 0, expected = 0, lost = 0;
  double idle_rate = 0;
  const CpuRotation& cpus = CpuRotation::process();
  for (int seg = 0; seg < kSegments; ++seg) {
    // The whole world (its threads inherit this) runs on one CPU: left to
    // the scheduler, its ten threads land differently from run to run and
    // the CPU cost and latency jump between modes. Segments take the CPUs
    // in turn.
    cpus.pin(static_cast<std::size_t>(seg));
    const std::uint64_t t_setup = wall_ns();
    auto w = make_world();
    if (!w->wait_formed(5s)) {
      res.fail("view never formed");
      return;
    }
    setups.push_back(static_cast<double>(wall_ns() - t_setup) * 1e-9);
    std::uint64_t sent = 0;
    auto offer_for = [&](std::chrono::nanoseconds d) {
      const auto until = std::chrono::steady_clock::now() + d;
      while (std::chrono::steady_clock::now() < until) {
        if (w->wait_window(sent, until)) w->cast(sent++, maker);
      }
    };
    offer_for(250ms);  // warm-up
    w->record(sent);
    const std::uint64_t sent0 = sent;
    const Counters c0 = Counters::read(*w);
    horus::obs::metrics().reset();
    for (int c = 0; c < kChunksPerSegment; ++c) {
      w->set_chunk(c);
      std::vector<std::uint64_t> before;
      for (std::size_t i = 0; i < kMembers; ++i) before.push_back(w->delivered(i));
      const std::uint64_t t0 = wall_ns();
      const double cpu0 = cpu_s();
      offer_for(chunk);
      const double dt = static_cast<double>(wall_ns() - t0) * 1e-9;
      const double dc = cpu_s() - cpu0;
      std::uint64_t slowest = UINT64_MAX;
      for (std::size_t i = 0; i < kMembers; ++i) {
        slowest = std::min(slowest, w->delivered(i) - before[i]);
      }
      if (slowest == 0) continue;
      rate.push_back(static_cast<double>(slowest) / dt);
      cpu.push_back(dc * 1e6 / static_cast<double>(slowest));
    }
    casts += sent - sent0;
    total.add_delta(Counters::read(*w), c0);
    const horus::obs::Snapshot snap = horus::obs::metrics().snapshot();
    if (const auto* qd = snap.find_histogram("exec.queue_delay_hist_ns")) {
      for (std::size_t b = 0; b < qd->buckets.size(); ++b) queue.buckets[b] += qd->buckets[b];
      queue.count += qd->count;
    }

    // Drain; then, once per run, background traffic over an idle window.
    w->wait_delivered(sent, 5s);
    if (seg == kSegments - 1) {
      const auto dgrams = [&] { return Counters::read(*w).v[Counters::kDgrams]; };
      const std::uint64_t idle0 = dgrams();
      const std::uint64_t idle_t0 = wall_ns();
      std::this_thread::sleep_for(1s);
      idle_rate = static_cast<double>(dgrams() - idle0) /
                  (static_cast<double>(wall_ns() - idle_t0) * 1e-9);
    }

    // Checks: FIFO at every member, one order, no wire-level drops.
    expected += sent * kMembers;
    for (std::size_t i = 0; i < kMembers; ++i) {
      lost += sent - w->checks()[i].delivered_from(0);
      if (w->checks()[i].violations() != 0) {
        res.fail("member " + std::to_string(i + 1) + ": FIFO violations");
      }
      if (w->checks()[i].digest() != w->checks()[0].digest()) {
        res.fail("members disagree on the delivery order");
      }
    }
    if (const std::string e = w->pump_error(); !e.empty()) res.fail("pump thread: " + e);
    const Counters end = Counters::read(*w);
    if (end.v[Counters::kFull] + end.v[Counters::kTrunc] + end.v[Counters::kUnknown] != 0) {
      res.fail("udp drops: tx_full_dropped=" + std::to_string(end.v[Counters::kFull]) +
               " rx_truncated=" + std::to_string(end.v[Counters::kTrunc]) +
               " rx_unknown_peer=" + std::to_string(end.v[Counters::kUnknown]));
    }
    lat.merge(w->merged());
  }
  if (!args.trace) add_setups(setups, ok);
  if (!ok) res.fail("a set-up never formed the full view");

  res.attempted = expected;
  res.failed = lost;
  if (rate.size() != static_cast<std::size_t>(kChunks)) {
    res.fail("a measured chunk delivered nothing");
  }
  lat.backlog_guard(args.backlog_bound, res);
  std::printf("udp_loopback_fifo: %zu set-ups, %llu casts measured over %d worlds, "
              "%llu latency samples, lost %llu of %llu\n",
              setups.size(), static_cast<unsigned long long>(casts), kSegments,
              static_cast<unsigned long long>(lat.all.count()),
              static_cast<unsigned long long>(lost),
              static_cast<unsigned long long>(expected));

  if (!args.trace) {
    e2e["setup_s"] = median(setups);
    e2e["msgs_per_s"] = median(rate);
    e2e["cpu_us_per_msg"] = median(cpu);
    e2e["lat_p50_us"] = lat.all.quantile(0.5);
    e2e["lat_p99_us"] = lat.all.quantile(0.99);
    e2e["dgrams_per_msg"] = per(total[Counters::kDgrams], casts);
    e2e["wire_bytes_per_msg"] = per(total[Counters::kWire], casts);
    e2e["idle_dgrams_per_s"] = idle_rate;
    e2e["rss_mb"] = peak_rss_mb();
    e2e["delivered_frac"] =
        expected == 0 ? 0.0 : 1.0 - static_cast<double>(lost) / static_cast<double>(expected);
    return;
  }
  // NodeRuntime takes no stack factory, so this workload has no layer
  // spans; its per-layer numbers are the net, runtime and driver counters.
  layers["core.cast_call_us"] = per(total[Counters::kCastNs] / 1000.0, casts);
  layers["core.header_bytes_per_msg"] = per(total[Counters::kHeader], casts);
  layers["core.bytes_copied_per_msg"] = per(total[Counters::kCopied], casts);
  layers["core.pool_misses_per_msg"] = per(total[Counters::kMisses], casts);
  layers["net.tx_batches_per_msg"] = per(total[Counters::kTxBatches], casts);
  layers["net.rx_wakeups_per_msg"] = per(total[Counters::kWakeups], casts);
  layers["net.rx_dgrams_per_wakeup"] =
      per(total[Counters::kRx], total.v[Counters::kWakeups]);
  layers["net.tx_eagain_per_msg"] = per(total[Counters::kEagain], casts);
  layers["runtime.queue_delay_p50_us"] = registry_quantile(&queue, 0.5) / 1000.0;
  layers["runtime.queue_delay_p99_us"] = registry_quantile(&queue, 0.99) / 1000.0;
  layers["driver.events_per_msg"] = per(total[Counters::kEvents], casts);
}

}  // namespace pb
