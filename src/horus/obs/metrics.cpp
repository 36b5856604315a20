#include "horus/obs/metrics.hpp"

#include <algorithm>
#include <utility>

#include "horus/analysis/race.hpp"
#include "horus/obs/flight_recorder.hpp"
#include "horus/util/hotpath_stats.hpp"

namespace horus::obs {
namespace {

/// Prometheus metric names allow [a-zA-Z_:][a-zA-Z0-9_:]*; registry names
/// use dots, so sanitize on export.
std::string sanitize(const std::string& name) {
  std::string out = "horus_";
  for (char c : name) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  return out;
}

/// Register the process-wide islands once, when the registry is first
/// touched. Per-object islands (UdpStats, StackStats) register through
/// their owners instead -- their lifetimes are not the process's.
void register_process_islands(MetricsRegistry& r) {
  MsgPathStats& mp = msg_path_stats();
  auto mirror = [&r](const char* name, std::atomic<std::uint64_t>& c) {
    r.poll_counter(std::string("msgpath.") + name, nullptr,
                   [&c] { return c.load(std::memory_order_relaxed); });
  };
  mirror("pool_hits", mp.pool_hits);
  mirror("pool_misses", mp.pool_misses);
  mirror("oversize", mp.oversize);
  mirror("headroom_growths", mp.headroom_growths);
  mirror("unshare_copies", mp.unshare_copies);
  mirror("writer_spills", mp.writer_spills);
  mirror("bytes_copied", mp.bytes_copied);
  mirror("packs_built", mp.packs_built);
  mirror("casts_packed", mp.casts_packed);
  mirror("flushes_by_size", mp.flushes_by_size);
  mirror("flushes_by_count", mp.flushes_by_count);
  mirror("flushes_by_timer", mp.flushes_by_timer);
  mirror("packed_bytes_saved", mp.packed_bytes_saved);
  mirror("trains_unpacked", mp.trains_unpacked);
  mirror("casts_unpacked", mp.casts_unpacked);
  mirror("corrupt_trains", mp.corrupt_trains);
  mirror("batch_sends", mp.batch_sends);
  mirror("reconfigs_requested", mp.reconfigs_requested);
  mirror("reconfigs_completed", mp.reconfigs_completed);
  mirror("reconfigs_rejected", mp.reconfigs_rejected);
  mirror("stale_epoch_drops", mp.stale_epoch_drops);
  mirror("shadow_datagrams", mp.shadow_datagrams);
  mirror("shadows_retired", mp.shadows_retired);
  mirror("state_transfers", mp.state_transfers);

  // horus-race: all zeros unless built with -DHORUS_CHECK_RACES (the query
  // API always links).
  r.poll_counter("race.cross_group", nullptr,
                 [] { return race::counters().cross_group; });
  r.poll_counter("race.wrong_group_timer", nullptr,
                 [] { return race::counters().wrong_group_timer; });
  r.poll_counter("race.stale_epoch", nullptr,
                 [] { return race::counters().stale_epoch; });

  // Stack boundary-crossing totals, derived from the flight recorder's
  // per-ring event counts: the hot path already records every crossing
  // into its group's single-writer ring, so mirroring the ring counts here
  // costs the probe nothing extra (no process-global counter RMW).
  // forward_down spans app downcalls + interior descents; forward_up spans
  // interior ascents + app deliveries -- same totals the probes previously
  // counted directly.
  r.poll_counter("stack.forward_down", nullptr, [] {
    FlightRecorder& fr = flight_recorder();
    return fr.count_of(FrEvent::kDowncall) + fr.count_of(FrEvent::kForwardDown);
  });
  r.poll_counter("stack.forward_up", nullptr, [] {
    FlightRecorder& fr = flight_recorder();
    return fr.count_of(FrEvent::kForwardUp) + fr.count_of(FrEvent::kAppDeliver);
  });
}

}  // namespace

std::uint64_t Snapshot::Hist::quantile_bound(double p) const {
  if (count == 0) return 0;
  auto want = static_cast<std::uint64_t>(p * static_cast<double>(count));
  if (want == 0) want = 1;
  std::uint64_t cum = 0;
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    cum += buckets[b];
    if (cum >= want) return Histogram::bucket_limit(b);
  }
  return Histogram::bucket_limit(Histogram::kBuckets - 1);
}

const Snapshot::Sample* Snapshot::find_counter(const std::string& name) const {
  for (const Sample& s : counters) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

const Snapshot::Hist* Snapshot::find_histogram(const std::string& name) const {
  for (const Hist& h : histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  util::MutexLock lock(mu_);
  return counters_[name];
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  util::MutexLock lock(mu_);
  return gauges_[name];
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  util::MutexLock lock(mu_);
  return histograms_[name];
}

void MetricsRegistry::poll_counter(const std::string& name, const void* owner,
                                   std::function<std::uint64_t()> fn) {
  util::MutexLock lock(mu_);
  polls_[name] = Poll{owner, true, [fn = std::move(fn)] {
                        return static_cast<std::int64_t>(fn());
                      }};
}

void MetricsRegistry::poll_gauge(const std::string& name, const void* owner,
                                 std::function<std::int64_t()> fn) {
  util::MutexLock lock(mu_);
  polls_[name] = Poll{owner, false, std::move(fn)};
}

void MetricsRegistry::remove_polls(const void* owner) {
  util::MutexLock lock(mu_);
  for (auto it = polls_.begin(); it != polls_.end();) {
    it = it->second.owner == owner ? polls_.erase(it) : std::next(it);
  }
}

Snapshot MetricsRegistry::snapshot() const {
  Snapshot out;
  util::MutexLock lock(mu_);
  out.counters.reserve(counters_.size() + polls_.size());
  for (const auto& [name, c] : counters_) {
    out.counters.push_back({name, static_cast<std::int64_t>(c.value())});
  }
  for (const auto& [name, g] : gauges_) {
    out.gauges.push_back({name, g.value()});
  }
  for (const auto& [name, p] : polls_) {
    (p.is_counter ? out.counters : out.gauges).push_back({name, p.fn()});
  }
  for (const auto& [name, h] : histograms_) {
    Snapshot::Hist sh;
    sh.name = name;
    for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
      sh.buckets[b] = h.bucket(b);
    }
    sh.count = h.count();
    sh.sum = h.sum();
    out.histograms.push_back(std::move(sh));
  }
  // Polled entries interleave with owned ones: one sorted namespace.
  auto by_name = [](const auto& a, const auto& b) { return a.name < b.name; };
  std::sort(out.counters.begin(), out.counters.end(), by_name);
  std::sort(out.gauges.begin(), out.gauges.end(), by_name);
  std::sort(out.histograms.begin(), out.histograms.end(), by_name);
  return out;
}

std::string MetricsRegistry::prometheus() const {
  Snapshot s = snapshot();
  std::string out;
  for (const Snapshot::Sample& c : s.counters) {
    std::string n = sanitize(c.name);
    out += "# TYPE " + n + " counter\n";
    out += n + " " + std::to_string(c.value) + "\n";
  }
  for (const Snapshot::Sample& g : s.gauges) {
    std::string n = sanitize(g.name);
    out += "# TYPE " + n + " gauge\n";
    out += n + " " + std::to_string(g.value) + "\n";
  }
  for (const Snapshot::Hist& h : s.histograms) {
    std::string n = sanitize(h.name);
    out += "# TYPE " + n + " histogram\n";
    std::uint64_t cum = 0;
    for (std::size_t b = 0; b < h.buckets.size(); ++b) {
      if (h.buckets[b] == 0 && b + 1 < h.buckets.size()) continue;
      cum += h.buckets[b];
      std::string le = b + 1 < h.buckets.size()
                           ? std::to_string(Histogram::bucket_limit(b))
                           : std::string("+Inf");
      out += n + "_bucket{le=\"" + le + "\"} " + std::to_string(cum) + "\n";
    }
    out += n + "_sum " + std::to_string(h.sum) + "\n";
    out += n + "_count " + std::to_string(h.count) + "\n";
  }
  return out;
}

void MetricsRegistry::reset() {
  util::MutexLock lock(mu_);
  for (auto& [name, c] : counters_) c.reset();
  for (auto& [name, g] : gauges_) g.reset();
  for (auto& [name, h] : histograms_) h.reset();
}

MetricsRegistry& metrics() {
  static MetricsRegistry* reg = [] {
    auto* r = new MetricsRegistry();  // leaked: outlives every static user
    register_process_islands(*r);
    return r;
  }();
  return *reg;
}

}  // namespace horus::obs
