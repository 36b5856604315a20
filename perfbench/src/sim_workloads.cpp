// The two simulated workloads: total_one_sender and
// packed_all_senders_lossy. Both run on SimNetwork with the deterministic
// single-threaded executor and offer their load open-loop in virtual
// time, so a seed fixes every protocol decision; wall and CPU time are
// what the measured phase observes.
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "horus/api/system.hpp"
#include "horus/layers/registry.hpp"
#include "horus/obs/metrics.hpp"
#include "horus/util/hotpath_stats.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace pb {
namespace {

using horus::sim::Duration;
using horus::sim::Time;
using horus::sim::kMillisecond;
using horus::sim::kSecond;

constexpr horus::GroupId kGroup{0xbe4c};

struct SimSpec {
  const char* name;
  const char* stack;
  std::size_t members;
  std::size_t senders;  ///< members [0, senders) cast
  Duration gap_min;     ///< per-sender gap between casts, virtual us,
  Duration gap_max;     ///< drawn uniformly from [gap_min, gap_max]
  std::size_t small_bytes;
  std::size_t big_bytes;
  std::uint64_t big_one_in;  ///< a cast is big with probability 1/big_one_in
  double loss;
};

// TOTAL's token dominates: one sender, lossless link, no PACK.
constexpr SimSpec kTotalOneSender{"total_one_sender",
                                  "TOTAL:MBRSHIP:FRAG:NAK:COM",
                                  3, 1, 150, 250, 100, 0, 0, 0.0};
// PACK trains, NAK retransmission, STABLE gossip, FRAG and COM's CRC.
constexpr SimSpec kPackedAllSendersLossy{
    "packed_all_senders_lossy", "PACK:TOTAL:STABLE:MBRSHIP:FRAG:NAK:COM",
    4, 4, 600, 1000, 64, 4096, 16, 0.02};

const SimSpec* find_spec(const std::string& name) {
  for (const SimSpec* s : {&kTotalOneSender, &kPackedAllSendersLossy}) {
    if (name == s->name) return s;
  }
  return nullptr;
}

/// The measured phase is cut into kChunks chunks of equal virtual length,
/// each ~10-20 ms of wall time at the default run length. Rates are the median over chunks: on a
/// shared virtual machine the host takes the CPU away in bursts, and short
/// chunks let the median step over them. The backlog guard compares the
/// first and the last quarter of the chunks.
constexpr int kChunks = 1024;

/// Every 1024th cast of each sender is sampled for span output.
constexpr std::uint64_t kSampleMask = 1023;
/// Cast times are kept in a ring per sender, by seq. It holds ~0.8 s
/// (total_one_sender) to ~3.3 s (packed) of one sender's casts, some 70
/// times the p99 latency; a cast that would overwrite one still undelivered at
/// some member fails the run (Recorder::overruns).
constexpr std::uint64_t kRing = 4096;

std::uint64_t trace_id(std::uint64_t sender, std::uint64_t seq) {
  return ((sender + 1) << 40) | seq;
}

/// What the measured phase records at deliveries (not allocated for the
/// repeated set-ups, which only time world construction).
struct Recorder {
  explicit Recorder(std::size_t senders)
      : cast_time(senders, std::vector<Time>(kRing, 0)) {}
  std::vector<std::vector<Time>> cast_time;  ///< per sender, by seq % kRing
  Latencies lat;
  std::vector<std::uint64_t> first_seq;  ///< per sender: first measured cast
  int chunk = -1;                        ///< -1: warm-up, not recorded
  std::uint64_t overruns = 0;  ///< casts whose ring slot was still in flight
};

/// One simulated world: n endpoints on one group.
class SimWorld {
 public:
  SimWorld(const SimSpec& spec, std::uint64_t seed, Tracer* tracer)
      : tracer_(tracer), sys_(options(spec, seed, tracer)) {
    if (tracer_ != nullptr) app_slot_ = tracer_->slot("app");
    for (std::size_t i = 0; i < spec.members; ++i) {
      checks_.emplace_back(spec.senders);
      view_size_.push_back(0);
      eps_.push_back(&sys_.create_endpoint(spec.stack));
      eps_.back()->on_upcall([this, i](horus::Group&, horus::UpEvent& ev) {
        on_upcall(i, ev);
      });
    }
    eps_[0]->join(kGroup);
    for (std::size_t i = 1; i < eps_.size(); ++i) {
      eps_[i]->join(kGroup, eps_[0]->address());
    }
  }

  /// Run until every member has installed the full view.
  bool form() {
    for (int step = 0; step < 10'000; ++step) {
      bool all = true;
      for (std::size_t v : view_size_) all = all && v == eps_.size();
      if (all) return true;
      sys_.run_for(kMillisecond);
    }
    return false;
  }

  horus::HorusSystem& sys() { return sys_; }
  const std::vector<horus::Endpoint*>& eps() const { return eps_; }
  std::vector<DeliveryCheck>& checks() { return checks_; }
  void set_recorder(Recorder* r) { rec_ = r; }

  /// Cast the next message of `sender` now (virtual time).
  std::uint64_t cast(std::size_t sender, std::uint64_t seq, std::size_t size,
                     const PayloadMaker& maker) {
    if (rec_ != nullptr) {
      if (seq >= kRing) {
        for (const DeliveryCheck& ck : checks_) {
          if (ck.delivered_from(sender) <= seq - kRing) ++rec_->overruns;
        }
      }
      rec_->cast_time[sender][seq % kRing] = sys_.now();
    }
    horus::Message msg = horus::Message::from_payload(maker.make(sender, seq, size));
    const bool sampled = tracer_ != nullptr && (seq & kSampleMask) == 0;
    if (sampled) tracer_->set_pending_tag(trace_id(sender, seq));
    const std::uint64_t t0 = wall_ns();
    eps_[sender]->cast(kGroup, std::move(msg));
    const std::uint64_t dt = wall_ns() - t0;
    if (sampled) tracer_->set_pending_tag(0);
    return dt;
  }

  std::uint64_t datagrams_sent() const {
    std::uint64_t n = 0;
    for (auto* ep : eps_) n += ep->stack().stats().datagrams_sent.load();
    return n;
  }
  std::uint64_t wire_bytes_sent() const {
    std::uint64_t n = 0;
    for (auto* ep : eps_) n += ep->stack().stats().wire_bytes_sent.load();
    return n;
  }
  std::uint64_t header_bytes_sent() const {
    std::uint64_t n = 0;
    for (auto* ep : eps_) n += ep->stack().stats().header_bytes_sent.load();
    return n;
  }

 private:
  static horus::HorusSystem::Options options(const SimSpec& spec,
                                             std::uint64_t seed,
                                             Tracer* tracer) {
    horus::HorusSystem::Options o;
    o.seed = seed;
    o.net.loss = spec.loss;
    o.net.delay_min = 100;
    o.net.delay_max = 300;
    o.net.mtu = 1400;
    o.stack.mtu = 1400;
    if (tracer != nullptr) {
      o.stack_factory = [tracer](const std::string& s) {
        return wrap_timed(horus::layers::make_stack(s), *tracer);
      };
    }
    return o;
  }

  void on_upcall(std::size_t member, horus::UpEvent& ev) {
    if (ev.type == horus::UpType::kView) {
      view_size_[member] = ev.view.size();
      return;
    }
    if (ev.type != horus::UpType::kCast) return;
    std::optional<SpanScope> span;
    if (tracer_ != nullptr) span.emplace(*tracer_, app_slot_, Tracer::kUp);
    const horus::Bytes payload = ev.msg.payload_bytes();
    std::uint64_t sender = 0;
    std::uint64_t seq = 0;
    if (!PayloadMaker::parse(payload, sender, seq)) {
      checks_[member].malformed();
      return;
    }
    if (!checks_[member].deliver(sender, seq)) return;
    if (tracer_ != nullptr && (seq & kSampleMask) == 0) {
      tracer_->tag_current_root(trace_id(sender, seq));
    }
    if (rec_ == nullptr || rec_->chunk < 0 || seq < rec_->first_seq[sender]) {
      return;
    }
    const auto lat = static_cast<std::uint64_t>(
        sys_.now() - rec_->cast_time[sender][seq % kRing]);
    rec_->lat.all.add(lat);
    if (rec_->chunk < kChunks / 4) rec_->lat.first_quarter.add(lat);
    if (rec_->chunk >= kChunks - kChunks / 4) rec_->lat.last_quarter.add(lat);
  }

  Tracer* tracer_;
  horus::HorusSystem sys_;
  std::vector<horus::Endpoint*> eps_;
  std::vector<DeliveryCheck> checks_;
  std::vector<std::size_t> view_size_;
  Recorder* rec_ = nullptr;
  std::uint32_t app_slot_ = 0;
};

/// How much virtual work a run does. A traced run replays the plan of its
/// untraced partner, so both make exactly the same protocol decisions.
struct Plan {
  Duration warmup = 2 * kSecond;
  Duration chunk = 0;  ///< 0: calibrate from the warm-up's speed
};

/// Everything one measured run observed.
struct SimRun {
  Plan plan;
  bool formed = false;
  std::vector<double> chunk_rate;    ///< msgs/s per chunk
  std::vector<double> chunk_cpu_us;  ///< CPU us per msg per chunk
  std::unique_ptr<Recorder> rec;
  std::uint64_t casts = 0;  ///< measured phase
  std::uint64_t dgrams = 0, wire = 0, header = 0;
  std::uint64_t events = 0, loss_drops = 0;
  std::uint64_t cast_ns = 0, run_ns = 0;
  std::uint64_t phase_wall_ns = 0;
  double phase_cpu_s = 0;
  std::uint64_t bytes_copied = 0, pool_misses = 0;
  std::uint64_t packs = 0, casts_packed = 0, timer_flushes = 0;
  double queue_p50_us = 0, queue_p99_us = 0;
  std::uint64_t expected = 0, lost = 0, violations = 0;
  std::vector<std::uint64_t> digests;
  double idle_dgrams_per_s = 0;
  /// Tracer accumulators at the end of the measured phase, by slot name
  /// (the drain and idle window that follow are not counted).
  std::vector<std::pair<std::string, Tracer::Acc>> layer_acc;
  std::uint64_t layer_self_ns = 0;
  std::size_t traces = 0;
};

struct PathCounters {
  std::uint64_t bytes_copied, pool_misses, packs, casts_packed, timer_flushes;
  static PathCounters now() {
    const horus::MsgPathStats& m = horus::msg_path_stats();
    return {m.bytes_copied.load(), m.pool_misses.load(), m.packs_built.load(),
            m.casts_packed.load(), m.flushes_by_timer.load()};
  }
};

SimRun run_measured(const SimSpec& spec, std::uint64_t seed, double seconds,
                    Plan plan, Tracer* tracer) {
  const CpuRotation& cpus = CpuRotation::process();
  cpus.pin(0);
  SimRun r;
  r.rec = std::make_unique<Recorder>(spec.senders);
  SimWorld w(spec, seed, tracer);
  r.formed = w.form();
  if (!r.formed) return r;
  horus::HorusSystem& sys = w.sys();
  w.set_recorder(r.rec.get());
  PayloadMaker maker(seed);

  struct Sender {
    horus::Rng rng;
    Time next;
    std::uint64_t seq = 0;
  };
  std::vector<Sender> senders;
  for (std::size_t s = 0; s < spec.senders; ++s) {
    horus::Rng rng(horus::stream_seed(seed, 100 + s));
    const Time first = sys.now() + static_cast<Time>(rng.next_below(spec.gap_max));
    senders.push_back({rng, first});
  }
  std::uint64_t events = 0, cast_ns = 0, run_ns = 0;
  auto run_to = [&](Time t) {
    const std::uint64_t t0 = wall_ns();
    events += sys.run_until(t);
    run_ns += wall_ns() - t0;
  };
  // Offer the load open-loop in virtual time up to `end`.
  auto offer_until = [&](Time end) {
    for (;;) {
      std::size_t s = 0;
      for (std::size_t i = 1; i < senders.size(); ++i) {
        if (senders[i].next < senders[s].next) s = i;
      }
      Sender& snd = senders[s];
      if (snd.next >= end) break;
      run_to(snd.next);
      const bool big = spec.big_one_in != 0 && snd.rng.next_below(spec.big_one_in) == 0;
      cast_ns += w.cast(s, snd.seq++, big ? spec.big_bytes : spec.small_bytes, maker);
      snd.next += spec.gap_min +
                  static_cast<Time>(snd.rng.next_below(spec.gap_max - spec.gap_min + 1));
    }
    run_to(end);
  };
  auto sent = [&] {
    std::uint64_t n = 0;
    for (const Sender& s : senders) n += s.seq;
    return n;
  };

  // Warm-up: caches fill, pools grow, NAK windows reach steady state.
  const std::uint64_t warm0 = wall_ns();
  offer_until(sys.now() + plan.warmup);
  if (plan.chunk == 0) {
    const double wall_per_virtual =
        static_cast<double>(wall_ns() - warm0) / 1000.0 /
        static_cast<double>(plan.warmup);
    const double target = seconds * 1e6 / wall_per_virtual / kChunks;
    // At least 100 ms of virtual time, several times the p99 latency, so
    // every member delivers in every chunk even while NAK repairs a loss.
    plan.chunk = std::max<Duration>(100 * kMillisecond, static_cast<Duration>(target));
  }
  r.plan = plan;

  // Measured phase.
  for (std::size_t s = 0; s < senders.size(); ++s) r.rec->first_seq.push_back(senders[s].seq);
  const std::uint64_t casts0 = sent();
  const std::uint64_t dg0 = w.datagrams_sent(), wire0 = w.wire_bytes_sent(),
                      hdr0 = w.header_bytes_sent();
  const std::uint64_t loss0 = sys.net().stats().dropped_loss.load();
  const PathCounters pc0 = PathCounters::now();
  horus::obs::metrics().reset();
  events = cast_ns = run_ns = 0;
  if (tracer != nullptr) {
    tracer->reset();
    tracer->set_sampling(true);
  }
  const double cpu_start = cpu_s();
  for (int c = 0; c < kChunks; ++c) {
    cpus.pin(static_cast<std::size_t>(c));
    r.rec->chunk = c;
    std::vector<std::uint64_t> d0;
    for (const auto& ck : w.checks()) d0.push_back(ck.delivered());
    const std::uint64_t t0 = wall_ns();
    const double c0 = cpu_s();
    offer_until(sys.now() + plan.chunk);
    const std::uint64_t dt = wall_ns() - t0;
    const double dc = cpu_s() - c0;
    std::uint64_t slowest = UINT64_MAX;
    for (std::size_t i = 0; i < d0.size(); ++i) {
      slowest = std::min(slowest, w.checks()[i].delivered() - d0[i]);
    }
    r.phase_wall_ns += dt;
    if (slowest == 0) continue;
    r.chunk_rate.push_back(static_cast<double>(slowest) / (static_cast<double>(dt) * 1e-9));
    r.chunk_cpu_us.push_back(dc * 1e6 / static_cast<double>(slowest));
  }
  r.phase_cpu_s = cpu_s() - cpu_start;
  cpus.pin(0);
  if (tracer != nullptr) {
    tracer->set_sampling(false);
    for (const std::string& name : tracer->names()) {
      r.layer_acc.emplace_back(name, tracer->acc(name));
    }
    r.layer_self_ns = tracer->total_self_ns();
    r.traces = tracer->traces_kept();
  }
  r.casts = sent() - casts0;
  r.dgrams = w.datagrams_sent() - dg0;
  r.wire = w.wire_bytes_sent() - wire0;
  r.header = w.header_bytes_sent() - hdr0;
  r.loss_drops = sys.net().stats().dropped_loss.load() - loss0;
  r.events = events;
  r.cast_ns = cast_ns;
  r.run_ns = run_ns;
  const PathCounters pc1 = PathCounters::now();
  r.bytes_copied = pc1.bytes_copied - pc0.bytes_copied;
  r.pool_misses = pc1.pool_misses - pc0.pool_misses;
  r.packs = pc1.packs - pc0.packs;
  r.casts_packed = pc1.casts_packed - pc0.casts_packed;
  r.timer_flushes = pc1.timer_flushes - pc0.timer_flushes;
  const horus::obs::Snapshot snap = horus::obs::metrics().snapshot();
  const auto* qd = snap.find_histogram("exec.queue_delay_hist_ns");
  r.queue_p50_us = registry_quantile(qd, 0.5) / 1000.0;
  r.queue_p99_us = registry_quantile(qd, 0.99) / 1000.0;

  // Drain: every member must deliver every cast of every sender.
  auto missing = [&] {
    std::uint64_t n = 0;
    for (const auto& ck : w.checks()) {
      for (std::size_t s = 0; s < senders.size(); ++s) {
        n += senders[s].seq - ck.delivered_from(s);
      }
    }
    return n;
  };
  const Time deadline = sys.now() + 10 * kSecond;
  while (missing() > 0 && sys.now() < deadline) sys.run_for(10 * kMillisecond);
  r.expected = sent() * w.eps().size();
  r.lost = missing();
  for (const auto& ck : w.checks()) {
    r.violations += ck.violations();
    r.digests.push_back(ck.digest());
  }

  // Background traffic over a fixed idle window after the last delivery.
  constexpr Duration kIdle = 2 * kSecond;
  const std::uint64_t idle0 = w.datagrams_sent();
  sys.run_for(kIdle);
  r.idle_dgrams_per_s = static_cast<double>(w.datagrams_sent() - idle0) /
                        (static_cast<double>(kIdle) / kSecond);
  return r;
}

/// Wall time of set-ups: build the world, create the endpoints, join, run
/// until every member has installed the full view. A single sub-millisecond
/// set-up is mostly noise, so the metric is the median of many, taken in
/// two batches (before and after the measured phase) to average over the
/// machine's drift across the run.
void add_setups(const SimSpec& spec, std::uint64_t seed,
                std::vector<double>& samples, bool& ok) {
  const CpuRotation& cpus = CpuRotation::process();
  const std::uint64_t start = wall_ns();
  const std::size_t first = samples.size();
  while (samples.size() - first < 51 ||
         (wall_ns() - start < 250'000'000ULL && samples.size() - first < 1001)) {
    cpus.pin(samples.size() / 16);  // a migration per sample would be timed
    const std::uint64_t t0 = wall_ns();
    auto w = std::make_unique<SimWorld>(spec, seed, nullptr);
    const bool formed = w->form();
    samples.push_back(static_cast<double>(wall_ns() - t0) * 1e-9);
    ok = ok && formed;
  }
}

/// The checks every run makes: FIFO per sender at every member, identical
/// total order, nothing missing at the deadline, no backlog.
void judge(const SimRun& r, const RunArgs& args, Result& res) {
  if (!r.formed) {
    res.fail("view never formed");
    return;
  }
  res.attempted = r.expected;
  res.failed = r.lost;
  if (r.violations != 0) {
    res.fail(std::to_string(r.violations) + " FIFO violations (gap, duplicate, "
             "reorder or corrupt payload)");
  }
  for (std::uint64_t d : r.digests) {
    if (d != r.digests.front()) {
      res.fail("members disagree on the total delivery order");
      break;
    }
  }
  if (r.casts == 0 || r.chunk_rate.size() != static_cast<std::size_t>(kChunks)) {
    res.fail("a measured chunk delivered nothing");
  }
  if (r.rec->overruns != 0) {
    res.fail(std::to_string(r.rec->overruns) +
             " casts overwrote the cast time of a cast still in flight");
  }
  r.rec->lat.backlog_guard(args.backlog_bound, res);
}

}  // namespace

bool is_sim_workload(const std::string& name) { return find_spec(name) != nullptr; }

void run_sim_workload(const RunArgs& args, Result& res, EndToEnd& e2e,
                      LayerValues& layers) {
  const SimSpec& spec = *find_spec(args.workload);
  if (!args.trace) {
    bool ok = true;
    std::vector<double> setups;
    add_setups(spec, args.seed, setups, ok);
    const SimRun r = run_measured(spec, args.seed, args.seconds, Plan{}, nullptr);
    add_setups(spec, args.seed, setups, ok);
    if (!ok) res.fail("a set-up never formed the full view");
    judge(r, args, res);
    std::printf("%s: %zu set-ups, %llu casts measured, %llu latency samples, "
                "chunk %lld us virtual, lost %llu of %llu\n",
                spec.name, setups.size(), static_cast<unsigned long long>(r.casts),
                static_cast<unsigned long long>(r.rec->lat.all.count()),
                static_cast<long long>(r.plan.chunk),
                static_cast<unsigned long long>(r.lost),
                static_cast<unsigned long long>(r.expected));
    e2e["setup_s"] = median(setups);
    e2e["msgs_per_s"] = median(r.chunk_rate);
    e2e["cpu_us_per_msg"] = median(r.chunk_cpu_us);
    e2e["lat_p50_us"] = r.rec->lat.all.quantile(0.5);
    e2e["lat_p99_us"] = r.rec->lat.all.quantile(0.99);
    e2e["dgrams_per_msg"] = per(static_cast<double>(r.dgrams), r.casts);
    e2e["wire_bytes_per_msg"] = per(static_cast<double>(r.wire), r.casts);
    e2e["idle_dgrams_per_s"] = r.idle_dgrams_per_s;
    e2e["rss_mb"] = peak_rss_mb();
    e2e["delivered_frac"] =
        r.expected == 0 ? 0.0
                        : 1.0 - static_cast<double>(r.lost) / static_cast<double>(r.expected);
    return;
  }

  // Traced: an untraced run fixes the plan, then the traced run replays it
  // with the same seed. Each gets half the time budget.
  std::string selftest;
  if (!run_selftest(selftest)) res.fail("tracer self-test failed:\n" + selftest);
  std::printf("%s", selftest.c_str());
  const SimRun plain = run_measured(spec, args.seed, args.seconds / 2, Plan{}, nullptr);
  Tracer tracer;
  const SimRun traced = run_measured(spec, args.seed, 0, plain.plan, &tracer);
  judge(plain, args, res);
  judge(traced, args, res);
  if (traced.digests != plain.digests || traced.dgrams != plain.dgrams ||
      traced.wire != plain.wire || traced.casts != plain.casts) {
    res.fail("the traced run behaved differently from the untraced run");
  }
  if (!args.trace_dir.empty()) {
    const std::string path = args.trace_dir + "/" + spec.name + "-" +
                             std::to_string(args.seed) + ".spans.jsonl";
    if (!tracer.write_spans(path)) res.fail("cannot write " + path);
    std::printf("spans of %zu sampled roots written to %s\n", traced.traces,
                path.c_str());
  }

  const std::uint64_t n = traced.casts;
  for (const auto& [name, a] : traced.layer_acc) {
    if (name == "app") {
      layers["layer.app_us_per_msg"] =
          per(static_cast<double>(a.self_ns[Tracer::kUp]) / 1000.0, n);
      continue;
    }
    const std::string p = "layer." + name;
    layers[p + ".down_self_us_per_msg"] =
        per(static_cast<double>(a.self_ns[Tracer::kDown]) / 1000.0, n);
    layers[p + ".up_self_us_per_msg"] =
        per(static_cast<double>(a.self_ns[Tracer::kUp]) / 1000.0, n);
    layers[p + ".down_calls_per_msg"] = per(static_cast<double>(a.calls[Tracer::kDown]), n);
    layers[p + ".up_calls_per_msg"] = per(static_cast<double>(a.calls[Tracer::kUp]), n);
  }
  // Wall time, the spans' own clock, so the layer, app and outside figures
  // sum to the measured phase. The traced thread is single and pinned, so
  // this is its time; it differs from its CPU time by host steal only.
  layers["layer.outside_us_per_msg"] =
      per((static_cast<double>(traced.phase_wall_ns) -
           static_cast<double>(traced.layer_self_ns)) / 1000.0, n);
  layers["trace.overhead_frac"] = traced.phase_cpu_s / plain.phase_cpu_s - 1.0;
  layers["core.cast_call_us"] = per(static_cast<double>(plain.cast_ns) / 1000.0, plain.casts);
  layers["core.run_us_per_msg"] = per(static_cast<double>(plain.run_ns) / 1000.0, plain.casts);
  layers["core.header_bytes_per_msg"] = per(static_cast<double>(plain.header), plain.casts);
  layers["core.bytes_copied_per_msg"] = per(static_cast<double>(plain.bytes_copied), plain.casts);
  layers["core.pool_misses_per_msg"] = per(static_cast<double>(plain.pool_misses), plain.casts);
  layers["pack.casts_per_train"] = per(static_cast<double>(plain.casts_packed), plain.packs);
  layers["pack.flush_timer_frac"] = per(static_cast<double>(plain.timer_flushes), plain.packs);
  layers["sim.events_per_msg"] = per(static_cast<double>(plain.events), plain.casts);
  layers["sim.loss_drops_per_msg"] = per(static_cast<double>(plain.loss_drops), plain.casts);
  layers["runtime.queue_delay_p50_us"] = plain.queue_p50_us;
  layers["runtime.queue_delay_p99_us"] = plain.queue_p99_us;
}

}  // namespace pb
