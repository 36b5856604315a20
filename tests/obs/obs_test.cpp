// horus-obs: the metrics registry (counters, gauges, log2 histograms,
// poll adapters, snapshot/Prometheus export) and the per-group flight
// recorder, plus an end-to-end check that the stack probes actually feed
// them when a cast traverses a full stack.
#include <string>

#include "../common/test_util.hpp"
#include "horus/obs/flight_recorder.hpp"
#include "horus/obs/metrics.hpp"
#include "horus/runtime/executor.hpp"

namespace horus::testing {
namespace {

// -- Histogram bucketing ----------------------------------------------------

TEST(ObsHistogram, BucketEdges) {
  // Bucket b holds values of bit width b: 0 -> 0, [2^(b-1), 2^b) -> b.
  EXPECT_EQ(obs::Histogram::bucket_of(0), 0u);
  EXPECT_EQ(obs::Histogram::bucket_of(1), 1u);
  EXPECT_EQ(obs::Histogram::bucket_of(2), 2u);
  EXPECT_EQ(obs::Histogram::bucket_of(3), 2u);
  EXPECT_EQ(obs::Histogram::bucket_of(4), 3u);
  EXPECT_EQ(obs::Histogram::bucket_of(~0ULL), 64u);
  EXPECT_EQ(obs::Histogram::bucket_limit(0), 1u);
  EXPECT_EQ(obs::Histogram::bucket_limit(1), 2u);
  EXPECT_EQ(obs::Histogram::bucket_limit(10), 1024u);
  EXPECT_EQ(obs::Histogram::bucket_limit(64), ~0ULL);
}

TEST(ObsHistogram, RecordAccumulatesCountSumBuckets) {
  obs::Histogram h;
  h.record(0);
  h.record(1);
  h.record(3);
  h.record(1000);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 1004u);
  EXPECT_EQ(h.bucket(0), 1u);   // the 0
  EXPECT_EQ(h.bucket(1), 1u);   // the 1
  EXPECT_EQ(h.bucket(2), 1u);   // the 3
  EXPECT_EQ(h.bucket(10), 1u);  // 1000 in [512, 1024)
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.bucket(10), 0u);
}

// -- Registry ---------------------------------------------------------------

TEST(ObsRegistry, GetOrCreateReturnsStableAddresses) {
  obs::MetricsRegistry reg;
  obs::Counter& c1 = reg.counter("a.b");
  obs::Counter& c2 = reg.counter("a.b");
  EXPECT_EQ(&c1, &c2);  // same name, same instrument
  c1.add(3);
  EXPECT_EQ(c2.value(), 3u);
  // Creating more instruments must not move existing ones (hot paths
  // cache the pointer).
  for (int i = 0; i < 100; ++i) reg.counter("fill." + std::to_string(i));
  EXPECT_EQ(&reg.counter("a.b"), &c1);
}

TEST(ObsRegistry, SnapshotIsNameSortedAndFindable) {
  obs::MetricsRegistry reg;
  reg.counter("z.last").add(1);
  reg.counter("a.first").add(2);
  reg.gauge("mid").set(-7);
  obs::Snapshot s = reg.snapshot();
  ASSERT_EQ(s.counters.size(), 2u);
  EXPECT_EQ(s.counters[0].name, "a.first");
  EXPECT_EQ(s.counters[1].name, "z.last");
  const obs::Snapshot::Sample* c = s.find_counter("a.first");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->value, 2);
  EXPECT_EQ(s.find_counter("nope"), nullptr);
  ASSERT_EQ(s.gauges.size(), 1u);
  EXPECT_EQ(s.gauges[0].value, -7);
}

TEST(ObsRegistry, QuantileBoundTracksDistribution) {
  obs::MetricsRegistry reg;
  obs::Histogram& h = reg.histogram("lat");
  for (int i = 0; i < 99; ++i) h.record(1);
  h.record(100);
  obs::Snapshot s = reg.snapshot();
  const obs::Snapshot::Hist* sh = s.find_histogram("lat");
  ASSERT_NE(sh, nullptr);
  EXPECT_EQ(sh->count, 100u);
  // Half the samples fall below 2 (value 1 lives in bucket 1 = [1,2))...
  EXPECT_EQ(sh->quantile_bound(0.5), 2u);
  // ...and the max lands in bucket 7 = [64,128).
  EXPECT_EQ(sh->quantile_bound(1.0), 128u);
}

TEST(ObsRegistry, PollAdaptersMirrorAndUnregister) {
  obs::MetricsRegistry reg;
  std::uint64_t island = 41;
  int owner = 0;  // any address works as an owner token
  reg.poll_counter("island.events", &owner, [&island] { return island; });
  island = 42;
  obs::Snapshot s = reg.snapshot();
  const obs::Snapshot::Sample* c = s.find_counter("island.events");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->value, 42);  // read at snapshot time, not registration time
  reg.remove_polls(&owner);
  EXPECT_EQ(reg.snapshot().find_counter("island.events"), nullptr);
}

TEST(ObsRegistry, ResetZeroesOwnedInstruments) {
  obs::MetricsRegistry reg;
  reg.counter("c").add(5);
  reg.gauge("g").set(5);
  reg.histogram("h").record(5);
  reg.reset();
  obs::Snapshot s = reg.snapshot();
  EXPECT_EQ(s.find_counter("c")->value, 0);
  EXPECT_EQ(s.gauges[0].value, 0);
  EXPECT_EQ(s.find_histogram("h")->count, 0u);
}

TEST(ObsRegistry, PrometheusExposition) {
  obs::MetricsRegistry reg;
  reg.counter("stack.forward_down").add(7);
  reg.gauge("exec.queue_delay_ns").set(9);
  obs::Histogram& h = reg.histogram("layer.down_ns.NAK");
  h.record(3);
  h.record(3);
  std::string out = reg.prometheus();
  // Dots sanitize to underscores under a horus_ prefix.
  EXPECT_NE(out.find("# TYPE horus_stack_forward_down counter\n"
                     "horus_stack_forward_down 7\n"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("# TYPE horus_exec_queue_delay_ns gauge\n"
                     "horus_exec_queue_delay_ns 9\n"),
            std::string::npos)
      << out;
  // Histogram: cumulative le-labelled buckets; both 3s are in [2,4), so
  // the le="4" line carries the full count, as do _sum/_count.
  EXPECT_NE(out.find("# TYPE horus_layer_down_ns_NAK histogram\n"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("horus_layer_down_ns_NAK_bucket{le=\"4\"} 2\n"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("horus_layer_down_ns_NAK_bucket{le=\"+Inf\"} 2\n"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("horus_layer_down_ns_NAK_sum 6\n"), std::string::npos)
      << out;
  EXPECT_NE(out.find("horus_layer_down_ns_NAK_count 2\n"), std::string::npos)
      << out;
}

TEST(ObsRegistry, ProcessRegistryMirrorsMsgPathAndRaceIslands) {
  obs::Snapshot s = obs::metrics().snapshot();
  // The process-wide islands are registered on first use, whatever their
  // current values.
  EXPECT_NE(s.find_counter("msgpath.pool_hits"), nullptr);
  EXPECT_NE(s.find_counter("race.cross_group"), nullptr);
}

// -- Queue-delay probe ------------------------------------------------------

TEST(ObsProbe, GroupExecutorSamplesQueueDelayWithoutWrappingTasks) {
  obs::Histogram& hist = obs::metrics().histogram("exec.queue_delay_hist_ns");
  runtime::GroupExecutor exec;
  int runs = 0;
  const std::uint64_t before = hist.count();
  // 128 posts cross the 1/64 sample period at least once.
  for (int i = 0; i < 128; ++i) exec.post(1, [&runs] { ++runs; });
  EXPECT_EQ(runs, 128);
  EXPECT_GE(hist.count() - before, 2u);
  obs::set_enabled(false);
  const std::uint64_t dark = hist.count();
  for (int i = 0; i < 128; ++i) exec.post(1, [&runs] { ++runs; });
  obs::set_enabled(true);
  EXPECT_EQ(runs, 256);
  EXPECT_EQ(hist.count(), dark);
}

// -- Flight recorder --------------------------------------------------------

TEST(ObsFlight, RingOverflowKeepsLastWindow) {
  obs::GroupRing ring;
  const int kEvents = 300;  // > kEntries = 256
  for (int i = 0; i < kEvents; ++i) {
    ring.record(obs::FrEvent::kForwardDown, 2,
                static_cast<std::uint32_t>(i), /*vtime=*/i * 10, /*src=*/7);
  }
  EXPECT_EQ(ring.recorded(), static_cast<std::uint64_t>(kEvents));
  // Sequence 299 survives; its slot holds the packed fields.
  const obs::GroupRing::Entry& e = ring.entry(kEvents - 1);
  const std::uint64_t meta = e.meta.load();
  EXPECT_EQ(meta & 0xFF, static_cast<std::uint64_t>(obs::FrEvent::kForwardDown));
  EXPECT_EQ((meta >> 8) & 0xFF, 2u);
  EXPECT_EQ(meta >> 32, 299u);
  EXPECT_EQ(e.vtime.load(), 2990u);
  EXPECT_EQ(e.src.load(), 7u);
  // Sequence 43 was lapped by 299 (43 + 256): same slot, newer event.
  EXPECT_EQ(ring.entry(43).meta.load() >> 32, 299u);
  // Per-event-type counts are exact lifetime totals...
  EXPECT_EQ(ring.count_of(obs::FrEvent::kForwardDown),
            static_cast<std::uint64_t>(kEvents));
  EXPECT_EQ(ring.count_of(obs::FrEvent::kForwardUp), 0u);
  ring.reset();
  EXPECT_EQ(ring.recorded(), 0u);
  EXPECT_EQ(ring.entry(0).meta.load(), 0u);
  // ...and deliberately survive a window reset: the registry's
  // stack.forward_* mirrors must stay monotonic across horus-check's
  // per-scenario resets.
  EXPECT_EQ(ring.count_of(obs::FrEvent::kForwardDown),
            static_cast<std::uint64_t>(kEvents));
}

TEST(ObsFlight, DumpNamesLayersAndCapsWindow) {
  obs::FlightRecorder fr;
  EXPECT_EQ(fr.dump(5), "");  // unknown group
  obs::GroupRing* ring = fr.ring(5);
  ASSERT_NE(ring, nullptr);
  EXPECT_EQ(fr.ring(5), ring);  // stable get-or-create
  EXPECT_EQ(fr.dump(5), "");    // known but empty
  fr.set_layers(5, "TOTAL:NAK:COM");
  ring->record(obs::FrEvent::kDowncall, 0, 11, 100, 1);
  ring->record(obs::FrEvent::kForwardDown, 1, 11, 100, 1);
  ring->record(obs::FrEvent::kAppDeliver, obs::kFrNoLayer, 11, 150, 2);
  std::string d = fr.dump(5);
  EXPECT_NE(d.find("FLIGHT group=5 events=3 window=3 rt~="), std::string::npos)
      << d;
  EXPECT_NE(d.find("DOWNCALL layer=TOTAL size=11"), std::string::npos) << d;
  EXPECT_NE(d.find("DOWN layer=NAK size=11"), std::string::npos) << d;
  // kFrNoLayer renders as "-" (application edge).
  EXPECT_NE(d.find("DELIVER layer=- size=11"), std::string::npos) << d;
  EXPECT_NE(d.find("vt=100"), std::string::npos) << d;
  std::string all = fr.dump_all();
  EXPECT_NE(all.find("FLIGHT group=5"), std::string::npos) << all;
  fr.reset();
  EXPECT_EQ(fr.dump(5), "");
}

// -- End to end: stack probes feed the registry and the recorder ------------

TEST(ObsIntegration, CastThroughStackFeedsMetricsAndFlightRecorder) {
  HorusSystem::Options o;
  o.net.loss = 0.0;
  obs::Snapshot before = obs::metrics().snapshot();
  World w(2, "TRACE:MBRSHIP:FRAG:NAK:COM", o);
  w.form_group();
  for (int i = 0; i < 20; ++i) {
    w.eps[0]->cast(kGroup, Message::from_string("probe me"));
  }
  w.sys.run_for(sim::kSecond);
  obs::Snapshot after = obs::metrics().snapshot();
  auto counter_delta = [&](const std::string& name) {
    const obs::Snapshot::Sample* a = after.find_counter(name);
    const obs::Snapshot::Sample* b = before.find_counter(name);
    return (a ? a->value : 0) - (b ? b->value : 0);
  };
  // The registry is process-global, so assert deltas, not absolutes.
  EXPECT_GT(counter_delta("stack.forward_down"), 0);
  EXPECT_GT(counter_delta("stack.forward_up"), 0);
  // Sampled per-layer latency histograms exist for this spec's layers.
  EXPECT_NE(after.find_histogram("layer.down_ns.NAK"), nullptr);
  EXPECT_NE(after.find_histogram("layer.up_ns.TRACE"), nullptr);
  // The flight recorder saw the group's traffic, and the FLIGHT dump
  // downcall exposes it with layer names resolved.
  obs::GroupRing* ring = obs::flight_recorder().ring(kGroup.id);
  EXPECT_GT(ring->recorded(), 0u);
  std::string d = w.eps[1]->dump(kGroup, "FLIGHT");
  EXPECT_NE(d.find("FLIGHT group=" + std::to_string(kGroup.id)),
            std::string::npos)
      << d;
  EXPECT_NE(d.find("layer=COM"), std::string::npos) << d;
}

TEST(ObsIntegration, DisabledSwitchStopsCounting) {
  HorusSystem::Options o;
  o.net.loss = 0.0;
  obs::set_enabled(false);
  obs::Snapshot before = obs::metrics().snapshot();
  {
    World w(2, "MBRSHIP:FRAG:NAK:COM", o);
    w.form_group();
    w.eps[0]->cast(kGroup, Message::from_string("dark"));
    w.sys.run_for(sim::kSecond);
  }
  obs::Snapshot after = obs::metrics().snapshot();
  obs::set_enabled(true);
  const obs::Snapshot::Sample* a = after.find_counter("stack.forward_down");
  const obs::Snapshot::Sample* b = before.find_counter("stack.forward_down");
  EXPECT_EQ(a ? a->value : 0, b ? b->value : 0);
}

}  // namespace
}  // namespace horus::testing
