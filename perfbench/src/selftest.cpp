// Self-test of the tracer's self-time subtraction: three synthetic layers
// that burn a known amount of wall time per data event, stacked over COM.
// Each layer's span covers the layers below it (down) or above it (up), so
// only a correct subtraction of child spans reads back the known costs.
#include <cstdio>
#include <iterator>

#include "horus/api/system.hpp"
#include "horus/layers/registry.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace pb {
namespace {

void spin_ns(std::uint64_t ns) {
  const std::uint64_t end = wall_ns() + ns;
  while (wall_ns() < end) {
  }
}

class SpinLayer final : public horus::Layer {
 public:
  SpinLayer(const std::string& name, std::uint64_t down_ns, std::uint64_t up_ns)
      : down_ns_(down_ns), up_ns_(up_ns) {
    info_.name = name;
    info_.spec.name = name;
    info_.spec.inherits = horus::props::kAllProperties;
  }
  [[nodiscard]] const horus::LayerInfo& info() const override { return info_; }
  void down(horus::Group& g, horus::DownEvent& ev) override {
    if (ev.type == horus::DownType::kCast) spin_ns(down_ns_);
    pass_down(g, ev);
  }
  void up(horus::Group& g, horus::UpEvent& ev) override {
    if (ev.type == horus::UpType::kCast) spin_ns(up_ns_);
    pass_up(g, ev);
  }

 private:
  horus::LayerInfo info_;
  std::uint64_t down_ns_;
  std::uint64_t up_ns_;
};

struct Known {
  const char* name;
  std::uint64_t down_ns;
  std::uint64_t up_ns;
};
constexpr Known kLayers[] = {
    {"SPIN_A", 12'000, 6'000}, {"SPIN_B", 4'000, 10'000}, {"SPIN_C", 8'000, 2'000}};

}  // namespace

bool run_selftest(std::string& report) {
  Tracer tracer;
  horus::HorusSystem::Options o;
  o.stack_factory = [&tracer](const std::string&) {
    std::vector<std::unique_ptr<horus::Layer>> layers;
    for (const Known& k : kLayers) {
      layers.push_back(std::make_unique<SpinLayer>(k.name, k.down_ns, k.up_ns));
    }
    for (auto& l : horus::layers::make_stack("COM")) layers.push_back(std::move(l));
    return wrap_timed(std::move(layers), tracer);
  };
  horus::HorusSystem sys(o);
  constexpr horus::GroupId kGroup{7};
  std::vector<horus::Endpoint*> eps = {&sys.create_endpoint("SPIN"),
                                       &sys.create_endpoint("SPIN")};
  std::uint64_t delivered = 0;
  for (auto* ep : eps) {
    ep->on_upcall([&delivered](horus::Group&, horus::UpEvent& ev) {
      if (ev.type == horus::UpType::kCast) ++delivered;
    });
  }
  std::vector<horus::Address> members = {eps[0]->address(), eps[1]->address()};
  for (auto* ep : eps) {
    ep->join(kGroup);
    ep->install_view(kGroup, members);
  }
  sys.run_for(10 * horus::sim::kMillisecond);

  // Blocks of casts, each read back on its own; the median block is
  // immune to the odd preemption on a shared machine.
  constexpr std::uint64_t kBlocks = 11;
  constexpr std::uint64_t kCasts = 30;  // per block
  constexpr std::size_t kSlots = std::size(kLayers) * 2;
  std::vector<std::vector<double>> per_call(kSlots);
  bool ok = true;
  for (std::uint64_t b = 0; b < kBlocks; ++b) {
    tracer.reset();
    const std::uint64_t before = delivered;
    for (std::uint64_t i = 0; i < kCasts; ++i) {
      eps[0]->cast(kGroup, horus::Message::from_payload(horus::Bytes(32, 0x5a)));
      sys.run_for(horus::sim::kMillisecond);
    }
    ok = ok && delivered - before == kCasts * eps.size();
    for (std::size_t l = 0; l < std::size(kLayers); ++l) {
      const Tracer::Acc a = tracer.acc(kLayers[l].name);
      for (int d : {Tracer::kDown, Tracer::kUp}) {
        const std::uint64_t want = d == Tracer::kDown ? kCasts : kCasts * eps.size();
        ok = ok && a.calls[d] == want;
        per_call[l * 2 + static_cast<std::size_t>(d)].push_back(
            static_cast<double>(a.self_ns[d]) / static_cast<double>(want));
      }
    }
  }
  char line[200];
  std::snprintf(line, sizeof line,
                "selftest: %llu blocks of %llu casts, %llu deliveries%s\n",
                static_cast<unsigned long long>(kBlocks),
                static_cast<unsigned long long>(kCasts),
                static_cast<unsigned long long>(delivered),
                ok ? "" : " (wrong delivery or call count)");
  report += line;
  for (std::size_t l = 0; l < std::size(kLayers); ++l) {
    for (int d : {Tracer::kDown, Tracer::kUp}) {
      const auto known = static_cast<double>(d == Tracer::kDown ? kLayers[l].down_ns
                                                                : kLayers[l].up_ns);
      const double got = median(per_call[l * 2 + static_cast<std::size_t>(d)]);
      // Tolerance: the spin overshoots by a clock read, and the tracer's
      // own bookkeeping lands partly in the parent span.
      const bool good = got > 0.9 * known && got < 1.1 * known + 500;
      ok = ok && good;
      std::snprintf(line, sizeof line,
                    "selftest: %-6s %-4s self %8.0f ns/call (known %6.0f): %s\n",
                    kLayers[l].name, d == Tracer::kDown ? "down" : "up", got,
                    known, good ? "ok" : "OFF");
      report += line;
    }
  }
  return ok;
}

}  // namespace pb
