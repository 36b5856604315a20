// Random composition fuzzing: generate random layer combinations, keep the
// ones the Section 6 algebra accepts, and prove every accepted stack
// actually works end to end (forms a destination set or group, delivers a
// loss-affected workload in FIFO order). The algebra is the gatekeeper:
// anything it lets through must run.
#include <algorithm>
#include <set>

#include "../common/test_util.hpp"
#include "horus/layers/registry.hpp"
#include "horus/util/rng.hpp"

namespace horus::testing {
namespace {

// Layers eligible for random upper-stack positions. (Excluded: transports
// -- always the bottom; BMS/VSS and MBRSHIP/MERGE stacked arbitrarily can
// both be membership owners; instrumentation layers trivially pass.)
const char* kMiddle[] = {"NAK",    "NNAK",   "FRAG",     "NFRAG",
                         "CHKSUM", "SIGN",   "ENCRYPT",  "COMPRESS",
                         "MBRSHIP", "TOTAL", "CAUSAL",   "STABLE",
                         "PINWHEEL", "SAFE", "TRACE",    "ACCOUNT"};

TEST(RandomStacks, EveryAcceptedCompositionDelivers) {
  Rng rng(20260707);
  props::PropertySet net = props::make_set({props::Property::kBestEffort});
  int accepted = 0, rejected = 0;
  std::set<std::string> tried;
  for (int iter = 0; iter < 400 && accepted < 25; ++iter) {
    // Random 1..4 middle layers over a random transport.
    std::size_t depth = 1 + rng.next_below(4);
    std::vector<std::string> names;
    for (std::size_t i = 0; i < depth; ++i) {
      names.push_back(kMiddle[rng.next_below(std::size(kMiddle))]);
    }
    names.push_back(rng.chance(0.8) ? "COM" : "RAWCOM");
    std::string spec;
    for (const auto& n : names) spec += (spec.empty() ? "" : ":") + n;
    if (!tried.insert(spec).second) continue;

    // The algebra's verdict.
    std::vector<props::LayerSpec> specs;
    for (const auto& n : names) specs.push_back(layers::layer_spec(n));
    props::StackCheck check = props::check_stack(specs, net);
    if (!check.well_formed) {
      ++rejected;
      HorusSystem sys;
      EXPECT_THROW(sys.create_endpoint(spec), std::invalid_argument) << spec;
      continue;
    }
    ++accepted;
    SCOPED_TRACE("stack: " + spec);

    // Run it. Membership stacks form a group; bare stacks get app views.
    HorusSystem::Options o;
    o.seed = 42 + static_cast<std::uint64_t>(iter);
    o.net.loss = 0.05;
    o.stack.stability_gossip_interval = 20 * sim::kMillisecond;
    o.stack.pinwheel_interval = 20 * sim::kMillisecond;
    World w(2, spec, o);
    bool membership = spec.find("MBRSHIP") != std::string::npos;
    if (membership) {
      w.form_group(3 * sim::kSecond);
      ASSERT_TRUE(w.converged());
    } else {
      std::vector<Address> members = {w.eps[0]->address(), w.eps[1]->address()};
      for (auto* ep : w.eps) {
        ep->join(kGroup);
        ep->install_view(kGroup, members);
      }
      w.sys.run_for(10 * sim::kMillisecond);
    }
    // SAFE needs acks from the app side.
    if (spec.find("SAFE") != std::string::npos) {
      for (std::size_t m = 0; m < 2; ++m) {
        Endpoint* ep = w.eps[m];
        AppLog* log = &w.logs[m];
        ep->on_upcall([ep, log](Group& g, UpEvent& ev) {
          if (ev.type == UpType::kCast) {
            log->casts.push_back({ev.source, ev.msg_id, ev.msg.payload_string()});
            ep->ack(g.gid(), ev.source, ev.msg_id);
          }
        });
      }
    }
    constexpr int kMsgs = 12;
    for (int i = 0; i < kMsgs; ++i) {
      w.eps[0]->cast(kGroup, Message::from_string("m" + std::to_string(i)));
      w.sys.run_for(20 * sim::kMillisecond);
    }
    w.sys.run_for(15 * sim::kSecond);
    bool reliable =
        std::find(names.begin(), names.end(), "NAK") != names.end();
    auto got = w.logs[1].casts_from(w.eps[0]->address());
    if (reliable) {
      ASSERT_EQ(got.size(), static_cast<std::size_t>(kMsgs)) << spec;
      for (int i = 0; i < kMsgs; ++i) {
        EXPECT_EQ(got[static_cast<std::size_t>(i)], "m" + std::to_string(i));
      }
    } else {
      // Best-effort stacks: whatever arrives must be intact and in FIFO
      // order is not guaranteed... but content integrity always is.
      for (const auto& p : got) {
        EXPECT_EQ(p.rfind("m", 0), 0u) << spec << " delivered garbage: " << p;
      }
    }
  }
  // The generator must have exercised both verdicts substantially.
  EXPECT_GE(accepted, 15) << "too few accepted stacks to be meaningful";
  EXPECT_GE(rejected, 30) << "too few rejected stacks to be meaningful";
}

}  // namespace
}  // namespace horus::testing
