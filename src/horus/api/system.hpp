// HorusSystem: the top-level convenience facade.
//
// Bundles a deterministic scheduler, a fault-injecting network, and
// endpoint lifecycle management so that applications (and the examples/
// tests/benches in this repo) can stand up a multi-process Horus world in
// a few lines:
//
//   HorusSystem sys;
//   auto& a = sys.create_endpoint("TOTAL:MBRSHIP:FRAG:NAK:COM");
//   auto& b = sys.create_endpoint("TOTAL:MBRSHIP:FRAG:NAK:COM");
//   a.join(kGroup);                       // bootstraps the group
//   b.join(kGroup, a.address());          // joins via a
//   sys.run_for(sim::kSecond);
//
// Every endpoint gets its own protocol stack, built at run time from the
// spec string -- different endpoints may run different stacks, and one
// process may own many endpoints ("Horus can support many applications
// concurrently, each of which can be configured individually").
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "horus/analysis/checked.hpp"
#include "horus/analysis/lint.hpp"
#include "horus/core/endpoint.hpp"
#include "horus/core/sim_transport.hpp"
#include "horus/layers/registry.hpp"
#include "horus/sim/network.hpp"
#include "horus/sim/scheduler.hpp"

namespace horus {

class HorusSystem {
 public:
  struct Options {
    std::uint64_t seed = 0x5eed;
    StackConfig stack;
    sim::LinkParams net;
    /// Properties of the simulated transport (P1: best effort).
    props::PropertySet network_properties =
        props::make_set({props::Property::kBestEffort});
    /// 0: the deterministic single-threaded GroupExecutor (default; runs
    /// are bit-for-bit reproducible). N > 0: every endpoint gets a
    /// runtime::ShardedExecutor with N kernel threads, so independent
    /// groups progress concurrently. Event *timing* then depends on thread
    /// interleaving -- use for throughput benches, soak tests and the
    /// concurrency stress tests, not for deterministic scenario tests.
    unsigned shards = 0;
    /// Wrap every layer in an analysis::CheckedLayer and install a
    /// ContractMonitor on the stack, recording HCPI contract violations
    /// (header push/pop discipline, re-entrant down(), use-after-forward,
    /// undeclared emissions) in counters readable via monitors().
    /// Defaults to the HORUS_CHECK_CONTRACTS compile definition so whole
    /// test suites can be re-run with checking on.
#ifdef HORUS_CHECK_CONTRACTS
    bool check_contracts = true;
#else
    bool check_contracts = false;
#endif
    /// Override stack instantiation entirely: given the spec string, return
    /// the layer vector (top to bottom). Scenario tooling (horus-check)
    /// uses this to splice deliberately-broken layer variants into an
    /// otherwise ordinary stack. When set, horus-lint validation is
    /// skipped -- the factory's specs may use tokens the registry does not
    /// know -- but the Stack constructor still enforces the property
    /// algebra on whatever layers come back.
    std::function<std::vector<std::unique_ptr<Layer>>(const std::string&)>
        stack_factory;
  };

  HorusSystem() : HorusSystem(Options{}) {}
  explicit HorusSystem(Options opts)
      : opts_(std::move(opts)),
        net_(sched_, opts_.seed),
        transport_(net_) {
    net_.set_default_params(opts_.net);
  }

  /// Create an endpoint with an automatically assigned address.
  Endpoint& create_endpoint(const std::string& stack_spec) {
    return create_endpoint(Address{next_addr_++}, stack_spec);
  }

  Endpoint& create_endpoint(Address addr, const std::string& stack_spec) {
    std::unique_ptr<runtime::Executor> exec;
    if (opts_.shards > 0) {
      exec = std::make_unique<runtime::ShardedExecutor>(opts_.shards);
    }
    auto ep = std::make_unique<Endpoint>(addr, opts_.stack,
                                         build_layers(stack_spec),
                                         opts_.network_properties, transport_,
                                         sched_, std::move(exec));
    Endpoint& ref = *ep;
    // Live reconfiguration builds its stacks the same way, minus the lint:
    // Endpoint::reconfigure checks the property transition instead.
    ref.set_layer_factory(
        [this](const std::string& spec) { return instantiate(spec); });
    transport_.bind(ref);
    endpoints_.push_back(std::move(ep));
    return ref;
  }

  /// Add a cactus stack on an existing (base) endpoint: another protocol
  /// stack sharing the endpoint's address and transport (Section 4's
  /// "multiple endpoints on a single base endpoint"). Join groups on it
  /// with Endpoint::join_on.
  Stack& add_stack(Endpoint& ep, const std::string& stack_spec) {
    return ep.add_stack(build_layers(stack_spec), opts_.network_properties);
  }

  /// The contract monitors created for check_contracts stacks, in creation
  /// order. Tests run a scenario and assert total_violations() == 0.
  [[nodiscard]] const std::vector<std::shared_ptr<analysis::ContractMonitor>>&
  monitors() const {
    return monitors_;
  }

  /// Fail-stop crash: the endpoint stops sending, receiving and computing.
  void crash(Endpoint& ep) { transport_.crash(ep); }

  /// Partition the network into cells of endpoints; heal() reunites them.
  void partition(const std::vector<std::vector<const Endpoint*>>& cells) {
    std::vector<std::vector<sim::NodeId>> ids;
    ids.reserve(cells.size());
    for (const auto& cell : cells) {
      std::vector<sim::NodeId> c;
      c.reserve(cell.size());
      for (const Endpoint* ep : cell) c.push_back(ep->address().id);
      ids.push_back(std::move(c));
    }
    net_.set_partitions(ids);
  }

  void heal() { net_.set_partitions({}); }

  // -- simulation control -----------------------------------------------------

  std::size_t run_for(sim::Duration d) { return run_until(sched_.now() + d); }

  /// Single-threaded mode: run the event queue up to `t`. Sharded mode:
  /// advance the clock in ~1ms virtual slices, draining every endpoint's
  /// shard threads between slices, so work queued on shards executes at a
  /// virtual time close to when it was posted and the sends/timers it
  /// creates still land inside this run's horizon.
  std::size_t run_until(sim::Time t) {
    if (opts_.shards == 0) return sched_.run_until(t);
    std::size_t n = 0;
    for (;;) {
      // Drain first: downcalls post straight onto shard queues without a
      // scheduler event, and their sends create the first events.
      for (auto& ep : endpoints_) ep->executor().drain();
      std::optional<sim::Time> next = sched_.next_due();
      if (sched_.now() >= t && (!next || *next > t)) break;
      sim::Time step_to = t;  // idle queue: jump straight to the horizon
      if (next) {
        step_to = std::min(t, std::max(*next, sched_.now() + sim::kMillisecond));
      }
      n += sched_.run_until(step_to);
    }
    return n;
  }

  [[nodiscard]] sim::Time now() const { return sched_.now(); }

  [[nodiscard]] sim::Scheduler& scheduler() { return sched_; }
  [[nodiscard]] sim::SimNetwork& net() { return net_; }
  [[nodiscard]] StackConfig& config() { return opts_.stack; }
  [[nodiscard]] const std::vector<std::unique_ptr<Endpoint>>& endpoints() const {
    return endpoints_;
  }

 private:
  /// Lint (unless a stack_factory supplies the layers) and instantiate a
  /// stack spec; shared by create_endpoint and add_stack. Ill-formed specs
  /// throw std::invalid_argument carrying the full lint report.
  std::vector<std::unique_ptr<Layer>> build_layers(
      const std::string& stack_spec) {
    if (!opts_.stack_factory) {
      analysis::LintReport rep =
          analysis::lint_spec(stack_spec, opts_.network_properties);
      if (!rep.ok()) {
        throw std::invalid_argument("ill-formed stack spec " + stack_spec +
                                    "\n" + rep.to_string());
      }
    }
    return instantiate(stack_spec);
  }

  /// Build a spec's layers, wrapped in CheckedLayers when check_contracts
  /// is on. The wrapped layers install their monitor on whichever stack
  /// they are attached to, so endpoint stacks, cactus stacks and stacks
  /// built by live reconfiguration are all covered.
  std::vector<std::unique_ptr<Layer>> instantiate(const std::string& spec) {
    auto layers = opts_.stack_factory ? opts_.stack_factory(spec)
                                      : layers::make_stack(spec);
    if (opts_.check_contracts) {
      auto monitor = std::make_shared<analysis::ContractMonitor>();
      layers = analysis::wrap_checked(std::move(layers), monitor);
      std::lock_guard lock(monitors_mu_);
      monitors_.push_back(std::move(monitor));
    }
    return layers;
  }

  Options opts_;
  sim::Scheduler sched_;
  sim::SimNetwork net_;
  SimTransport transport_;
  std::vector<std::unique_ptr<Endpoint>> endpoints_;
  /// Guards monitors_: reconfigurations on sharded executors create
  /// monitors concurrently with each other (and with the app thread).
  std::mutex monitors_mu_;
  std::vector<std::shared_ptr<analysis::ContractMonitor>> monitors_;
  std::uint64_t next_addr_ = 1;
};

}  // namespace horus
