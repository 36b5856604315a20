#include "horus/net/runtime.hpp"

#include <stdexcept>
#include <utility>

#include "horus/analysis/lint.hpp"
#include "horus/layers/registry.hpp"
#include "horus/obs/metrics.hpp"
#include "horus/properties/algebra.hpp"
#include "horus/runtime/executor.hpp"

namespace horus::net {
namespace {

props::PropertySet wire_properties() {
  // UDP gives exactly what SimNetwork models: best-effort datagrams (P1).
  return props::make_set({props::Property::kBestEffort});
}

/// Lint, then instantiate: an ill-formed stack is rejected at startup with
/// the full report instead of misbehaving on the wire.
std::vector<std::unique_ptr<Layer>> build_layers(const std::string& spec) {
  analysis::LintReport rep = analysis::lint_spec(spec, wire_properties());
  if (!rep.ok()) {
    throw std::invalid_argument("ill-formed stack spec " + spec + "\n" +
                                rep.to_string());
  }
  return layers::make_stack(spec);
}

}  // namespace

NodeRuntime::NodeRuntime(const AddressBook& book, Address self,
                         NodeConfig cfg)
    : book_(book),
      self_(self),
      cfg_(std::move(cfg)),
      udp_(book_, self_, cfg_.udp),
      driver_(sched_) {
  // FRAG must target what the socket will carry, not its own default.
  cfg_.stack.mtu = cfg_.udp.mtu;
  Transport* wire = &udp_;
  if (cfg_.enable_fault_shim) {
    shim_ = std::make_unique<FaultShimTransport>(udp_, cfg_.faults, &sched_);
    wire = shim_.get();
  }
  auto exec = std::make_unique<runtime::ShardedExecutor>(
      cfg_.shards > 0 ? cfg_.shards : 1);
  endpoint_ = std::make_unique<Endpoint>(
      self_, cfg_.stack, build_layers(cfg_.spec), wire_properties(), *wire,
      sched_, std::move(exec));
  // Live reconfiguration needs the same spec->layers construction.
  endpoint_->set_layer_factory(&build_layers);
  driver_.add_executor(endpoint_->executor());
  udp_.bind(*endpoint_);
  register_metrics();
}

void NodeRuntime::register_metrics() {
  // Mirror this node's stats islands into the horus-obs namespace
  // (docs/obs.md). Owner-scoped: shutdown() removes them, because these
  // lambdas read object state that dies with the runtime.
  obs::MetricsRegistry& reg = obs::metrics();
  auto mirror = [&reg, this](const char* name,
                             const std::atomic<std::uint64_t>& c) {
    reg.poll_counter(name, this,
                     [&c] { return c.load(std::memory_order_relaxed); });
  };
  const UdpStats& u = udp_.stats();
  mirror("udp.tx_datagrams", u.tx_datagrams);
  mirror("udp.tx_bytes", u.tx_bytes);
  mirror("udp.tx_batches", u.tx_batches);
  mirror("udp.tx_eagain_retries", u.tx_eagain_retries);
  mirror("udp.tx_oversize_dropped", u.tx_oversize_dropped);
  mirror("udp.tx_unroutable", u.tx_unroutable);
  mirror("udp.tx_full_dropped", u.tx_full_dropped);
  mirror("udp.rx_datagrams", u.rx_datagrams);
  mirror("udp.rx_bytes", u.rx_bytes);
  mirror("udp.rx_wakeups", u.rx_wakeups);
  mirror("udp.rx_truncated", u.rx_truncated);
  mirror("udp.rx_unknown_peer", u.rx_unknown_peer);
  if (shim_ != nullptr) {
    const FaultShimStats& f = shim_->stats();
    mirror("shim.forwarded", f.forwarded);
    mirror("shim.dropped", f.dropped);
    mirror("shim.duplicated", f.duplicated);
    mirror("shim.delayed", f.delayed);
  }
  const StackStats& st = endpoint_->stack().stats();
  mirror("stack.downcalls", st.downcalls);
  mirror("stack.upcalls_to_app", st.upcalls_to_app);
  mirror("stack.datagrams_sent", st.datagrams_sent);
  mirror("stack.datagrams_received", st.datagrams_received);
  mirror("stack.wire_bytes_sent", st.wire_bytes_sent);
  mirror("stack.header_bytes_sent", st.header_bytes_sent);
  mirror("stack.payload_bytes_sent", st.payload_bytes_sent);
}

NodeRuntime::~NodeRuntime() { shutdown(); }

std::size_t NodeRuntime::run_for(std::chrono::milliseconds d) {
  return driver_.run_for(d);
}

void NodeRuntime::shutdown() {
  if (down_) return;
  down_ = true;
  // The poll adapters read state owned by this runtime; unhook them before
  // anything below starts dying.
  obs::metrics().remove_polls(this);
  // Order matters: stop the reactor (no new deliveries arrive), then let
  // the executor finish what was already posted, so no task runs while
  // the endpoint is torn down underneath it.
  udp_.stop();
  endpoint_->executor().drain();
}

std::string NodeRuntime::stats_summary() const {
  const UdpStats& s = udp_.stats();
  auto v = [](const std::atomic<std::uint64_t>& c) {
    return std::to_string(c.load(std::memory_order_relaxed));
  };
  std::string out = "udp tx=" + v(s.tx_datagrams) + " (" + v(s.tx_bytes) +
                    "B, " + v(s.tx_batches) + " batches) rx=" +
                    v(s.rx_datagrams) + " (" + v(s.rx_bytes) + "B) drops[" +
                    "oversize=" + v(s.tx_oversize_dropped) +
                    " unroutable=" + v(s.tx_unroutable) +
                    " full=" + v(s.tx_full_dropped) +
                    " truncated=" + v(s.rx_truncated) +
                    " unknown=" + v(s.rx_unknown_peer) + "]";
  if (shim_ != nullptr) {
    const FaultShimStats& f = shim_->stats();
    out += " shim[fwd=" + v(f.forwarded) + " drop=" + v(f.dropped) +
           " dup=" + v(f.duplicated) + " delay=" + v(f.delayed) + "]";
  }
  return out;
}

}  // namespace horus::net
