#include "horus/core/stack.hpp"

#include <cassert>
#include <stdexcept>

#include "horus/core/endpoint.hpp"
#include "horus/util/hotpath_stats.hpp"
#include "horus/util/rng.hpp"

#ifdef HORUS_METRICS
#include "horus/obs/flight_recorder.hpp"
#include "horus/obs/metrics.hpp"
#endif

namespace horus {
namespace {

constexpr std::size_t kAppSink = static_cast<std::size_t>(-1);

bool is_data(DownType t) { return t == DownType::kCast || t == DownType::kSend; }
bool is_data(UpType t) { return t == UpType::kCast || t == UpType::kSend; }

}  // namespace

Stack::Stack(StackConfig cfg, std::vector<std::unique_ptr<Layer>> layers,
             props::PropertySet network_properties, Transport& transport,
             sim::Scheduler& sched, Endpoint& owner, std::uint32_t epoch)
    : cfg_(cfg),
      layers_(std::move(layers)),
      transport_(transport),
      sched_(sched),
      owner_(&owner),
      epoch_(epoch) {
  if (layers_.empty()) throw std::invalid_argument("empty protocol stack");
  if (!layers_.back()->info().is_transport) {
    throw std::invalid_argument("bottom layer " + layers_.back()->info().name +
                                " is not a transport adapter");
  }
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    if (i + 1 < layers_.size() && layers_[i]->info().is_transport) {
      throw std::invalid_argument("transport adapter " + layers_[i]->info().name +
                                  " must be the bottom layer");
    }
    if (layers_[i]->info().fields.size() > PoppedHeader::FieldArray::kMaxFields) {
      throw std::invalid_argument("layer " + layers_[i]->info().name +
                                  " declares too many header fields");
    }
    layers_[i]->attach(*this, i);
  }

  // Section 6: verify the composition is well-formed and compute what it
  // provides. An application "pays only for properties it uses" -- and gets
  // an error, not silent misbehaviour, for an unsatisfiable stack.
  std::vector<props::LayerSpec> specs;
  specs.reserve(layers_.size());
  for (const auto& l : layers_) specs.push_back(l->info().spec);
  props::StackCheck check = props::check_stack(specs, network_properties);
  if (!check.well_formed) {
    throw std::invalid_argument("ill-formed stack: " + check.error);
  }
  provided_ = check.result;

  // The wire stamp: epoch counter in the low byte, a hash of the layer
  // chain's names in the high byte. Endpoints that performed the same
  // sequence of switches agree on stamps without negotiation, and a
  // same-counter/different-spec collision is caught by the hash byte.
  std::uint64_t h = fnv1a64("stack-epoch");
  for (const auto& l : layers_) {
    h = fnv1a64_step(h, fnv1a64(l->info().name.c_str()));
  }
  stamp_ = static_cast<std::uint16_t>((epoch_ & 0xffu) | ((h & 0xffu) << 8));

#ifdef HORUS_METRICS
  // Crossing totals come from the flight recorder's per-ring counts
  // (mirrored into the registry as stack.forward_* -- metrics.cpp), so the
  // probes only resolve the sampled latency histograms here.
  obs::MetricsRegistry& reg = obs::metrics();
  obs_self_id_ = owner_->address().id;
  down_lat_.reserve(layers_.size());
  up_lat_.reserve(layers_.size());
  for (const auto& l : layers_) {
    down_lat_.push_back(&reg.histogram("layer.down_ns." + l->info().name));
    up_lat_.push_back(&reg.histogram("layer.up_ns." + l->info().name));
  }
#endif

  compile_layout();
  compile_skip_tables();
  compute_headroom_budget();
  // One buffer class fits the worst-case descent over an MTU-sized payload,
  // so every in-budget tx message is a pool hit.
  tailroom_ = 4;  // CRC-32 trailer space (harmless spare for RAWCOM stacks)
  pool_ = std::make_unique<WireBufPool>(region_bytes() + headroom_budget_ +
                                        cfg_.mtu + tailroom_);
}

void Stack::compute_headroom_budget() {
  // Worst case framing any descent can prepend: the endpoint demux prefix,
  // the compacted region, and each layer's header. Fixed fields are
  // word-aligned in the classic codec and live in the region in compact
  // mode; variable extensions travel as blocks in both, with a slack
  // allowance (an undersized estimate only costs a counted growth copy,
  // never correctness).
  std::size_t h = kFramePrefix + region_bytes();
  for (const auto& l : layers_) {
    const LayerInfo& li = l->info();
    if (cfg_.codec == HeaderCodec::kPushPop) {
      for (const FieldSpec& f : li.fields) h += f.bits <= 32 ? 4 : 8;
    }
    if (li.uses_var) h += 64;
  }
  headroom_budget_ = h + 16;
}

void Stack::maybe_linearize(Message& m) {
  if (pool_ == nullptr || m.rx() || m.linear()) return;
  std::size_t need = region_bytes() + headroom_budget_ + m.payload_size() +
                     m.pending_block_bytes() + tailroom_;
  if (need > pool_->buf_capacity()) return;  // oversize: keep the gather path
  m.linearize(pool_->acquire(need), region_bytes(), tailroom_);
}

void Stack::compile_layout() {
  group_of_.resize(layers_.size());
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    group_of_[i] = layout_.add_group(layers_[i]->info().fields);
  }
}

void Stack::compile_skip_tables() {
  const std::size_t n = layers_.size();
  next_down_.assign(n, n);
  next_up_.assign(n, kAppSink);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (!layers_[j]->info().skip_data_down) {
        next_down_[i] = j;
        break;
      }
    }
    for (std::size_t j = i; j-- > 0;) {
      if (!layers_[j]->info().skip_data_up) {
        next_up_[i] = j;
        break;
      }
    }
  }
}

std::size_t Stack::region_bytes() const {
  return cfg_.codec == HeaderCodec::kCompact ? layout_.byte_size() : 0;
}

// Every event -- downcall, datagram, timer -- enters through one
// Endpoint::post_to task keyed by the group: the group object, not the
// stack, is the unit of mutual exclusion (Section 3), and horus-race checks
// every task against it. The entries below run inside that task.

void Stack::app_down(Group& g, DownEvent& ev) {
  stats_.downcalls.fetch_add(1, std::memory_order_relaxed);
  forward_down(kAppSink, g, ev);
}

void Stack::app_down_batch(Group& g, std::span<DownEvent> evs) {
  if (evs.size() == 1) {
    app_down(g, evs[0]);
    return;
  }
  stats_.downcalls.fetch_add(evs.size(), std::memory_order_relaxed);
  msg_path_stats().batch_descents.fetch_add(1, std::memory_order_relaxed);
  msg_path_stats().batched_events.fetch_add(evs.size(),
                                            std::memory_order_relaxed);
  forward_down_batch(kAppSink, g, evs);
}

void Stack::forward_down(std::size_t from_index, Group& g, DownEvent& ev) {
  HORUS_RACE_PROBE_GROUP(g.race_owner(), g.gid().id, "Stack::forward_down");
  if (monitor_ != nullptr) monitor_->on_forward_down(g, from_index, ev);
  // Any data descent -- an app downcall or a message originated mid-stack
  // (token, retransmission, fragment) -- moves onto the linear hot path at
  // its first boundary. No-op once linear.
  if (is_data(ev.type)) maybe_linearize(ev.msg);
  std::size_t next;
  if (from_index == kAppSink) {
    next = 0;
    if (cfg_.skip_noop_layers && is_data(ev.type) && !layers_.empty() &&
        layers_[0]->info().skip_data_down) {
      // The top layer itself may be skippable; reuse its table entry.
      next = next_down_[0];
    }
  } else if (cfg_.skip_noop_layers && is_data(ev.type)) {
    next = next_down_[from_index];
  } else {
    next = from_index + 1;
  }
  if (next >= layers_.size()) return;  // absorbed below the bottom
#ifdef HORUS_METRICS
  if (obs::enabled()) {
    const std::uint64_t seq = g.flight_ring()->record(
        from_index == kAppSink ? obs::FrEvent::kDowncall
                               : obs::FrEvent::kForwardDown,
        static_cast<std::uint8_t>(next),
        // Unconditional: an empty msg reports 0, and the branchless form
        // spares the probe a poorly-predicted data-vs-control test.
        static_cast<std::uint32_t>(ev.msg.payload_size()),
        static_cast<std::uint64_t>(sched_.now()), obs_self_id_);
    if ((seq & obs::GroupRing::kSampleMask) == 0) {
      const std::uint64_t t0 = obs::now_ns();
      layers_[next]->down(g, ev);
      down_lat_[next]->record(obs::now_ns() - t0);
      return;
    }
  }
#endif
  layers_[next]->down(g, ev);
}

void Stack::forward_down_batch(std::size_t from_index, Group& g,
                               std::span<DownEvent> evs) {
  if (evs.empty()) return;
  if (evs.size() == 1) {
    forward_down(from_index, g, evs[0]);
    return;
  }
  std::size_t next;
  if (from_index == kAppSink) {
    next = 0;
    if (cfg_.skip_noop_layers && !layers_.empty() &&
        layers_[0]->info().skip_data_down) {
      next = next_down_[0];
    }
  } else if (cfg_.skip_noop_layers) {
    next = next_down_[from_index];
  } else {
    next = from_index + 1;
  }
  if (next >= layers_.size()) return;  // absorbed below the bottom
  // Contract-checked stacks and batch-opaque layers take the per-event
  // path: HCPI frames stay one-event-deep and semantics are unchanged --
  // the batch is purely a dispatch optimization.
  if (monitor_ != nullptr || !layers_[next]->info().batch_safe) {
    for (DownEvent& ev : evs) forward_down(from_index, g, ev);
    return;
  }
  for (DownEvent& ev : evs) {
    if (is_data(ev.type)) maybe_linearize(ev.msg);
  }
  layers_[next]->down_batch(g, evs);
}

void Stack::forward_up(std::size_t from_index, Group& g, UpEvent& ev) {
  HORUS_RACE_PROBE_GROUP(g.race_owner(), g.gid().id, "Stack::forward_up");
  if (monitor_ != nullptr) monitor_->on_forward_up(g, from_index, ev);
  std::size_t next;
  if (from_index == 0) {
    next = kAppSink;
  } else if (cfg_.skip_noop_layers && is_data(ev.type)) {
    next = next_up_[from_index];
  } else {
    next = from_index - 1;
  }
  if (next == kAppSink) {
#ifdef HORUS_METRICS
    if (obs::enabled()) {
      g.flight_ring()->record(
          obs::FrEvent::kAppDeliver, obs::kFrNoLayer,
          static_cast<std::uint32_t>(ev.msg.payload_size()),
          static_cast<std::uint64_t>(sched_.now()), obs_self_id_);
    }
#endif
    app_up(g, ev);
    return;
  }
#ifdef HORUS_METRICS
  if (obs::enabled()) {
    const std::uint64_t seq = g.flight_ring()->record(
        obs::FrEvent::kForwardUp, static_cast<std::uint8_t>(next),
        static_cast<std::uint32_t>(ev.msg.payload_size()),
        static_cast<std::uint64_t>(sched_.now()), obs_self_id_);
    if ((seq & obs::GroupRing::kSampleMask) == 0) {
      const std::uint64_t t0 = obs::now_ns();
      layers_[next]->up(g, ev);
      up_lat_[next]->record(obs::now_ns() - t0);
      return;
    }
  }
#endif
  layers_[next]->up(g, ev);
}

void Stack::app_up(Group& g, UpEvent& ev) {
  stats_.upcalls_to_app.fetch_add(1, std::memory_order_relaxed);
  if (monitor_ != nullptr) {
    monitor_->on_app_up_begin(g, ev);
    try {
      owner_->deliver_app_upcall(g, ev);
    } catch (...) {
      monitor_->on_app_up_end(g);
      throw;
    }
    monitor_->on_app_up_end(g);
    return;
  }
  owner_->deliver_app_upcall(g, ev);
}

void Stack::transport_send_raw(Address dst, ByteSpan wire,
                               std::size_t payload_size) {
  stats_.datagrams_sent.fetch_add(1, std::memory_order_relaxed);
  stats_.wire_bytes_sent.fetch_add(wire.size(), std::memory_order_relaxed);
  stats_.payload_bytes_sent.fetch_add(payload_size, std::memory_order_relaxed);
  stats_.header_bytes_sent.fetch_add(wire.size() - payload_size,
                                     std::memory_order_relaxed);
  transport_.send(address(), dst, wire);
}

void Stack::transport_send_raw_batch(std::span<const Address> dests,
                                     ByteSpan wire, std::size_t payload_size) {
  if (dests.empty()) return;
  if (dests.size() == 1) {
    transport_send_raw(dests[0], wire, payload_size);
    return;
  }
  const auto n = static_cast<std::uint64_t>(dests.size());
  stats_.datagrams_sent.fetch_add(n, std::memory_order_relaxed);
  stats_.wire_bytes_sent.fetch_add(n * wire.size(), std::memory_order_relaxed);
  stats_.payload_bytes_sent.fetch_add(n * payload_size,
                                      std::memory_order_relaxed);
  stats_.header_bytes_sent.fetch_add(n * (wire.size() - payload_size),
                                     std::memory_order_relaxed);
  msg_path_stats().batch_sends.fetch_add(1, std::memory_order_relaxed);
  transport_.send_batch(address(), dests, wire);
}

void Stack::push_header(Message& m, const Layer& layer,
                        std::span<const std::uint64_t> fields, ByteSpan var) {
  if (monitor_ != nullptr) monitor_->on_push_header(layer, m);
  const LayerInfo& li = layer.info();
  assert(fields.size() == li.fields.size());
  if (cfg_.codec == HeaderCodec::kCompact) {
    MutByteSpan region = m.region_mut(layout_.byte_size());
    std::size_t grp = group_of_[layer.index()];
    for (std::size_t i = 0; i < fields.size(); ++i) {
      layout_.set(region, grp, i, fields[i]);
    }
    if (li.uses_var) {
      std::size_t n = varint_size(var.size()) + var.size();
      if (MutByteSpan dst = m.prepend(n); dst.data() != nullptr) {
        Writer w(dst);  // serialize straight into the headroom
        w.bytes(var);
      } else {
        Writer w;
        w.bytes(var);
        m.push_block(w.data());
      }
    }
    return;
  }
  // Classic codec: every field is pushed word-aligned, exactly the overhead
  // Section 10 complains about ("a considerable overhead of unused bits").
  // The encoded size is known up front, so linear messages reserve it in
  // their headroom and serialize in place -- no temporary block, no copy.
  std::size_t n = 0;
  for (const FieldSpec& f : li.fields) n += f.bits <= 32 ? 4 : 8;
  if (li.uses_var) n += varint_size(var.size()) + var.size();
  if (MutByteSpan dst = m.prepend(n); dst.data() != nullptr) {
    Writer w(dst);
    for (std::size_t i = 0; i < fields.size(); ++i) {
      if (li.fields[i].bits <= 32) {
        w.u32(static_cast<std::uint32_t>(fields[i]));
      } else {
        w.u64(fields[i]);
      }
    }
    if (li.uses_var) w.bytes(var);
    assert(w.external() && w.size() == n);
    return;
  }
  Writer w;
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (li.fields[i].bits <= 32) {
      w.u32(static_cast<std::uint32_t>(fields[i]));
    } else {
      w.u64(fields[i]);
    }
  }
  if (li.uses_var) w.bytes(var);
  m.push_block(w.data());
}

PoppedHeader Stack::pop_header(Message& m, const Layer& layer) {
  if (monitor_ != nullptr) monitor_->on_pop_header(layer, m);
  const LayerInfo& li = layer.info();
  PoppedHeader out;
  out.fields.reserve(li.fields.size());
  if (cfg_.codec == HeaderCodec::kCompact) {
    ByteSpan region = m.region();
    if (region.size() < layout_.byte_size()) throw DecodeError("short header region");
    std::size_t grp = group_of_[layer.index()];
    for (std::size_t i = 0; i < li.fields.size(); ++i) {
      out.fields.push_back(layout_.get(region, grp, i));
    }
    if (li.uses_var) {
      Reader r = m.reader();
      out.var = r.bytes();
      m.consume(r.position());
    }
    return out;
  }
  Reader r = m.reader();
  for (const FieldSpec& f : li.fields) {
    out.fields.push_back(f.bits <= 32 ? r.u32() : r.u64());
  }
  if (li.uses_var) out.var = r.bytes();
  m.consume(r.position());
  return out;
}

Bytes Stack::region_prefix(const Message& m, const Layer& layer) const {
  if (cfg_.codec != HeaderCodec::kCompact) return {};
  std::size_t prefix_bits = 0;
  for (std::size_t i = 0; i < layer.index(); ++i) {
    for (const FieldSpec& f : layers_[i]->info().fields) {
      prefix_bits += static_cast<std::size_t>(f.bits);
    }
  }
  ByteSpan region = m.region();
  std::size_t whole = prefix_bits / 8;
  int partial = static_cast<int>(prefix_bits % 8);
  // A tx message may not have its full region allocated yet (it grows as
  // the message descends); missing bytes read as zero so that sender-side
  // and receiver-side coverage agree.
  Bytes out(whole + (partial != 0 ? 1 : 0), 0);
  for (std::size_t i = 0; i < out.size() && i < region.size(); ++i) {
    out[i] = region[i];
  }
  if (partial != 0 && whole < out.size()) {
    out[whole] = static_cast<std::uint8_t>(out[whole] & ((1u << partial) - 1));
  }
  return out;
}

sim::TimerId Stack::schedule(GroupId gid, sim::Duration d,
                             std::function<void(Group&)> fn) {
  // Arming a timer for another group from inside a group task is flagged
  // at the source: when it fires it would mutate state the arming task
  // never owned, and catching it here names the culprit, not the victim.
  HORUS_RACE_PROBE_TIMER(race::owner_key(&owner_->executor(), gid.id), gid.id,
                         "Stack::schedule");
  // A fire runs once, so the callback moves into the group task. The task
  // belongs to this stack's epoch: a retired epoch's timers die quietly
  // (their state slots are gone), draining shadows still tick.
  return sched_.schedule(d, [this, gid, fn = std::move(fn)]() mutable {
    owner_->post_to(
        gid, race::Origin::kTimer,
        [fn = std::move(fn)](Group& g, Stack&) { fn(g); },
        [this](Group& g) { return g.epoch_for(*this); });
  });
}

void Stack::cancel(sim::TimerId id) { sched_.cancel(id); }

sim::Time Stack::now() const { return sched_.now(); }

Address Stack::address() const { return owner_->address(); }

Layer* Stack::find_layer(const std::string& name) const {
  for (const auto& l : layers_) {
    if (l->info().name == name) return l.get();
  }
  return nullptr;
}

std::string Stack::dump(Group& g, const std::string& layer_name) const {
  // The flight recorder answers to the dump downcall like a pseudo-layer:
  // dump(g, "FLIGHT") returns the group's recent-event ring (docs/obs.md).
  if (layer_name == "FLIGHT") {
#ifdef HORUS_METRICS
    return obs::flight_recorder().dump(g.gid().id);
#else
    return "flight recorder compiled out (HORUS_METRICS=OFF)\n";
#endif
  }
  std::string out;
  if (layer_name.empty()) {
    for (const auto& l : layers_) l->dump(g, out);
    return out;
  }
  Layer* l = find_layer(layer_name);
  if (l == nullptr) return "no such layer: " + layer_name + "\n";
  l->dump(g, out);
  return out;
}

void Stack::init_group(Group& g) {
  auto& slots = g.states_for(*this);
  slots.clear();
  slots.reserve(layers_.size());
  for (const auto& l : layers_) slots.push_back(l->make_state(g));
#ifdef HORUS_METRICS
  // Teach the flight recorder this group's layer names so dumps print
  // "NAK" instead of "#3". Last chain wins after a reconfig -- the current
  // epoch is what a post-mortem reader wants labeled.
  obs::flight_recorder().set_layers(g.gid().id, spec_string());
#endif
}

std::string Stack::spec_string() const {
  std::string out;
  for (const auto& l : layers_) {
    if (!out.empty()) out += ':';
    out += l->info().name;
  }
  return out;
}

}  // namespace horus
