#include "horus/core/endpoint.hpp"

#include <stdexcept>

namespace horus {

Endpoint::Endpoint(Address addr, StackConfig cfg,
                   std::vector<std::unique_ptr<Layer>> layers,
                   props::PropertySet network_properties, Transport& transport,
                   sim::Scheduler& sched,
                   std::unique_ptr<runtime::Executor> exec)
    : addr_(addr),
      exec_(exec ? std::move(exec)
                 : std::make_unique<runtime::GroupExecutor>()),
      transport_(&transport),
      sched_(&sched),
      net_props_(network_properties) {
  stack_ = std::make_unique<Stack>(std::move(cfg), std::move(layers),
                                   network_properties, transport, sched, *exec_,
                                   *this);
}

Endpoint::~Endpoint() = default;

Group* Endpoint::find_group(GroupId gid) {
  util::ReaderLock lock(groups_mu_);
  auto it = groups_.find(gid);
  return it != groups_.end() ? it->second.get() : nullptr;
}

Group& Endpoint::group(GroupId gid) {
  Group* g = find_group(gid);
  if (g == nullptr) throw std::out_of_range("not a member of " + to_string(gid));
  return *g;
}

Group& Endpoint::ensure_group(GroupId gid, Stack& on) {
  if (Group* g = find_group(gid)) return *g;
  auto g = std::make_unique<Group>(gid, on, on.epoch_stamp());
#ifdef HORUS_CHECK_RACES
  // Register the group's ownership token before the first state access so
  // every probe from here on knows who the legal owner is.
  g->race_set_owner(race::owner_key(exec_.get(), gid.id));
#endif
  // Until a membership layer (or the application's view downcall) installs
  // a real view, the group is a singleton: just this endpoint.
  g->set_view(View(ViewId{0, addr_}, {addr_}));
  // Reconfiguration legality default: a switch must preserve everything
  // the join-time stack delivered, until the application relaxes it.
  g->set_required(on.provided_properties());
  on.init_group(*g);
  Group& ref = *g;
  {
    util::WriterLock lock(groups_mu_);
    groups_.emplace(gid, std::move(g));
  }
  return ref;
}

Stack& Endpoint::add_stack(std::vector<std::unique_ptr<Layer>> layers,
                           props::PropertySet network_properties) {
  extra_stacks_.push_back(std::make_unique<Stack>(
      stack_->config(), std::move(layers), network_properties, *transport_,
      *sched_, *exec_, *this));
  return *extra_stacks_.back();
}

Group& Endpoint::join_on(Stack& stack, GroupId gid, Address contact) {
  Group& g = ensure_group(gid, stack);
  DownEvent ev;
  ev.type = DownType::kJoin;
  ev.contact = contact;
  stack.down(g, std::move(ev));
  return g;
}

void Endpoint::deliver_datagram(Address src,
                                std::shared_ptr<const Bytes> datagram) {
  if (crashed_ || datagram->size() < Stack::kGidPrefix) return;
  std::uint64_t gid = 0;
  for (std::size_t i = 0; i < Stack::kGidPrefix; ++i) {
    gid |= static_cast<std::uint64_t>((*datagram)[i]) << (8 * i);
  }
  Group* g = find_group(GroupId{gid});
  if (g == nullptr || g->destroyed()) return;  // not a member: drop
  g->stack().deliver_datagram(src, GroupId{gid}, std::move(datagram));
}

void Endpoint::deliver_datagrams(
    Address src, std::vector<std::shared_ptr<const Bytes>> datagrams) {
  if (crashed_) return;
  // Batch consecutive datagrams for the same group so each run costs one
  // executor enqueue; order across the burst is preserved (runs are posted
  // in arrival order, and tasks for one group run FIFO).
  Group* run_group = nullptr;
  GroupId run_gid{};
  std::vector<std::shared_ptr<const Bytes>> run;
  auto flush_run = [&] {
    if (run_group != nullptr && !run.empty()) {
      run_group->stack().deliver_datagram_batch(src, run_gid, std::move(run));
    }
    run.clear();
    run_group = nullptr;
  };
  for (auto& d : datagrams) {
    if (d == nullptr || d->size() < Stack::kGidPrefix) continue;
    std::uint64_t gid = 0;
    for (std::size_t i = 0; i < Stack::kGidPrefix; ++i) {
      gid |= static_cast<std::uint64_t>((*d)[i]) << (8 * i);
    }
    if (run_group == nullptr || run_gid.id != gid) {
      flush_run();
      Group* g = find_group(GroupId{gid});
      if (g == nullptr || g->destroyed()) continue;  // not a member: drop
      run_group = g;
      run_gid = GroupId{gid};
    }
    run.push_back(std::move(d));
  }
  flush_run();
}

void Endpoint::downcall(GroupId gid, DownEvent ev) {
  Group* g = find_group(gid);
  if (g == nullptr || g->destroyed() || crashed_) return;
  g->stack().down(*g, std::move(ev));
}

Group& Endpoint::join(GroupId gid, Address contact) {
  return join_on(*stack_, gid, contact);
}

void Endpoint::cast(GroupId gid, Message msg) {
  DownEvent ev;
  ev.type = DownType::kCast;
  ev.msg = std::move(msg);
  downcall(gid, std::move(ev));
}

void Endpoint::cast_batch(GroupId gid, std::vector<Message> msgs) {
  if (msgs.empty()) return;
  Group* g = find_group(gid);
  if (g == nullptr || g->destroyed() || crashed_) return;
  std::vector<DownEvent> evs;
  evs.reserve(msgs.size());
  for (Message& m : msgs) {
    DownEvent ev;
    ev.type = DownType::kCast;
    ev.msg = std::move(m);
    evs.push_back(std::move(ev));
  }
  g->stack().down_batch(*g, std::move(evs));
}

void Endpoint::send(GroupId gid, std::vector<Address> dests, Message msg) {
  DownEvent ev;
  ev.type = DownType::kSend;
  ev.dests = std::move(dests);
  ev.msg = std::move(msg);
  downcall(gid, std::move(ev));
}

void Endpoint::ack(GroupId gid, Address source, std::uint64_t msg_id) {
  DownEvent ev;
  ev.type = DownType::kAck;
  ev.msg_source = source;
  ev.msg_id = msg_id;
  downcall(gid, std::move(ev));
}

void Endpoint::flush(GroupId gid, std::vector<Address> failed) {
  DownEvent ev;
  ev.type = DownType::kFlush;
  ev.dests = std::move(failed);
  downcall(gid, std::move(ev));
}

void Endpoint::flush_ok(GroupId gid) {
  DownEvent ev;
  ev.type = DownType::kFlushOk;
  downcall(gid, std::move(ev));
}

void Endpoint::merge(GroupId gid, Address contact) {
  DownEvent ev;
  ev.type = DownType::kMerge;
  ev.contact = contact;
  downcall(gid, std::move(ev));
}

void Endpoint::merge_granted(GroupId gid) {
  DownEvent ev;
  ev.type = DownType::kMergeGranted;
  downcall(gid, std::move(ev));
}

void Endpoint::merge_denied(GroupId gid, std::string reason) {
  DownEvent ev;
  ev.type = DownType::kMergeDenied;
  ev.info = std::move(reason);
  downcall(gid, std::move(ev));
}

void Endpoint::leave(GroupId gid) {
  DownEvent ev;
  ev.type = DownType::kLeave;
  downcall(gid, std::move(ev));
}

void Endpoint::install_view(GroupId gid, std::vector<Address> members) {
  Group& g = ensure_group(gid, *stack_);
  View v(ViewId{g.view().id().seq + 1, addr_}, std::move(members));
  g.set_view(v);
  DownEvent ev;
  ev.type = DownType::kView;
  ev.view = std::move(v);
  // Down the stack the group actually lives on: with cactus stacks the
  // group may belong to a branch, not the trunk.
  g.stack().down(g, std::move(ev));
}

// ---------------------------------------------------------------------------
// Live reconfiguration
// ---------------------------------------------------------------------------

namespace {

std::vector<props::LayerSpec> spec_rows(
    const std::vector<std::unique_ptr<Layer>>& layers) {
  std::vector<props::LayerSpec> out;
  out.reserve(layers.size());
  for (const auto& l : layers) out.push_back(l->info().spec);
  return out;
}

/// Index of the layer that coordinates switches (MBRSHIP), or npos.
std::size_t coordinator_index(const std::vector<std::unique_ptr<Layer>>& layers) {
  for (std::size_t i = 0; i < layers.size(); ++i) {
    if (layers[i]->info().reconfig_coordinator) return i;
  }
  return static_cast<std::size_t>(-1);
}

}  // namespace

props::TransitionCheck Endpoint::check_transition_for(
    Group& g, const std::string& new_spec) {
  if (!layer_factory_) {
    throw std::logic_error(
        "reconfigure: no layer factory installed (create the endpoint "
        "through HorusSystem, or call set_layer_factory)");
  }
  std::vector<std::unique_ptr<Layer>> trial;
  props::TransitionCheck tc;
  try {
    trial = layer_factory_(new_spec);
  } catch (const std::exception& e) {
    // Unknown layer names and similar factory failures reject the switch
    // like any other illegal transition (with the factory's diagnosis).
    tc.error = e.what();
    return tc;
  }
  tc = props::check_transition(spec_rows(g.stack().layers()), spec_rows(trial),
                               net_props_, g.required());
  if (!tc.legal) return tc;
  // Structural rule: the chain at and above the switch coordinator must be
  // unchanged. The coordinator (MBRSHIP) survives the switch as the same
  // protocol instance logically -- its flush drains the old epoch and its
  // view carries over -- and layers above it keep their header geometry so
  // captured in-flight casts replay into the new epoch byte-identically.
  std::size_t ci = coordinator_index(g.stack().layers());
  if (ci != static_cast<std::size_t>(-1)) {
    const auto& old_layers = g.stack().layers();
    for (std::size_t i = 0; i <= ci; ++i) {
      if (i >= trial.size() ||
          trial[i]->info().name != old_layers[i]->info().name) {
        tc.legal = false;
        tc.error = "layers at and above the reconfiguration coordinator (" +
                   old_layers[ci]->info().name +
                   ") must be unchanged; the switch may only replace layers "
                   "below it (old " +
                   g.stack().spec_string() + ", new " + new_spec + ")";
        return tc;
      }
    }
  }
  return tc;
}

props::TransitionCheck Endpoint::check_reconfig(GroupId gid,
                                                const std::string& new_spec) {
  return check_transition_for(group(gid), new_spec);
}

void Endpoint::reconfigure(GroupId gid, const std::string& new_spec) {
  Group& g = group(gid);  // throws if not a member
  props::TransitionCheck tc = check_transition_for(g, new_spec);
  if (!tc.legal) {
    msg_path_stats().reconfigs_rejected.fetch_add(1, std::memory_order_relaxed);
    throw std::invalid_argument("reconfigure " + to_string(gid) + ": " +
                                tc.error);
  }
  msg_path_stats().reconfigs_requested.fetch_add(1, std::memory_order_relaxed);
  if (coordinator_index(g.stack().layers()) != static_cast<std::size_t>(-1)) {
    // Coordinated: descend a kReconfig; the membership layer rides its
    // view-change flush and calls complete_reconfig on install.
    DownEvent ev;
    ev.type = DownType::kReconfig;
    ev.info = new_spec;
    downcall(gid, std::move(ev));
    return;
  }
  // Membership-less stack: switch locally, as a group-serialized task.
  HORUS_RACE_ORIGIN_SCOPE(race_origin, kReconfig);
  exec_->post(gid.id, [this, gid, new_spec]() {
    if (crashed()) return;
    Group* grp = find_group(gid);
    if (grp == nullptr || grp->destroyed()) return;
    local_switch(*grp, new_spec);
  });
}

void Endpoint::set_required(GroupId gid, props::PropertySet required) {
  group(gid).set_required(required);
}

bool Endpoint::validate_reconfig(Group& g, const std::string& spec) {
  if (!layer_factory_) return false;
  try {
    if (check_transition_for(g, spec).legal) return true;
  } catch (const std::exception&) {
    // Unknown layer names and similar factory failures reject the switch.
  }
  msg_path_stats().reconfigs_rejected.fetch_add(1, std::memory_order_relaxed);
  return false;
}

Stack* Endpoint::build_epoch_stack(const std::string& spec,
                                   std::uint32_t epoch) {
  if (!layer_factory_) return nullptr;
  std::unique_ptr<Stack> ns;
  try {
    ns = std::make_unique<Stack>(stack_->config(), layer_factory_(spec),
                                 net_props_, *transport_, *sched_, *exec_,
                                 *this, epoch);
  } catch (const std::exception&) {
    return nullptr;
  }
  Stack* raw = ns.get();
  util::MutexLock lock(epoch_stacks_mu_);
  epoch_stacks_.push_back(std::move(ns));
  return raw;
}

void Endpoint::complete_reconfig(Group& g, const std::string& spec,
                                 std::uint32_t epoch,
                                 const ReconfigInstall& inst) {
  Stack* ns = build_epoch_stack(spec, epoch);
  if (ns == nullptr) return;  // cannot build here; stay on the old epoch
  Stack& old = g.stack();
  g.adopt_epoch(*ns, epoch, ns->epoch_stamp());
  ns->init_group(g);
  g.set_view(inst.view);

  // Transfer layer state across the name-identical prefix from the top:
  // those layers keep both their position and their header geometry, so
  // exported state (retransmit buffers, vector clocks, captured casts)
  // stays valid in the new epoch. The first name mismatch ends the
  // transfer; everything below it is drain-only.
  const auto& ol = old.layers();
  const auto& nl = ns->layers();
  {
    // export_state reads the old epoch's slots after adopt_epoch marked it
    // draining: the state-transfer handoff is sanctioned, so open the
    // shadow scope horus-race requires for draining-epoch access.
    HORUS_RACE_SHADOW_SCOPE(race_shadow, &old);
    for (std::size_t i = 0; i < ol.size() && i < nl.size(); ++i) {
      if (ol[i]->info().name != nl[i]->info().name) break;
      Writer w;
      ol[i]->export_state(g, w);
      if (w.size() == 0) continue;
      Bytes blob = w.take();
      Reader r{ByteSpan(blob)};
      try {
        nl[i]->import_state(g, r);
        msg_path_stats().state_transfers.fetch_add(1,
                                                   std::memory_order_relaxed);
      } catch (const DecodeError&) {
        // A transfer the new layer cannot decode degrades to drain-only.
      }
    }
  }

  // The new chain resumes service: top to bottom, so upper layers are
  // ready before lower ones start emitting upcalls.
  for (const auto& l : nl) l->on_reconfig_install(g, inst);

  // Retire the shadow once its drain window passes. Epoch 0 stays forever:
  // it is the rendezvous epoch that answers joins and merges from peers
  // still speaking the original spec.
  GroupId gid = g.gid();
  Stack* old_ptr = &old;
  if (old.epoch() != 0) {
    ns->schedule(gid, ns->config().reconfig_drain, [old_ptr](Group& gg) {
      if (gg.retire_epoch(*old_ptr)) {
        msg_path_stats().shadows_retired.fetch_add(1,
                                                   std::memory_order_relaxed);
      }
    });
  }
  msg_path_stats().reconfigs_completed.fetch_add(1, std::memory_order_relaxed);
}

bool Endpoint::adopt_epoch_for_join(Group& g, const std::string& spec,
                                    std::uint32_t epoch) {
  if (g.stack().spec_string() == spec && g.epoch_number() == epoch) {
    return true;  // already there
  }
  Stack* ns = build_epoch_stack(spec, epoch);
  if (ns == nullptr) return false;
  g.adopt_epoch(*ns, epoch, ns->epoch_stamp());
  ns->init_group(g);
  return true;
}

void Endpoint::local_switch(Group& g, const std::string& spec) {
  ReconfigInstall inst;
  inst.view = g.view();
  inst.epoch = g.epoch_number() + 1;
  inst.coordinated = false;
  complete_reconfig(g, spec, inst.epoch, inst);
}

void Endpoint::destroy() {
  util::ReaderLock lock(groups_mu_);  // iterate only; no map mutation
  for (auto& [gid, g] : groups_) {
    if (g->destroyed()) continue;
    DownEvent ev;
    ev.type = DownType::kDestroy;
    g->stack().down(*g, std::move(ev));
    g->mark_destroyed();
  }
  crashed_.store(true, std::memory_order_release);
}

std::string Endpoint::dump(GroupId gid, const std::string& layer_name) {
  Group* g = find_group(gid);
  if (g == nullptr) return "not a member of " + to_string(gid) + "\n";
  return g->stack().dump(*g, layer_name);
}

void Endpoint::deliver_app_upcall(Group& g, UpEvent& ev) {
  if (handler_) handler_(g, ev);
}

}  // namespace horus
