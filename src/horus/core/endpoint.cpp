#include "horus/core/endpoint.hpp"

#include <stdexcept>

#include "horus/util/hotpath_stats.hpp"

#include "horus/obs/flight_recorder.hpp"

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
                                   network_properties, transport, sched, *this);
}

Endpoint::~Endpoint() = default;

Group* Endpoint::find_group(GroupId gid) {
  auto it = groups_.find(gid);
  return it != groups_.end() ? it->second.get() : nullptr;
}

Group& Endpoint::group(GroupId gid) {
  Group* g = find_group(gid);
  if (g == nullptr) throw std::out_of_range("not a member of " + to_string(gid));
  return *g;
}

Group* Endpoint::live_group(GroupId gid) {
  if (crashed_) return nullptr;
  Group* g = find_group(gid);
  return g != nullptr && !g->destroyed() ? g : nullptr;
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
  return *groups_.emplace(gid, std::move(g)).first->second;
}

Stack& Endpoint::add_stack(std::vector<std::unique_ptr<Layer>> layers,
                           props::PropertySet network_properties) {
  extra_stacks_.push_back(std::make_unique<Stack>(
      stack_->config(), std::move(layers), network_properties, *transport_,
      *sched_, *this));
  return *extra_stacks_.back();
}

// Every application call below posts one task keyed by the group id, the
// unit of mutual exclusion (Section 3); the task resolves the group when it
// runs, so a downcall always enters the epoch that is current by then.
void Endpoint::downcall(GroupId gid, DownEvent ev) {
  post_to(gid, race::Origin::kDowncall, [ev = std::move(ev)](Group& g) mutable {
    g.stack().app_down(g, ev);
  });
}

void Endpoint::join_on(Stack& stack, GroupId gid, Address contact) {
  post_to(
      gid, race::Origin::kDowncall,
      [contact](Group& g) {
        DownEvent ev;
        ev.type = DownType::kJoin;
        ev.contact = contact;
        g.stack().app_down(g, ev);
      },
      nullptr, &stack);
}

void Endpoint::join(GroupId gid, Address contact) {
  join_on(*stack_, gid, contact);
}

void Endpoint::deliver_datagram(Address src,
                                std::shared_ptr<const Bytes> datagram) {
  const Bytes& d = *datagram;
  if (d.size() < Stack::kGidPrefix) return;
  GroupId gid{0};
  for (std::size_t i = 0; i < Stack::kGidPrefix; ++i) {
    gid.id |= static_cast<std::uint64_t>(d[i]) << (8 * i);
  }
  Group* g = live_group(gid);
  if (g == nullptr) return;  // not a member: drop before posting
  g->stack().stats_.datagrams_received.fetch_add(1, std::memory_order_relaxed);
  // The stamp routes the datagram to the epoch that framed it: a late one
  // to that epoch's draining shadow chain; one whose epoch has retired is
  // dropped and counted. A runt (no stamp) is dropped.
  const int stamp = d.size() < Stack::kFramePrefix
                        ? -1
                        : d[Stack::kGidPrefix] | d[Stack::kGidPrefix + 1] << 8;
  post_to(
      gid, race::Origin::kDatagram,
      [src, datagram = std::move(datagram)](Group& grp, Stack& s) mutable {
        if (obs::enabled()) {
          grp.flight_ring()->record(
              obs::FrEvent::kDatagramRx,
              static_cast<std::uint8_t>(s.layers().size() - 1),
              static_cast<std::uint32_t>(datagram->size()),
              static_cast<std::uint64_t>(s.now()), src.id);
        }
        s.layers().back()->raw_receive(grp, src, std::move(datagram),
                                       Stack::kFramePrefix);
      },
      [stamp](Group& grp) -> Group::Epoch* {
        if (stamp < 0) return nullptr;
        Group::Epoch* e =
            grp.epoch_for_stamp(static_cast<std::uint16_t>(stamp));
        if (e == nullptr) {
          msg_path_stats().stale_epoch_drops.fetch_add(
              1, std::memory_order_relaxed);
        } else if (e->draining) {
          msg_path_stats().shadow_datagrams.fetch_add(
              1, std::memory_order_relaxed);
        }
        return e;
      });
}

void Endpoint::cast(GroupId gid, Message msg) {
  DownEvent ev;
  ev.type = DownType::kCast;
  ev.msg = std::move(msg);
  downcall(gid, std::move(ev));
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
  post_to(
      gid, race::Origin::kDowncall,
      [this, members = std::move(members)](Group& g) mutable {
        View v(ViewId{g.view().id().seq + 1, addr_}, std::move(members));
        g.set_view(v);
        DownEvent ev;
        ev.type = DownType::kView;
        ev.view = std::move(v);
        // Down the stack the group actually lives on: with cactus stacks
        // the group may belong to a branch, not the trunk.
        g.stack().app_down(g, ev);
      },
      nullptr, stack_.get());
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
  post_to(gid, race::Origin::kReconfig,
          [this, new_spec](Group& grp) { local_switch(grp, new_spec); });
}

void Endpoint::set_required(GroupId gid, props::PropertySet required) {
  post_to(gid, race::Origin::kDowncall,
          [required](Group& g) { g.set_required(required); });
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
                                 net_props_, *transport_, *sched_, *this,
                                 epoch);
  } catch (const std::exception&) {
    return nullptr;
  }
  Stack* raw = ns.get();
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
  // Each group's own task tears it down: marked here, inside a task, the
  // groups would be gone before their queued DESTROYs ran.
  std::vector<GroupId> live;
  for (auto& [gid, g] : groups_) {
    if (!g->destroyed()) live.push_back(gid);
  }
  if (live.empty()) crashed_ = true;
  for (GroupId gid : live) {
    post_to(gid, race::Origin::kDowncall,
            [this, last = gid == live.back()](Group& g) {
              DownEvent ev;
              ev.type = DownType::kDestroy;
              g.stack().app_down(g, ev);
              g.mark_destroyed();
              if (last) crashed_ = true;
            });
  }
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
