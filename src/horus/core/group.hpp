// The group object (Section 3): per-endpoint, purely local state for one
// group a process has joined -- the group address, the current view, and
// one state slot per layer in the endpoint's stack. "Horus allows different
// endpoints to have different views of the same group."
//
// Live reconfiguration makes the stack an *epoch-versioned* attribute of
// the group rather than a fixed one: the group keeps a small table of
// epochs, each pairing a Stack (layer chain + header layout) with that
// chain's per-group layer state. Exactly one epoch is current; superseded
// epochs linger as *draining shadows* so datagrams stamped with an old
// epoch are still parsed by the layout that produced them, then retire.
//
// Threading: the group object is the monitor (Section 3). Every field is
// touched only inside the group's own serialized tasks, on the endpoint's
// executor thread -- which is exactly why neither the group nor its layers
// need a lock.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "horus/analysis/race.hpp"
#include "horus/core/layer.hpp"
#include "horus/core/types.hpp"
#include "horus/core/view.hpp"
#include "horus/properties/property.hpp"

#include "horus/obs/flight_recorder.hpp"

namespace horus {

class Stack;

class Group {
 public:
  /// One stack epoch: a layer chain plus its per-group state slots. The
  /// stamp is what datagrams of this epoch carry on the wire.
  struct Epoch {
    Stack* stack = nullptr;
    std::uint32_t number = 0;
    std::uint16_t stamp = 0;
    bool draining = false;  ///< superseded; parses stragglers only
    std::vector<std::unique_ptr<LayerState>> states;
  };

  Group(GroupId gid, Stack& stack, std::uint16_t stamp = 0)
      : gid_(gid), current_(&stack) {
    Epoch e;
    e.stack = &stack;
    e.stamp = stamp;
    epochs_.push_back(std::move(e));
    flight_ring_ = obs::flight_recorder().ring(gid_.id);
  }
  Group(const Group&) = delete;
  Group& operator=(const Group&) = delete;

  [[nodiscard]] GroupId gid() const { return gid_; }

  /// The *current* epoch's stack. Downcall tasks resolve it when they run,
  /// so a downcall enters whichever epoch is current by then.
  [[nodiscard]] Stack& stack() const { return *current_; }

  /// The view as currently installed at this member. Membership layers
  /// update it; for membership-less stacks it is just the destination set.
  [[nodiscard]] const View& view() const {
    HORUS_RACE_PROBE_GROUP(race_owner_, gid_.id, "Group::view");
    return view_;
  }
  void set_view(View v) {
    HORUS_RACE_PROBE_GROUP(race_owner_, gid_.id, "Group::set_view");
    view_ = std::move(v);
  }

  [[nodiscard]] bool destroyed() const { return destroyed_; }
  void mark_destroyed() { destroyed_ = true; }

  // --- Epoch table (all calls below run inside group-serialized tasks).

  [[nodiscard]] Epoch& current_epoch() {
    HORUS_RACE_PROBE_GROUP(race_owner_, gid_.id, "Group::current_epoch");
    return *epoch_for(*current_);
  }
  [[nodiscard]] std::uint32_t epoch_number() const {
    HORUS_RACE_PROBE_GROUP(race_owner_, gid_.id, "Group::epoch_number");
    for (const Epoch& e : epochs_) {
      if (e.stack == current_) return e.number;
    }
    return 0;
  }

  /// Resolve the epoch a datagram's stamp refers to. Exact match first
  /// (endpoints that switched along the same spec history agree on full
  /// stamps); otherwise fall back to the epoch with the stamp's epoch
  /// number -- a peer running a differently-named but wire-compatible
  /// chain in the same epoch (heterogeneous stacks never switched) must
  /// still be heard. nullptr when the epoch has already retired (the
  /// caller drops and counts the datagram).
  [[nodiscard]] Epoch* epoch_for_stamp(std::uint16_t stamp) {
    HORUS_RACE_PROBE_GROUP(race_owner_, gid_.id, "Group::epoch_for_stamp");
    for (Epoch& e : epochs_) {
      if (e.stamp == stamp) return &e;
    }
    for (Epoch& e : epochs_) {
      if ((e.number & 0xffu) == (stamp & 0xffu)) return &e;
    }
    return nullptr;
  }

  /// The epoch driven by `s`; nullptr once it has retired (a timer armed
  /// through a superseded stack then dies quietly).
  [[nodiscard]] Epoch* epoch_for(const Stack& s) {
    for (Epoch& e : epochs_) {
      if (e.stack == &s) return &e;
    }
    return nullptr;
  }

  /// Install `s` as the new current epoch. The old current epoch becomes a
  /// draining shadow: its layers keep parsing stragglers stamped with the
  /// old epoch until the endpoint retires it.
  void adopt_epoch(Stack& s, std::uint32_t number, std::uint16_t stamp) {
    HORUS_RACE_PROBE_GROUP(race_owner_, gid_.id, "Group::adopt_epoch");
    if (Epoch* cur = epoch_for(stack())) cur->draining = true;
    Epoch e;
    e.stack = &s;
    e.number = number;
    e.stamp = stamp;
    epochs_.push_back(std::move(e));
    current_ = &s;
  }

  /// Drop a draining epoch's record (frees its layer state). Refuses to
  /// retire the current epoch. Returns whether a record was removed.
  bool retire_epoch(const Stack& s) {
    HORUS_RACE_PROBE_GROUP(race_owner_, gid_.id, "Group::retire_epoch");
    for (auto it = epochs_.begin(); it != epochs_.end(); ++it) {
      if (it->stack == &s) {
        if (!it->draining) return false;  // still (or again) current
        epochs_.erase(it);
        return true;
      }
    }
    return false;
  }

  [[nodiscard]] std::size_t epoch_count() const { return epochs_.size(); }

  /// Layer state slots for one epoch's chain, indexed by layer position.
  std::vector<std::unique_ptr<LayerState>>& states_for(const Stack& s) {
    Epoch* e = epoch_for(s);
    assert(e != nullptr && "states_for: unknown stack epoch");
    HORUS_RACE_PROBE_STATE(race_owner_, gid_.id, &s, e->draining,
                           "Group::states_for");
    return e->states;
  }

  [[nodiscard]] LayerState* state_at(const Stack& s, std::size_t idx) {
    Epoch* e = epoch_for(s);
    if (e == nullptr || idx >= e->states.size()) return nullptr;
    HORUS_RACE_PROBE_STATE(race_owner_, gid_.id, &s, e->draining,
                           "Group::state_at");
    return e->states[idx].get();
  }

  /// The property set the application requires of this group's stack; live
  /// reconfiguration to a spec that does not cover it is rejected. Defaults
  /// to what the join-time stack provided (a switch may only strengthen or
  /// preserve service unless the application relaxes this).
  [[nodiscard]] props::PropertySet required() const { return required_; }
  void set_required(props::PropertySet p) { required_ = p; }

  /// This group's flight-recorder ring (docs/obs.md), resolved once at
  /// construction so hot-path recording never takes the recorder's map
  /// lock. Never null.
  [[nodiscard]] obs::GroupRing* flight_ring() const { return flight_ring_; }

#ifdef HORUS_CHECK_RACES
  /// Ownership token for horus-race (race::owner_key of the owning
  /// executor and group key). 0 -- a bare Group built outside an endpoint
  /// -- disables the probes for this group. required() and stack() stay
  /// unprobed: reconfigure()'s precheck reads them on the executor's thread
  /// but outside any task (the simulator's driver calls it directly).
  void race_set_owner(std::uint64_t token) { race_owner_ = token; }
  [[nodiscard]] std::uint64_t race_owner() const { return race_owner_; }
#endif

 private:
  GroupId gid_;
  Stack* current_;
  View view_;
  bool destroyed_ = false;
  props::PropertySet required_ = 0;
  std::vector<Epoch> epochs_;
  obs::GroupRing* flight_ring_ = nullptr;
#ifdef HORUS_CHECK_RACES
  std::uint64_t race_owner_ = 0;
#endif
};

template <class T>
T& Layer::state(Group& g) const {
  auto* s = g.state_at(*stack_, index_);
  assert(s != nullptr && "layer state missing");
  return *static_cast<T*>(s);
}

}  // namespace horus
