// The protocol-as-abstract-data-type interface (Sections 1, 2, 4).
//
// A Layer is a software module with standardized top and bottom interfaces:
// DownEvents enter from above (requests), UpEvents enter from below
// (messages and notifications). A layer class is instantiated once per
// stack, but all *state* is per-group: "although a single layer may be used
// concurrently by many groups ... each instance has its own state. The
// group object maintains this state on a per-endpoint basis." Layers store
// their per-group state in the Group object via make_state()/state<T>().
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "horus/core/events.hpp"
#include "horus/properties/algebra.hpp"
#include "horus/util/bitfield.hpp"

namespace horus {

class Stack;
class Group;
class Writer;
class Reader;

/// Context handed to every layer of a freshly-installed stack epoch after
/// state transfer (Section: live reconfiguration). Carries what a layer
/// needs to resume service in the new epoch without a fresh join.
struct ReconfigInstall {
  View view;                   ///< the view in force across the switch
  std::uint32_t epoch = 0;     ///< the new stack epoch number
  bool coordinated = false;    ///< true if a flush round preceded the switch
  bool completed_flush = false;  ///< the flush drained app-held messages too
  bool blocked = false;        ///< primary-partition: sending stays blocked
};

/// Static description of a layer: its name (used in stack spec strings),
/// the header fields it needs (Section 10: "a protocol will specify ...
/// the fields that it needs (in terms of size and alignment ... in bits)"),
/// and its Table 3 property row.
struct LayerInfo {
  std::string name;
  std::vector<FieldSpec> fields;  ///< fixed header fields (bit widths)
  bool uses_var = false;          ///< has a variable-length header extension
  props::LayerSpec spec;          ///< Requires / Inherits / Provides row
  bool is_transport = false;      ///< bottom-of-stack adapter (COM)
  /// Pure pass-through for kCast/kSend data events in this direction; the
  /// stack's fast path may skip the layer entirely (Section 10, fix 1).
  bool skip_data_down = false;
  bool skip_data_up = false;
  /// Upcall types this layer may *originate* (as opposed to pass through
  /// from below), as a mask of `up_mask(UpType)` bits. The HCPI contract
  /// checker (analysis/checked.hpp) flags originated upcalls outside this
  /// set. kEmitsUndeclared (the default) disables the check for the layer.
  std::uint32_t up_emits = kEmitsUndeclared;
  static constexpr std::uint32_t kEmitsUndeclared = ~0u;
  /// This layer coordinates live stack switches: a kReconfig downcall stops
  /// here and rides the layer's own agreement machinery (MBRSHIP rides its
  /// view-change flush). Stacks without such a layer switch locally.
  bool reconfig_coordinator = false;
};

/// Base class for per-group layer state kept inside the Group object.
struct LayerState {
  virtual ~LayerState() = default;
};

class Layer {
 public:
  virtual ~Layer() = default;

  [[nodiscard]] virtual const LayerInfo& info() const = 0;

  /// Create this layer's per-group state; called when a group is created.
  virtual std::unique_ptr<LayerState> make_state(Group& g);

  /// Handle an event from above. Default: pass through unchanged.
  virtual void down(Group& g, DownEvent& ev) { pass_down(g, ev); }

  /// Handle an event from below. Default: pass through unchanged.
  virtual void up(Group& g, UpEvent& ev) { pass_up(g, ev); }

  /// Apply down() to each event in order. Nothing in the stack calls this:
  /// a descent is always one event (PACK's trains batch below it). It stays
  /// only because perfbench's TimedLayer (perfbench/src/trace.hpp) overrides
  /// it; delete both together.
  virtual void down_batch(Group& g, std::span<DownEvent> evs);

  /// Bottom (transport) layers only: a raw datagram arrived for `g`.
  /// The stack bytes occupy [offset, datagram->size()).
  virtual void raw_receive(Group& g, Address src,
                           std::shared_ptr<const Bytes> datagram,
                           std::size_t offset);

  /// Diagnostics: append a human-readable dump of per-group state.
  virtual void dump(Group& g, std::string& out) const;

  /// Live-reconfiguration state transfer (HCPI extension). When a group
  /// switches stacks, layers sharing a name with their counterpart in the
  /// old chain may carry state across the epoch boundary: the old layer's
  /// export_state() encodes whatever must survive (NAK retransmit buffers,
  /// CAUSAL vector clocks, ...) and the new layer's import_state() decodes
  /// it. The defaults transfer nothing -- "drain-only" -- which is always
  /// safe: the old epoch's shadow chain keeps draining in-flight traffic.
  virtual void export_state(Group& g, Writer& w);
  virtual void import_state(Group& g, Reader& r);

  /// Called on every layer of the NEW chain (top to bottom), after all
  /// import_state() calls, when a new stack epoch goes live for `g`. Layers
  /// that normally learn the view via a join/flush round resume from
  /// `inst.view` instead. Default: no-op.
  virtual void on_reconfig_install(Group& g, const ReconfigInstall& inst);

  /// The real protocol object behind any decorators: CheckedLayer overrides
  /// this to return its wrapped layer, so code that needs the concrete type
  /// (the reconfiguration handover locating the new epoch's MBRSHIP) can
  /// dynamic_cast through contract monitors.
  virtual Layer* innermost() { return this; }

  /// Wired up by Stack during construction. Virtual so that decorators
  /// (analysis::CheckedLayer) can attach their inner layer alongside.
  virtual void attach(Stack& s, std::size_t index) {
    stack_ = &s;
    index_ = index;
  }
  [[nodiscard]] std::size_t index() const { return index_; }

 protected:
  /// Forward an event to the next layer below (or the transport sink).
  void pass_down(Group& g, DownEvent& ev);
  /// Forward an event to the next layer above (or the application sink).
  void pass_up(Group& g, UpEvent& ev);

  [[nodiscard]] Stack& stack() const { return *stack_; }

  /// Typed access to this layer's per-group state.
  template <class T>
  [[nodiscard]] T& state(Group& g) const;

 private:
  Stack* stack_ = nullptr;
  std::size_t index_ = 0;
};

}  // namespace horus
