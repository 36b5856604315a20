// The communication endpoint (Section 3): owns one protocol stack and the
// group objects built on it, and exposes the Table 1 downcalls to the
// application. Upcalls that emerge from the top of the stack are delivered
// to the application's handler.
//
// Threading: the endpoint has one owner thread, the one its executor runs
// tasks on (the simulator's driver, or a node loop -- net/runtime.hpp).
// The calls marked "any thread" post one task keyed by the group id and
// touch nothing else, so they are safe from any thread. Every other call
// must run on the executor's thread; on a node loop that means inside an
// upcall or a posted task.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <unordered_map>

#include "horus/analysis/race.hpp"
#include "horus/core/stack.hpp"
#include "horus/properties/algebra.hpp"
#include "horus/runtime/executor.hpp"

namespace horus {

class Endpoint {
 public:
  using UpcallHandler = std::function<void(Group&, UpEvent&)>;
  /// Builds a layer chain (top to bottom) from a stack spec string. The
  /// core cannot depend on the layer registry, so live reconfiguration
  /// needs this hook; HorusSystem installs layers::make_stack.
  using LayerFactory =
      std::function<std::vector<std::unique_ptr<Layer>>(const std::string&)>;

  /// `layers` top to bottom; `network_properties` describes the transport
  /// (normally just P1). If `exec` is null a GroupExecutor is used (the
  /// paper's monitor model with the group object as the unit of mutual
  /// exclusion; single-threaded and deterministic). A node loop passes its
  /// own GroupExecutor so it can take posts from other threads
  /// (net/runtime.hpp).
  Endpoint(Address addr, StackConfig cfg,
           std::vector<std::unique_ptr<Layer>> layers,
           props::PropertySet network_properties, Transport& transport,
           sim::Scheduler& sched,
           std::unique_ptr<runtime::Executor> exec = nullptr);
  ~Endpoint();
  Endpoint(const Endpoint&) = delete;
  Endpoint& operator=(const Endpoint&) = delete;

  [[nodiscard]] Address address() const { return addr_; }
  /// The default (base) stack created with the endpoint.
  [[nodiscard]] Stack& stack() { return *stack_; }
  /// The execution model all of this endpoint's stacks run on.
  [[nodiscard]] runtime::Executor& executor() { return *exec_; }

  /// Cactus stacks (Section 4): "a process is allowed to put multiple
  /// endpoints on a single base endpoint. This way, a tree or cactus stack
  /// of protocols can be built." Additional stacks share this endpoint's
  /// address and transport; incoming datagrams are demultiplexed to the
  /// stack owning the destination group via the frame's group-id prefix.
  /// Call it before the executor's thread starts, or on that thread.
  Stack& add_stack(std::vector<std::unique_ptr<Layer>> layers,
                   props::PropertySet network_properties);

  /// Join a group on a specific stack (default join uses the base stack).
  /// Any thread.
  void join_on(Stack& stack, GroupId gid, Address contact = {});

  /// Receive upcalls. Must outlive the endpoint's activity. Install it
  /// before the first join.
  void on_upcall(UpcallHandler h) { handler_ = std::move(h); }

  // -- Table 1 downcalls (any thread) ----------------------------------------

  /// Join a group; `contact` is an existing member to rendezvous with (an
  /// invalid address bootstraps a new singleton group). The group object
  /// is built, and its layer state made, by the posted task. The VIEW
  /// upcall arrives asynchronously.
  void join(GroupId gid, Address contact = {});

  /// Multicast to the group's current view.
  void cast(GroupId gid, Message msg);

  /// Send to a subset of the view.
  void send(GroupId gid, std::vector<Address> dests, Message msg);

  /// Application-level acknowledgement: "I have processed message
  /// (source, msg_id)". Drives the stability machinery (Section 9).
  void ack(GroupId gid, Address source, std::uint64_t msg_id);

  /// Report failed members and start a flush (external failure detector
  /// input, Section 5).
  void flush(GroupId gid, std::vector<Address> failed);

  /// Go along with an in-progress flush (used when the application opted
  /// into participating in flushes).
  void flush_ok(GroupId gid);

  /// Ask the membership layer to merge with the view that `contact`
  /// belongs to (partition healing, Section 5/9).
  void merge(GroupId gid, Address contact);

  /// Answer a MERGE_REQUEST upcall (when app_controls_merge is set).
  void merge_granted(GroupId gid);
  void merge_denied(GroupId gid, std::string reason = {});

  void leave(GroupId gid);

  /// Install a view explicitly (Table 1's view downcall). For stacks
  /// without a membership layer the view is "nothing but the set of
  /// destination endpoints for multicast messages" (Section 7); stacks with
  /// MBRSHIP manage views themselves and absorb this call.
  void install_view(GroupId gid, std::vector<Address> members);

  // -- live reconfiguration (executor thread, except set_required) ----------

  /// Install the spec->layers factory that live reconfiguration uses to
  /// build new layer chains (normally layers::make_stack, wired up by
  /// HorusSystem). Without it reconfigure() throws.
  void set_layer_factory(LayerFactory f) { layer_factory_ = std::move(f); }
  [[nodiscard]] props::PropertySet network_properties() const {
    return net_props_;
  }

  /// Switch the group's protocol stack live. The target spec is checked
  /// (well-formed, and its provided properties cover the group's required
  /// set -- see Group::set_required); an illegal transition throws
  /// std::invalid_argument carrying the property delta and nothing changes.
  /// A legal switch is coordinated by the stack's membership layer (it
  /// rides a view-change flush so no message is lost, duplicated or
  /// reordered across the epoch boundary); membership-less stacks switch
  /// locally. Completion is asynchronous: the application sees a VIEW
  /// upcall from the new epoch.
  void reconfigure(GroupId gid, const std::string& new_spec);

  /// Dry-run the legality check reconfigure() applies (also what
  /// `horus-lint --diff` prints). Does not switch anything.
  props::TransitionCheck check_reconfig(GroupId gid,
                                        const std::string& new_spec);

  /// Declare the property set the application requires of `gid`'s stack
  /// (reconfigurations that would drop any of it are rejected). Defaults
  /// to everything the join-time stack provided. Any thread; ignored if
  /// the endpoint is not a member when the task runs.
  void set_required(GroupId gid, props::PropertySet required);

  // Reconfiguration plumbing (called by the membership layer from inside
  // the group's serialized task; not application API).

  /// Non-throwing legality check used coordinator-side before accepting a
  /// peer's switch request. Counts a rejection when illegal.
  bool validate_reconfig(Group& g, const std::string& spec);
  /// Install `spec` as the group's next epoch: build the chain, swap the
  /// current epoch (the old one becomes a draining shadow), transfer layer
  /// state across the name-identical prefix, notify the new chain via
  /// on_reconfig_install, and schedule the shadow's retirement.
  void complete_reconfig(Group& g, const std::string& spec,
                         std::uint32_t epoch, const ReconfigInstall& inst);
  /// A still-joining member learned the group switched specs: adopt the
  /// new (spec, epoch) without state transfer or install emission so the
  /// join can proceed on the new epoch. Returns false if the spec cannot
  /// be built here.
  bool adopt_epoch_for_join(Group& g, const std::string& spec,
                            std::uint32_t epoch);

  // -- executor thread only --------------------------------------------------

  /// Tear down the endpoint: each live group's task sends DESTROY down its
  /// stack and marks the group destroyed; the last one marks the endpoint
  /// crashed. Safe inside a task too (an upcall handler, a node loop).
  void destroy();

  /// Table 1 focus/dump: textual state of one layer in one group.
  std::string dump(GroupId gid, const std::string& layer_name);

  /// Hard-crash this endpoint: it stops sending, receiving and processing
  /// timers instantly (fail-stop). Used by failure-injection tests.
  void crash() { crashed_ = true; }
  [[nodiscard]] bool crashed() const { return crashed_; }

  /// Raw datagram entry (the transport's receive path): reads the group-id
  /// prefix, drops the datagram unless this endpoint is in that group, and
  /// posts it to the group's task, which hands it to the bottom layer of
  /// the stack epoch its stamp names.
  void deliver_datagram(Address src, std::shared_ptr<const Bytes> datagram);

  [[nodiscard]] Group* find_group(GroupId gid);
  Group& group(GroupId gid);
  void deliver_app_upcall(Group& g, UpEvent& ev);

 private:
  // Stack::schedule enters its timers' tasks through post_to.
  friend class Stack;

  /// Null if the endpoint crashed, or the group is unknown or destroyed.
  [[nodiscard]] Group* live_group(GroupId gid);
  Group& ensure_group(GroupId gid, Stack& on);
  /// The one way into a group task (Section 3: the group object is the
  /// monitor every event enters): post a task keyed by `gid`, run in
  /// horus-race's frame for `gid` and `origin`, that builds the group on
  /// `create_on` if one is given. On a crashed endpoint, an unknown or
  /// destroyed group, or a retired epoch the task does nothing. Otherwise
  /// `act(Group&)` runs on the current epoch or, when `epoch(Group&)` picks
  /// the epoch the task belongs to (a timer's stack, a datagram's stamp),
  /// `act(Group&, Stack&)` runs on that epoch's stack. Either way the task
  /// runs in a shadow scope for its epoch, so it may drain it.
  template <class F, class Pick = std::nullptr_t>
  void post_to(GroupId gid, race::Origin origin, F act, Pick epoch = nullptr,
               Stack* create_on = nullptr);
  void downcall(GroupId gid, DownEvent ev);
  /// Build a reconfiguration stack epoch (owned by the endpoint; epoch
  /// stacks stay allocated until endpoint destruction because timers and
  /// shadow records hold raw pointers). Returns nullptr on factory failure.
  Stack* build_epoch_stack(const std::string& spec, std::uint32_t epoch);
  props::TransitionCheck check_transition_for(Group& g,
                                              const std::string& new_spec);
  void local_switch(Group& g, const std::string& spec);

  Address addr_;
  std::unique_ptr<runtime::Executor> exec_;
  Transport* transport_;
  sim::Scheduler* sched_;
  props::PropertySet net_props_ = 0;
  std::unique_ptr<Stack> stack_;
  std::vector<std::unique_ptr<Stack>> extra_stacks_;
  // Stacks built by live reconfiguration; only tasks touch it, and they
  // all run on the executor's one thread.
  std::vector<std::unique_ptr<Stack>> epoch_stacks_;
  LayerFactory layer_factory_;
  std::unordered_map<GroupId, std::unique_ptr<Group>> groups_;
  UpcallHandler handler_;
  bool crashed_ = false;
};

template <class F, class Pick>
void Endpoint::post_to(GroupId gid, [[maybe_unused]] race::Origin origin,
                       F act, Pick epoch, Stack* create_on) {
  exec_->post(gid.id, [this, gid, create_on, act = std::move(act),
                       epoch = std::move(epoch)
#ifdef HORUS_CHECK_RACES
                       , origin
#endif
  ]() mutable {
    // Every probe the task trips compares against this frame.
    HORUS_RACE_GROUP_FRAME(race_frame, exec_.get(), gid.id, origin);
    if (create_on != nullptr) ensure_group(gid, *create_on);
    Group* g = live_group(gid);
    if (g == nullptr) return;
    // The task may touch the state of the epoch it runs on even once that
    // epoch drains, which a switch the task commits itself can start.
    if constexpr (std::is_null_pointer_v<Pick>) {
      HORUS_RACE_SHADOW_SCOPE(race_shadow, &g->stack());
      act(*g);
    } else {
      Group::Epoch* e = epoch(*g);
      if (e == nullptr) return;
      HORUS_RACE_SHADOW_SCOPE(race_shadow, e->stack);
      act(*g, *e->stack);
    }
  });
}

}  // namespace horus
