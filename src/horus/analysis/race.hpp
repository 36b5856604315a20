// horus-race: dynamic ownership / happens-before checking for the
// group-execution model.
//
// The group-execution model stays lock-free inside layers only because of the
// discipline documented in docs/runtime.md: a group's protocol state (the
// Group object, its view, its epoch table, its per-layer state slots) is
// touched exclusively by tasks serialized on that group's executor key.
// Nothing in a plain build *verifies* that discipline -- a layer that
// stashes a pointer to another group's state, or arms a timer with the
// wrong group key, races silently and only TSan on a lucky interleaving
// would notice. horus-race makes the boundary machine-checked:
//
//  * every executor task runs inside a thread_local *group frame* naming
//    the group it was posted under and the origin of the post (downcall,
//    datagram, timer, reconfig);
//  * Group / Stack / layer-state accessors carry cheap OwnershipGuard
//    probes asserting the active frame owns the state's group;
//  * code running outside any frame (the application thread, the
//    simulation driver) is checked with vector clocks: Executor::post,
//    Executor::drain and Scheduler timer fires publish happens-before
//    edges, so state initialized before a legal handoff -- or read after a
//    drain -- is recognized instead of flagged;
//  * draining shadow epochs are legal only inside a ShadowScope, which the
//    runtime opens on the sanctioned paths (stamp-routed straggler
//    delivery, shadow timer ticks, export_state/import_state transfer);
//    a retained pointer into a superseded epoch used anywhere else is a
//    stale-epoch violation even from the owning group's own task.
//
// Violations are recorded, never thrown: atomic counters plus a capped
// structured report log (owning group, accessing group, both origins, a
// captured stack trace) -- the same reporting shape as the HCPI
// ContractMonitor. Everything is compiled in under -DHORUS_CHECK_RACES
// (defaulted on in Debug builds); without the flag every probe macro
// expands to nothing and the hot path is byte-identical to an
// uninstrumented build.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace horus::race {

/// Where a task (or frameless access) came from. Reports name both sides'
/// origins so "a timer of group 9 wrote group 7's state" reads directly.
enum class Origin : std::uint8_t {
  kNone = 0,   ///< no frame: application or driver thread
  kPost,       ///< generic Executor::post
  kDowncall,   ///< application downcall descending the stack
  kDatagram,   ///< datagram delivery routed by the endpoint demux
  kTimer,      ///< Stack::schedule timer fire entering the group's task
  kReconfig,   ///< live-reconfiguration switch task
};

[[nodiscard]] const char* to_string(Origin o);

/// Violation classes; each seeded-misbehaviour test trips exactly one.
enum class Kind : std::uint8_t {
  kCrossGroup = 0,   ///< frame of group A touched group B's state
  kWrongGroupTimer,  ///< timer armed with a key != the arming frame's group
  kStaleEpoch,       ///< draining-epoch state touched outside a ShadowScope
  kUnsyncedWrite,    ///< plain (non-atomic) shared write without HB ordering
};

[[nodiscard]] const char* to_string(Kind k);

/// One recorded violation. `owner_gid` is the group whose state was
/// touched; `accessor_gid` is the active frame's group (or ~0 when the
/// access came from outside any frame).
struct Report {
  Kind kind = Kind::kCrossGroup;
  std::uint64_t owner_gid = 0;
  std::uint64_t accessor_gid = kNoAccessorGroup;
  Origin owner_origin = Origin::kNone;    ///< origin of the last legal toucher
  Origin accessor_origin = Origin::kNone;
  std::uint32_t owner_thread = 0;   ///< detector thread index of last toucher
  std::uint32_t accessor_thread = 0;
  std::string what;                 ///< probe site, e.g. "Group::view"
  std::vector<std::string> trace;   ///< symbolized frames at the access

  static constexpr std::uint64_t kNoAccessorGroup = ~0ULL;
  [[nodiscard]] std::string to_string() const;
};

struct CounterSnapshot {
  std::uint64_t cross_group = 0;
  std::uint64_t wrong_group_timer = 0;
  std::uint64_t stale_epoch = 0;
  std::uint64_t unsynced_write = 0;
  [[nodiscard]] std::uint64_t total() const {
    return cross_group + wrong_group_timer + stale_epoch + unsynced_write;
  }
};

/// Whether the detector was compiled in (-DHORUS_CHECK_RACES). The query
/// API below always links; with the flag off it reports zeros.
[[nodiscard]] bool enabled();

[[nodiscard]] CounterSnapshot counters();
[[nodiscard]] std::uint64_t total_violations();
/// Copies of the capped report log (at most kMaxReports; the counters keep
/// exact totals past the cap, like ContractMonitor's message log).
[[nodiscard]] std::vector<Report> reports();
/// Human-readable roll-up: counters plus every retained report.
[[nodiscard]] std::string summary();
/// Drop all violation state and ownership records (not the thread clocks);
/// tests call this between scenarios.
void reset();

/// Install a callback invoked for each *retained* violation report (at
/// most kMaxReports between resets; the counters alone advance past the
/// cap). horus-obs uses this to dump the flight recorder the moment a
/// violation is first observed, while the offending state is hot. The
/// hook runs on the violating thread with no detector locks held;
/// violations it trips itself are counted but not re-notified. Pass
/// nullptr (or {}) to uninstall. With the detector compiled out the hook
/// is stored but never fires.
using ViolationHook = std::function<void(const Report&)>;
void set_violation_hook(ViolationHook hook);

inline constexpr std::size_t kMaxReports = 32;

/// Ownership key: a group is owned by (executor identity, group key), not
/// the raw key alone -- every endpoint numbers its groups from the same
/// small id space, so two members of group 42 on different endpoints must
/// not alias.
[[nodiscard]] std::uint64_t owner_key(const void* exec, std::uint64_t key);

/// Wrap an executor task so it runs inside a group frame for `key` on
/// executor `exec`, carrying the poster's clock snapshot and pending
/// origin. Executors call this from post() under the flag.
[[nodiscard]] std::function<void()> wrap_task(const void* exec,
                                              std::uint64_t key,
                                              std::function<void()> t);

/// The probe surface. Free functions grouped under one name so call sites
/// read as what they are: ownership assertions, not bookkeeping.
struct OwnershipGuard {
  /// Group-level access (view, epoch table mutation, required-set).
  /// `owner` is the group's ownership token (0 = never registered: a bare
  /// Group built outside an endpoint, not checked). `gid` is the raw group
  /// id for reports.
  static void group(std::uint64_t owner, std::uint64_t gid, const char* what);
  /// Per-epoch layer-state access. Draining epochs additionally require an
  /// active ShadowScope for `stack`.
  static void epoch_state(std::uint64_t owner, std::uint64_t gid,
                          const void* stack, bool draining, const char* what);
  /// A timer being armed for `timer_key` while a frame for another group is
  /// active: flagged at the source, before it ever fires.
  static void timer(std::uint64_t timer_owner, std::uint64_t timer_gid,
                    const char* what);
  /// Plain (non-atomic) write to shared state at `addr`: flagged when the
  /// previous write came from another thread with no happens-before edge.
  static void plain_write(const void* addr, const char* what);
};

/// Marks the sanctioned ways into a draining shadow epoch's state: stamp-
/// routed straggler delivery, shadow timer ticks, export/import transfer.
/// Pass nullptr for a no-op scope (keeps call sites branch-free).
class ShadowScope {
 public:
  explicit ShadowScope(const void* stack);
  ~ShadowScope();
  ShadowScope(const ShadowScope&) = delete;
  ShadowScope& operator=(const ShadowScope&) = delete;

 private:
  const void* prev_;
};

/// Tags tasks posted while this scope is live with an origin richer than
/// the default kPost (the stack entry points use it: downcall, datagram,
/// timer, reconfig).
class ScopedOrigin {
 public:
  explicit ScopedOrigin(Origin o);
  ~ScopedOrigin();
  ScopedOrigin(const ScopedOrigin&) = delete;
  ScopedOrigin& operator=(const ScopedOrigin&) = delete;

 private:
  Origin prev_;
};

/// Vector-clock edges. capture() snapshots the calling thread's clock (and
/// advances it); acquire() joins a snapshot into the calling thread;
/// acquire_all() joins every registered thread's clock -- the edge
/// Executor::drain publishes so post-drain reads on the caller are ordered
/// after everything the workers did.
using ClockSnapshot = std::shared_ptr<const std::vector<std::uint64_t>>;
[[nodiscard]] ClockSnapshot capture();
void acquire(const ClockSnapshot& snap);
void acquire_all();

}  // namespace horus::race

// ---------------------------------------------------------------------------
// Probe macros: the only spelling instrumented code uses. With the flag off
// they expand to nothing, so the uninstrumented hot path pays zero cost --
// no branch, no load, no symbol reference.
// ---------------------------------------------------------------------------
#ifdef HORUS_CHECK_RACES
#define HORUS_RACE_PROBE_GROUP(owner, gid, what) \
  ::horus::race::OwnershipGuard::group((owner), (gid), (what))
#define HORUS_RACE_PROBE_STATE(owner, gid, stack, draining, what)       \
  ::horus::race::OwnershipGuard::epoch_state((owner), (gid), (stack), \
                                             (draining), (what))
#define HORUS_RACE_PROBE_TIMER(owner, gid, what) \
  ::horus::race::OwnershipGuard::timer((owner), (gid), (what))
#define HORUS_RACE_PROBE_PLAIN_WRITE(addr, what) \
  ::horus::race::OwnershipGuard::plain_write((addr), (what))
#define HORUS_RACE_SHADOW_SCOPE(name, stack) \
  ::horus::race::ShadowScope name(stack)
#define HORUS_RACE_ORIGIN_SCOPE(name, origin) \
  ::horus::race::ScopedOrigin name(::horus::race::Origin::origin)
#define HORUS_RACE_WRAP_TASK(exec, key, task) \
  ::horus::race::wrap_task((exec), (key), std::move(task))
#define HORUS_RACE_ACQUIRE_ALL() ::horus::race::acquire_all()
#else
#define HORUS_RACE_PROBE_GROUP(owner, gid, what) ((void)0)
#define HORUS_RACE_PROBE_STATE(owner, gid, stack, draining, what) ((void)0)
#define HORUS_RACE_PROBE_TIMER(owner, gid, what) ((void)0)
#define HORUS_RACE_PROBE_PLAIN_WRITE(addr, what) ((void)0)
#define HORUS_RACE_SHADOW_SCOPE(name, stack) ((void)0)
#define HORUS_RACE_ORIGIN_SCOPE(name, origin) ((void)0)
#define HORUS_RACE_WRAP_TASK(exec, key, task) (std::move(task))
#define HORUS_RACE_ACQUIRE_ALL() ((void)0)
#endif
