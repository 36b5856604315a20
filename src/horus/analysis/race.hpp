// horus-race: dynamic group-ownership checking for the group-execution
// model.
//
// A node runs every group task on one owner thread, and every task enters
// through Endpoint::post_to (docs/runtime.md). That rules out data races
// between tasks, but not the logical ones the paper's monitor discipline
// forbids: a group's protocol state (the Group object, its view, its epoch
// table, its per-layer state slots) belongs to that group's tasks alone.
// A layer that stashes a pointer to another group's state, or arms a timer
// with the wrong group key, runs on the right thread and breaks the
// discipline silently. horus-race makes the boundary machine-checked:
//
//  * Endpoint::post_to opens a *group frame* inside each task it posts,
//    naming the task's group and origin (downcall, datagram, timer,
//    reconfig);
//  * Group / Stack / layer-state accessors carry cheap OwnershipGuard
//    probes comparing the active frame with the state's owner token;
//  * draining shadow epochs are legal only inside a ShadowScope, which the
//    runtime opens on the sanctioned paths (each task for the epoch it
//    runs on, and the export_state/import_state transfer); a retained
//    pointer into a superseded epoch used anywhere else is a stale-epoch
//    violation even from the owning group's own task.
//
// Accesses from outside any frame (the application or driver thread) are
// not ownership-checked: which thread touches what is TSan's job.
//
// Violations are recorded, never thrown: atomic counters plus a capped
// structured report log (owning group, accessing group, origin, a captured
// stack trace) -- the same reporting shape as the HCPI ContractMonitor.
// Everything is compiled in under -DHORUS_CHECK_RACES (defaulted on in
// Debug builds); without the flag every probe macro expands to nothing and
// the hot path is byte-identical to an uninstrumented build.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace horus::race {

/// Where the running task came from. Reports name the accessor's origin so
/// "a timer of group 9 wrote group 7's state" reads directly.
enum class Origin : std::uint8_t {
  kNone = 0,   ///< no frame: application or driver thread
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
};

[[nodiscard]] const char* to_string(Kind k);

/// One recorded violation. `owner_gid` is the group whose state was
/// touched; `accessor_gid` is the active frame's group (or kNoAccessorGroup
/// when the access came from outside any frame).
struct Report {
  Kind kind = Kind::kCrossGroup;
  std::uint64_t owner_gid = 0;
  std::uint64_t accessor_gid = kNoAccessorGroup;
  Origin accessor_origin = Origin::kNone;
  std::string what;                 ///< probe site, e.g. "Group::view"
  std::vector<std::string> trace;   ///< symbolized frames at the access

  static constexpr std::uint64_t kNoAccessorGroup = ~0ULL;
  [[nodiscard]] std::string to_string() const;
};

struct CounterSnapshot {
  std::uint64_t cross_group = 0;
  std::uint64_t wrong_group_timer = 0;
  std::uint64_t stale_epoch = 0;
  [[nodiscard]] std::uint64_t total() const {
    return cross_group + wrong_group_timer + stale_epoch;
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
/// Drop all violation state; tests call this between scenarios.
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
};

/// The running task's frame: group `gid` of executor `exec`, entered from
/// `origin`. Endpoint::post_to opens one at the top of every task; the
/// previous frame comes back when it closes.
class GroupFrame {
 public:
  GroupFrame(const void* exec, std::uint64_t gid, Origin origin);
  ~GroupFrame();
  GroupFrame(const GroupFrame&) = delete;
  GroupFrame& operator=(const GroupFrame&) = delete;

 private:
  std::uint64_t prev_owner_;
  std::uint64_t prev_gid_;
  Origin prev_origin_;
};

/// Marks the sanctioned ways into a draining shadow epoch's state: a task
/// on the epoch it runs on (stamp-routed straggler delivery, shadow timer
/// ticks, the rest of a task whose own switch starts the drain) and the
/// export/import transfer.
class ShadowScope {
 public:
  explicit ShadowScope(const void* stack);
  ~ShadowScope();
  ShadowScope(const ShadowScope&) = delete;
  ShadowScope& operator=(const ShadowScope&) = delete;

 private:
  const void* prev_;
};

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
#define HORUS_RACE_GROUP_FRAME(name, exec, gid, origin) \
  ::horus::race::GroupFrame name((exec), (gid), (origin))
#define HORUS_RACE_SHADOW_SCOPE(name, stack) \
  ::horus::race::ShadowScope name(stack)
#else
#define HORUS_RACE_PROBE_GROUP(owner, gid, what) ((void)0)
#define HORUS_RACE_PROBE_STATE(owner, gid, stack, draining, what) ((void)0)
#define HORUS_RACE_PROBE_TIMER(owner, gid, what) ((void)0)
#define HORUS_RACE_GROUP_FRAME(name, exec, gid, origin) ((void)0)
#define HORUS_RACE_SHADOW_SCOPE(name, stack) ((void)0)
#endif
