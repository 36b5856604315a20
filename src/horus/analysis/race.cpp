#include "horus/analysis/race.hpp"

#include <array>
#include <atomic>
#include <mutex>
#include <sstream>
#include <utility>

#if defined(__has_include)
#if __has_include(<execinfo.h>)
#include <execinfo.h>
#include <cstdlib>
#define HORUS_RACE_HAVE_BACKTRACE 1
#endif
#endif

namespace horus::race {
namespace {

/// The calling thread's running task. owner == 0 means no task is running
/// here (the application or driver thread): nothing to compare against.
thread_local std::uint64_t t_owner = 0;
thread_local std::uint64_t t_gid = 0;
thread_local Origin t_origin = Origin::kNone;
/// The stack whose draining state the innermost ShadowScope sanctions.
thread_local const void* t_shadow = nullptr;

struct Detector {
  std::atomic<std::uint64_t> cross_group{0};
  std::atomic<std::uint64_t> wrong_group_timer{0};
  std::atomic<std::uint64_t> stale_epoch{0};
  std::mutex report_mu;
  std::vector<Report> log;
};

Detector& det() {
  static Detector* d = new Detector;
  return *d;
}

struct HookSlot {
  std::mutex mu;
  ViolationHook fn;
};

HookSlot& hook_slot() {
  static HookSlot* h = new HookSlot;
  return *h;
}

std::vector<std::string> capture_trace() {
  std::vector<std::string> out;
#ifdef HORUS_RACE_HAVE_BACKTRACE
  std::array<void*, 32> frames{};
  int n = ::backtrace(frames.data(), static_cast<int>(frames.size()));
  char** syms = ::backtrace_symbols(frames.data(), n);
  if (syms != nullptr) {
    out.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) out.emplace_back(syms[i]);
    std::free(syms);
  }
#endif
  return out;
}

std::atomic<std::uint64_t>& counter_for(Detector& d, Kind k) {
  switch (k) {
    case Kind::kCrossGroup: return d.cross_group;
    case Kind::kWrongGroupTimer: return d.wrong_group_timer;
    case Kind::kStaleEpoch: return d.stale_epoch;
  }
  return d.cross_group;
}

void record_violation(Kind kind, std::uint64_t owner_gid, const char* what) {
  Detector& d = det();
  counter_for(d, kind).fetch_add(1, std::memory_order_relaxed);
  Report r;
  r.kind = kind;
  r.owner_gid = owner_gid;
  r.accessor_gid = t_owner != 0 ? t_gid : Report::kNoAccessorGroup;
  r.accessor_origin = t_origin;
  r.what = what;
  r.trace = capture_trace();
  {
    std::lock_guard lock(d.report_mu);
    if (d.log.size() >= kMaxReports) return;  // counters keep exact totals
    d.log.push_back(r);
  }
  // Notify outside the report lock. A hook that itself trips a probe must
  // not re-enter (the violation is still counted above).
  thread_local bool in_hook = false;
  if (in_hook) return;
  ViolationHook hook;
  {
    HookSlot& h = hook_slot();
    std::lock_guard lock(h.mu);
    hook = h.fn;
  }
  if (hook) {
    in_hook = true;
    hook(r);
    in_hook = false;
  }
}

/// In a task, the state's owner must be the task's own group.
void check_ownership(std::uint64_t owner, std::uint64_t gid,
                     const char* what) {
  if (t_owner != 0 && t_owner != owner) {
    record_violation(Kind::kCrossGroup, gid, what);
  }
}

}  // namespace

const char* to_string(Origin o) {
  switch (o) {
    case Origin::kNone: return "app/driver thread";
    case Origin::kDowncall: return "downcall";
    case Origin::kDatagram: return "datagram";
    case Origin::kTimer: return "timer";
    case Origin::kReconfig: return "reconfig";
  }
  return "?";
}

const char* to_string(Kind k) {
  switch (k) {
    case Kind::kCrossGroup: return "cross-group access";
    case Kind::kWrongGroupTimer: return "timer armed for wrong group";
    case Kind::kStaleEpoch: return "stale-epoch state access";
  }
  return "?";
}

std::string Report::to_string() const {
  std::ostringstream os;
  os << "horus-race: " << race::to_string(kind) << " at " << what << "\n";
  os << "  owning group: " << owner_gid << "\n  accessed from: ";
  if (accessor_gid == kNoAccessorGroup) {
    os << "outside any group task";
  } else {
    os << "task of group " << accessor_gid;
  }
  os << " (" << race::to_string(accessor_origin) << ")\n";
  if (!trace.empty()) {
    os << "  stack:\n";
    for (const std::string& fr : trace) os << "    " << fr << "\n";
  }
  return os.str();
}

bool enabled() {
#ifdef HORUS_CHECK_RACES
  return true;
#else
  return false;
#endif
}

CounterSnapshot counters() {
  Detector& d = det();
  CounterSnapshot s;
  s.cross_group = d.cross_group.load(std::memory_order_relaxed);
  s.wrong_group_timer = d.wrong_group_timer.load(std::memory_order_relaxed);
  s.stale_epoch = d.stale_epoch.load(std::memory_order_relaxed);
  return s;
}

std::uint64_t total_violations() { return counters().total(); }

std::vector<Report> reports() {
  Detector& d = det();
  std::lock_guard lock(d.report_mu);
  return d.log;
}

std::string summary() {
  CounterSnapshot s = counters();
  std::ostringstream os;
  os << "horus-race: " << s.total() << " violation(s)"
     << " (cross-group " << s.cross_group << ", wrong-group timer "
     << s.wrong_group_timer << ", stale-epoch " << s.stale_epoch << ")\n";
  for (const Report& r : reports()) os << r.to_string();
  return os.str();
}

void reset() {
  Detector& d = det();
  d.cross_group.store(0, std::memory_order_relaxed);
  d.wrong_group_timer.store(0, std::memory_order_relaxed);
  d.stale_epoch.store(0, std::memory_order_relaxed);
  std::lock_guard lock(d.report_mu);
  d.log.clear();
}

void set_violation_hook(ViolationHook hook) {
  HookSlot& h = hook_slot();
  std::lock_guard lock(h.mu);
  h.fn = std::move(hook);
}

std::uint64_t owner_key(const void* exec, std::uint64_t key) {
  // SplitMix64 over the executor identity, folded with the group key: two
  // endpoints number their groups from the same small id space, so the raw
  // key alone must not alias across executors. Never returns 0 (0 = "no
  // registered owner, skip checks").
  auto x = static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(exec));
  x ^= key + 0x9e3779b97f4a7c15ULL + (x << 6) + (x >> 2);
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x | 1;
}

void OwnershipGuard::group(std::uint64_t owner, std::uint64_t gid,
                           const char* what) {
  if (owner == 0) return;  // bare Group outside any endpoint: unchecked
  check_ownership(owner, gid, what);
}

void OwnershipGuard::epoch_state(std::uint64_t owner, std::uint64_t gid,
                                 const void* stack, bool draining,
                                 const char* what) {
  if (owner == 0) return;
  if (draining && t_shadow != stack) {
    // A superseded epoch's state outside the sanctioned drain paths --
    // even the owning group's own task must not hold on to it.
    record_violation(Kind::kStaleEpoch, gid, what);
    return;
  }
  check_ownership(owner, gid, what);
}

void OwnershipGuard::timer(std::uint64_t timer_owner, std::uint64_t timer_gid,
                           const char* what) {
  // Application and driver threads arm timers freely (join-time protocol
  // setup); inside a group task the armed key must be the task's own group.
  if (t_owner != 0 && t_owner != timer_owner) {
    record_violation(Kind::kWrongGroupTimer, timer_gid, what);
  }
}

GroupFrame::GroupFrame(const void* exec, std::uint64_t gid, Origin origin)
    : prev_owner_(t_owner), prev_gid_(t_gid), prev_origin_(t_origin) {
  t_owner = owner_key(exec, gid);
  t_gid = gid;
  t_origin = origin;
}

GroupFrame::~GroupFrame() {
  t_owner = prev_owner_;
  t_gid = prev_gid_;
  t_origin = prev_origin_;
}

ShadowScope::ShadowScope(const void* stack) : prev_(t_shadow) {
  t_shadow = stack;
}

ShadowScope::~ShadowScope() { t_shadow = prev_; }

}  // namespace horus::race
