// Clang thread-safety analysis shim (-Wthread-safety), plus annotated
// mutex wrappers the core locks use so the analysis has capability types
// to reason about (std::mutex carries no annotations on libstdc++).
//
// Under GCC, or Clang without the analysis, every macro expands to nothing
// and the wrapper is exactly std::mutex with an inlined forwarding layer --
// zero runtime difference.
//
// Usage mirrors the Clang documentation:
//
//   util::Mutex mu_;
//   int guarded_ GUARDED_BY(mu_);
//   void step() { util::MutexLock lock(mu_); ++guarded_; }
//   void step_locked() REQUIRES(mu_);
//
// The CI job "thread-safety" builds with clang++ -Wthread-safety -Werror,
// so an unguarded access to an annotated field is a build break there.
#pragma once

#include <mutex>

#if defined(__clang__) && (!defined(SWIG))
#define HORUS_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define HORUS_THREAD_ANNOTATION(x)  // no-op outside Clang
#endif

#define CAPABILITY(x) HORUS_THREAD_ANNOTATION(capability(x))
#define SCOPED_CAPABILITY HORUS_THREAD_ANNOTATION(scoped_lockable)
#define GUARDED_BY(x) HORUS_THREAD_ANNOTATION(guarded_by(x))
#define PT_GUARDED_BY(x) HORUS_THREAD_ANNOTATION(pt_guarded_by(x))
#define ACQUIRED_BEFORE(...) \
  HORUS_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define ACQUIRED_AFTER(...) \
  HORUS_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))
#define REQUIRES(...) \
  HORUS_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define REQUIRES_SHARED(...) \
  HORUS_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))
#define ACQUIRE(...) HORUS_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define ACQUIRE_SHARED(...) \
  HORUS_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))
#define RELEASE(...) HORUS_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define RELEASE_SHARED(...) \
  HORUS_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))
#define RELEASE_GENERIC(...) \
  HORUS_THREAD_ANNOTATION(release_generic_capability(__VA_ARGS__))
#define TRY_ACQUIRE(...) \
  HORUS_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define EXCLUDES(...) HORUS_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
#define ASSERT_CAPABILITY(x) HORUS_THREAD_ANNOTATION(assert_capability(x))
#define RETURN_CAPABILITY(x) HORUS_THREAD_ANNOTATION(lock_returned(x))
#define NO_THREAD_SAFETY_ANALYSIS \
  HORUS_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace horus::util {

/// std::mutex with a capability type the analysis can track. native()
/// exposes the underlying mutex for condition_variable::wait -- waits
/// temporarily release the lock in a way the analysis cannot follow, so
/// such code documents itself with the native handle.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ACQUIRE() { mu_.lock(); }
  void unlock() RELEASE() { mu_.unlock(); }
  bool try_lock() TRY_ACQUIRE(true) { return mu_.try_lock(); }
  [[nodiscard]] std::mutex& native() { return mu_; }

 private:
  std::mutex mu_;
};

/// RAII exclusive lock over Mutex (std::lock_guard with annotations).
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() RELEASE() { mu_.unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

}  // namespace horus::util
