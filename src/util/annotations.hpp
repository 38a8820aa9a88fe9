// Clang Thread Safety Analysis support: annotation macros plus
// capability-annotated synchronisation wrappers.
//
// Every lock-guarded structure in ranm (util/thread_pool, the serving
// layer's snapshot and swap mailbox) declares *which* mutex guards
// *which* data with the macros below.
// Under clang the declarations become -Wthread-safety diagnostics — an
// access to a GUARDED_BY field without its mutex held is a build error
// (CI runs a clang job with -Wthread-safety -Werror), not a TSan lottery
// ticket that only fires if a data race happens to interleave during a
// sanitizer run. Under gcc (the container's default toolchain) the macros
// expand to nothing and the wrappers are zero-cost pass-throughs over
// std::mutex / std::condition_variable, so behaviour is identical.
//
// The wrappers exist because libstdc++'s std::mutex carries no capability
// annotations: the analysis can only reason about types that declare
// themselves capabilities (Hutchins et al., "C/C++ Thread Safety
// Analysis"). Rules of use:
//
//   - Guard data, not code: each shared field gets RANM_GUARDED_BY(mu_).
//   - Lock with MutexLock (scoped); the analysis tracks its lifetime.
//   - Condition waits spell their predicate as a while-loop in the
//     waiting function (`while (!ready_) cv_.wait(lock);`) instead of a
//     lambda predicate — the analysis does not propagate the held
//     capability into closures, and the loop form keeps every guarded
//     access inside the annotated scope.
#pragma once

#include <condition_variable>
#include <mutex>

// The attributes need clang; __has_attribute keeps ancient clangs and
// clang-derived compilers without TSA honest.
#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define RANM_TSA(x) __attribute__((x))
#endif
#endif
#ifndef RANM_TSA
#define RANM_TSA(x)  // not clang: annotations compile away
#endif

#define RANM_CAPABILITY(x) RANM_TSA(capability(x))
#define RANM_SCOPED_CAPABILITY RANM_TSA(scoped_lockable)
/// Field is protected by the given mutex: every read/write needs it held.
#define RANM_GUARDED_BY(x) RANM_TSA(guarded_by(x))
/// Pointee (not the pointer) is protected by the given mutex.
#define RANM_PT_GUARDED_BY(x) RANM_TSA(pt_guarded_by(x))
/// Function requires the capability held on entry (caller locks).
#define RANM_REQUIRES(...) RANM_TSA(requires_capability(__VA_ARGS__))
/// Function must NOT hold the capability on entry (it locks internally);
/// turns self-deadlock into a compile error.
#define RANM_EXCLUDES(...) RANM_TSA(locks_excluded(__VA_ARGS__))
#define RANM_ACQUIRE(...) RANM_TSA(acquire_capability(__VA_ARGS__))
#define RANM_RELEASE(...) RANM_TSA(release_capability(__VA_ARGS__))
#define RANM_RETURN_CAPABILITY(x) RANM_TSA(lock_returned(x))
/// Escape hatch for code the analysis cannot model; every use carries a
/// comment saying why it is sound.
#define RANM_NO_THREAD_SAFETY_ANALYSIS RANM_TSA(no_thread_safety_analysis)

namespace ranm {

class CondVar;

/// std::mutex wearing the `capability` attribute so the analysis can name
/// it in GUARDED_BY/REQUIRES clauses. Same size, same semantics.
class RANM_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() RANM_ACQUIRE() { mu_.lock(); }
  void unlock() RANM_RELEASE() { mu_.unlock(); }

 private:
  friend class CondVar;
  friend class MutexLock;
  std::mutex mu_;
};

/// Scoped lock over Mutex (the annotated std::unique_lock shape: CondVar
/// waits need an unlockable guard, so this wraps unique_lock rather than
/// lock_guard). Acquires in the constructor, releases in the destructor,
/// and tells the analysis so.
class RANM_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) RANM_ACQUIRE(mu) : lock_(mu.mu_) {}
  ~MutexLock() RANM_RELEASE() {}

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  friend class CondVar;
  std::unique_lock<std::mutex> lock_;
};

/// Condition variable taking MutexLock. wait() atomically releases and
/// reacquires the lock; from the analysis' point of view the capability
/// is held across the call, which is exactly the guarantee the caller
/// observes on both sides of it. Predicates are spelled as while-loops at
/// the call site (see the header comment).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void wait(MutexLock& lock) { cv_.wait(lock.lock_); }
  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace ranm
