#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>

// Exported deliberately: declaring a PALB_GUARDED_BY member is part of
// using Mutex, so this header is the one-stop include for annotated
// synchronization.
#include "util/annotations.hpp"  // IWYU pragma: export

namespace palb {

/// std::mutex with Thread Safety Analysis capability annotations: the
/// compiler (clang, -Wthread-safety) proves that every PALB_GUARDED_BY
/// member is only touched while this mutex is held, and that
/// PALB_REQUIRES / PALB_EXCLUDES contracts hold at every call site.
/// Same size and cost as std::mutex; the annotations vanish off clang.
///
/// Prefer MutexLock for scoped holds; raw lock()/unlock() exist for the
/// compile-fail suite and for adapters, and the analysis checks their
/// balance (a function that locks and forgets to unlock fails to
/// compile under the thread-safety preset).
class PALB_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() PALB_ACQUIRE() { mu_.lock(); }
  void unlock() PALB_RELEASE() { mu_.unlock(); }
  bool try_lock() PALB_TRY_ACQUIRE(true) { return mu_.try_lock(); }

  /// Tells the analysis (not the runtime) that this mutex is held —
  /// for callbacks invoked under a lock the analysis cannot follow.
  void assert_held() const PALB_ASSERT_CAPABILITY(this) {}

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// RAII scoped hold of a Mutex; the analysis knows the capability is
/// held exactly for this object's lifetime (clang's SCOPED_CAPABILITY).
class PALB_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) PALB_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() PALB_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// RAII release of a Mutex the caller already holds — typically after a
/// successful try_lock() — so it is unlocked on every exit from the
/// scope, exceptions included. The analysis requires the capability on
/// construction and treats it as released when this object dies.
class PALB_SCOPED_CAPABILITY AdoptedLock {
 public:
  explicit AdoptedLock(Mutex& mu) PALB_REQUIRES(mu) : mu_(mu) {}
  ~AdoptedLock() PALB_RELEASE() { mu_.unlock(); }

  AdoptedLock(const AdoptedLock&) = delete;
  AdoptedLock& operator=(const AdoptedLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable paired with Mutex. wait() REQUIRES the mutex —
/// calling it unlocked is a compile error under the thread-safety
/// preset — and returns with it held again, so the canonical loop
///
///   MutexLock lock(mutex_);
///   while (!ready_) cv_.wait(mutex_);   // ready_ GUARDED_BY(mutex_)
///
/// is fully analyzed: the predicate read happens in the caller, where
/// the analysis can see the lock (a predicate-lambda overload would be
/// analyzed as an unannotated function and defeat the check).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu`, sleeps, and re-acquires before
  /// returning. Spurious wakeups possible — always wait in a loop.
  void wait(Mutex& mu) PALB_REQUIRES(mu) { wait_impl(mu); }

  /// wait() with a relative timeout. Returns false when the timeout
  /// elapsed without a notification, true otherwise; either way the
  /// mutex is held again on return. Spurious wakeups possible — re-check
  /// the predicate *and* the clock in a loop (the AsyncPlanner watchdog
  /// is the canonical caller).
  bool wait_for(Mutex& mu, double seconds) PALB_REQUIRES(mu) {
    return wait_for_impl(mu, seconds);
  }

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  /// The unlock/relock protocol lives inside std::condition_variable,
  /// which the analysis cannot see; the adopt/release dance keeps the
  /// caller's ownership intact, and the REQUIRES contract on wait()
  /// still machine-checks every call site.
  void wait_impl(Mutex& mu) PALB_NO_THREAD_SAFETY_ANALYSIS {
    std::unique_lock<std::mutex> relock(mu.mu_, std::adopt_lock);
    cv_.wait(relock);
    relock.release();
  }

  bool wait_for_impl(Mutex& mu,
                     double seconds) PALB_NO_THREAD_SAFETY_ANALYSIS {
    std::unique_lock<std::mutex> relock(mu.mu_, std::adopt_lock);
    const std::cv_status status =
        cv_.wait_for(relock, std::chrono::duration<double>(seconds));
    relock.release();
    return status == std::cv_status::no_timeout;
  }

  std::condition_variable cv_;
};

}  // namespace palb
