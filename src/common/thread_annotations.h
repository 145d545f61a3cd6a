#ifndef MMM_COMMON_THREAD_ANNOTATIONS_H_
#define MMM_COMMON_THREAD_ANNOTATIONS_H_

#include <condition_variable>
#include <mutex>
#include <shared_mutex>

/// \file
/// Clang Thread Safety Analysis support.
///
/// Every locking contract in the library is declared with these macros and
/// checked at compile time by clang's `-Wthread-safety` (the CI clang job
/// builds with `-Wthread-safety -Werror`). Under other compilers the macros
/// expand to nothing, so the annotations cost nothing outside analysis.
///
/// The standard library's mutex types are not annotated, so concurrent code
/// uses the thin wrappers below (`Mutex`, `SharedMutex`, `CondVar`) together
/// with the RAII guards (`MutexLock`, `ReaderMutexLock`, `WriterMutexLock`)
/// instead of `std::mutex` / `std::lock_guard`. mmmsa's `raw-std-mutex`
/// rule enforces that no other file declares a raw standard mutex member.
///
/// Conventions (see DESIGN.md §6):
///  - every field a mutex protects carries `MMM_GUARDED_BY(mu_)`;
///  - private helpers called with the lock held are `MMM_REQUIRES(mu_)`;
///  - public methods that take a lock internally are `MMM_EXCLUDES(mu_)`
///    where self-deadlock is a real hazard.

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(guarded_by)
#define MMM_THREAD_ANNOTATION__(x) __attribute__((x))
#endif
#endif
#ifndef MMM_THREAD_ANNOTATION__
#define MMM_THREAD_ANNOTATION__(x)  // not clang: annotations are no-ops
#endif

#define MMM_CAPABILITY(x) MMM_THREAD_ANNOTATION__(capability(x))
#define MMM_SCOPED_CAPABILITY MMM_THREAD_ANNOTATION__(scoped_lockable)
#define MMM_GUARDED_BY(x) MMM_THREAD_ANNOTATION__(guarded_by(x))
#define MMM_PT_GUARDED_BY(x) MMM_THREAD_ANNOTATION__(pt_guarded_by(x))
#define MMM_ACQUIRED_BEFORE(...) \
  MMM_THREAD_ANNOTATION__(acquired_before(__VA_ARGS__))
#define MMM_ACQUIRED_AFTER(...) \
  MMM_THREAD_ANNOTATION__(acquired_after(__VA_ARGS__))
#define MMM_REQUIRES(...) \
  MMM_THREAD_ANNOTATION__(requires_capability(__VA_ARGS__))
#define MMM_REQUIRES_SHARED(...) \
  MMM_THREAD_ANNOTATION__(requires_shared_capability(__VA_ARGS__))
#define MMM_ACQUIRE(...) \
  MMM_THREAD_ANNOTATION__(acquire_capability(__VA_ARGS__))
#define MMM_ACQUIRE_SHARED(...) \
  MMM_THREAD_ANNOTATION__(acquire_shared_capability(__VA_ARGS__))
#define MMM_RELEASE(...) \
  MMM_THREAD_ANNOTATION__(release_capability(__VA_ARGS__))
#define MMM_RELEASE_SHARED(...) \
  MMM_THREAD_ANNOTATION__(release_shared_capability(__VA_ARGS__))
#define MMM_RELEASE_GENERIC(...) \
  MMM_THREAD_ANNOTATION__(release_generic_capability(__VA_ARGS__))
#define MMM_TRY_ACQUIRE(...) \
  MMM_THREAD_ANNOTATION__(try_acquire_capability(__VA_ARGS__))
#define MMM_EXCLUDES(...) MMM_THREAD_ANNOTATION__(locks_excluded(__VA_ARGS__))
#define MMM_ASSERT_CAPABILITY(x) \
  MMM_THREAD_ANNOTATION__(assert_capability(x))
#define MMM_RETURN_CAPABILITY(x) MMM_THREAD_ANNOTATION__(lock_returned(x))
#define MMM_NO_THREAD_SAFETY_ANALYSIS \
  MMM_THREAD_ANNOTATION__(no_thread_safety_analysis)

/// Lock-rank declaration, consumed by tools/mmmsa rather than the compiler
/// (it expands to nothing everywhere). Ranks impose one global acquisition
/// order: a thread may only acquire a lock whose rank is strictly greater
/// than the rank of every lock it already holds, so any two locks ever held
/// together nest outer-lower/inner-higher and cross-subsystem deadlock
/// cycles are impossible by construction. Every Mutex/SharedMutex under
/// src/ must carry a rank (mmmsa's lock-rank-missing check enforces this);
/// the full table lives in DESIGN.md §6.2. Leave gaps between values so a
/// new lock can slot between existing ones without renumbering the world.
#define MMM_LOCK_RANK(n)

namespace mmm {

/// \brief Annotated exclusive mutex (wraps std::mutex).
class MMM_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() MMM_ACQUIRE() { mu_.lock(); }
  void Unlock() MMM_RELEASE() { mu_.unlock(); }
  bool TryLock() MMM_TRY_ACQUIRE(true) { return mu_.try_lock(); }

  /// Documents (to the analysis) that the caller holds this mutex through
  /// some path the analysis cannot follow. No runtime effect.
  void AssertHeld() const MMM_ASSERT_CAPABILITY(this) {}

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// \brief Annotated reader/writer mutex (wraps std::shared_mutex).
class MMM_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() MMM_ACQUIRE() { mu_.lock(); }
  void Unlock() MMM_RELEASE() { mu_.unlock(); }
  void LockShared() MMM_ACQUIRE_SHARED() { mu_.lock_shared(); }
  void UnlockShared() MMM_RELEASE_SHARED() { mu_.unlock_shared(); }

 private:
  std::shared_mutex mu_;
};

/// \brief RAII exclusive lock over a Mutex.
class MMM_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) MMM_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() MMM_RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// \brief RAII shared (reader) lock over a SharedMutex.
class MMM_SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(SharedMutex& mu) MMM_ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_.LockShared();
  }
  ~ReaderMutexLock() MMM_RELEASE_GENERIC() { mu_.UnlockShared(); }

  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;

 private:
  SharedMutex& mu_;
};

/// \brief RAII exclusive (writer) lock over a SharedMutex.
class MMM_SCOPED_CAPABILITY WriterMutexLock {
 public:
  explicit WriterMutexLock(SharedMutex& mu) MMM_ACQUIRE(mu) : mu_(mu) {
    mu_.Lock();
  }
  ~WriterMutexLock() MMM_RELEASE() { mu_.Unlock(); }

  WriterMutexLock(const WriterMutexLock&) = delete;
  WriterMutexLock& operator=(const WriterMutexLock&) = delete;

 private:
  SharedMutex& mu_;
};

/// \brief Condition variable paired with mmm::Mutex (LevelDB port::CondVar
/// idiom). Wait() must be called with `mu` held; it releases the mutex while
/// blocked and reacquires it before returning, which the annotation
/// `MMM_REQUIRES(mu)` makes checkable: the capability is held on both sides
/// of the call from the analysis' point of view.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Always re-check the waited-for condition in a `while` loop around
  /// Wait(): wakeups are spurious by contract.
  void Wait(Mutex& mu) MMM_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();  // the caller's scope still owns the mutex
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace mmm

#endif  // MMM_COMMON_THREAD_ANNOTATIONS_H_
