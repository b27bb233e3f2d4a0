#ifndef LIMEQO_COMMON_THREAD_ANNOTATIONS_H_
#define LIMEQO_COMMON_THREAD_ANNOTATIONS_H_

/// \file
/// Clang thread-safety (capability) annotations plus the annotated locking
/// primitives the concurrent core is written against.
///
/// The macros expand to Clang's `__attribute__((...))` capability
/// attributes when the compiler supports them and to nothing everywhere
/// else, so GCC builds see plain `std::mutex`-equivalent code while the
/// Clang CI lane (`-Wthread-safety -Werror=thread-safety`, the
/// `static-analysis` job) machine-checks the locking discipline: a
/// `GUARDED_BY` field touched without its mutex, a `REQUIRES` function
/// called lock-free, or a mutex acquired twice on one path fails the build
/// instead of waiting for ThreadSanitizer to catch the racing
/// interleaving at runtime.
///
/// What the analysis does and does not prove (see docs/ARCHITECTURE.md,
/// "Static analysis"): it proves every *annotated* field is only touched
/// under its capability, on every path, in every build — but it says
/// nothing about the atomic publication protocols (the Vyukov observation
/// queue, the snapshot version counter, the ledgers), which remain the
/// TSan jobs' and the determinism linter's responsibility. The two layers
/// are complementary, not redundant.

#include <condition_variable>
#include <mutex>

// Capability attributes are a Clang extension; `__has_attribute` keeps the
// header correct on Clang versions that predate a given attribute.
#if defined(__clang__) && defined(__has_attribute)
#define LIMEQO_THREAD_ANNOTATION_IMPL_(x) __attribute__((x))
#else
#define LIMEQO_THREAD_ANNOTATION_IMPL_(x)  // no-op off Clang
#endif

/// Declares a class to be a capability (a lockable resource).
#define CAPABILITY(x) LIMEQO_THREAD_ANNOTATION_IMPL_(capability(x))

/// Declares an RAII class whose lifetime holds a capability.
#define SCOPED_CAPABILITY LIMEQO_THREAD_ANNOTATION_IMPL_(scoped_lockable)

/// The annotated field may only be read or written while holding `x`.
#define GUARDED_BY(x) LIMEQO_THREAD_ANNOTATION_IMPL_(guarded_by(x))

/// The pointee of the annotated pointer is guarded by `x`.
#define PT_GUARDED_BY(x) LIMEQO_THREAD_ANNOTATION_IMPL_(pt_guarded_by(x))

/// The function may only be called while holding the listed capabilities.
#define REQUIRES(...) \
  LIMEQO_THREAD_ANNOTATION_IMPL_(requires_capability(__VA_ARGS__))

/// Shared (reader) form of REQUIRES.
#define REQUIRES_SHARED(...) \
  LIMEQO_THREAD_ANNOTATION_IMPL_(requires_shared_capability(__VA_ARGS__))

/// The function acquires the listed capabilities and does not release them.
#define ACQUIRE(...) \
  LIMEQO_THREAD_ANNOTATION_IMPL_(acquire_capability(__VA_ARGS__))

/// The function releases the listed capabilities.
#define RELEASE(...) \
  LIMEQO_THREAD_ANNOTATION_IMPL_(release_capability(__VA_ARGS__))

/// The function must be called while *not* holding the listed
/// capabilities (it acquires them internally). This is what turns a
/// re-entrant acquisition — e.g. calling a public locking entry point from
/// a context that already holds the lock — into a compile error instead of
/// a runtime deadlock.
#define EXCLUDES(...) LIMEQO_THREAD_ANNOTATION_IMPL_(locks_excluded(__VA_ARGS__))

/// The function returns true when it acquired the capability.
#define TRY_ACQUIRE(...) \
  LIMEQO_THREAD_ANNOTATION_IMPL_(try_acquire_capability(__VA_ARGS__))

/// The annotated function returns a reference to the named capability.
#define RETURN_CAPABILITY(x) LIMEQO_THREAD_ANNOTATION_IMPL_(lock_returned(x))

/// Escape hatch: the function body is not analyzed. Use only for code
/// whose safety argument lives outside the capability model, and say why
/// at the use site.
#define NO_THREAD_SAFETY_ANALYSIS \
  LIMEQO_THREAD_ANNOTATION_IMPL_(no_thread_safety_analysis)

namespace limeqo {

/// An annotated exclusive mutex: `std::mutex` carrying the `capability`
/// attribute so Clang's analysis can track who holds it. Off-Clang it is
/// exactly a `std::mutex` behind two inline calls.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  /// Acquires the mutex (annotated; prefer MutexLock for scoped use).
  void Lock() ACQUIRE() { raw_.lock(); }
  /// Acquires the mutex if it is free; returns whether it did.
  bool TryLock() TRY_ACQUIRE(true) { return raw_.try_lock(); }
  /// Releases the mutex.
  void Unlock() RELEASE() { raw_.unlock(); }

 private:
  friend class CondVar;
  std::mutex raw_;
};

/// RAII lock over an annotated Mutex — the `std::lock_guard` equivalent
/// the analysis understands: constructing one acquires the capability for
/// the enclosing scope, destruction releases it.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// A condition variable usable with the annotated Mutex. Wait requires the
/// caller to hold the mutex — the analysis enforces the classic
/// hold-check-wait loop shape:
///
///   MutexLock lock(mu_);
///   while (!predicate) cv_.Wait(mu_);
///
/// Like every condition variable, Wait releases the mutex while blocked
/// and reacquires it before returning; the capability is held at entry
/// and at exit, which is the contract REQUIRES expresses.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Blocks until notified. Caller must hold `mu` (and must re-check its
  /// predicate afterwards: spurious wakeups are allowed).
  void Wait(Mutex& mu) REQUIRES(mu) {
    // Adopt the already-held native mutex for the wait, then release the
    // unique_lock's ownership claim so the (still locked) mutex stays with
    // the caller's MutexLock scope.
    std::unique_lock<std::mutex> native(mu.raw_, std::adopt_lock);
    cv_.wait(native);
    native.release();
  }

  /// Wakes one waiter.
  void NotifyOne() { cv_.notify_one(); }
  /// Wakes every waiter.
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace limeqo

#endif  // LIMEQO_COMMON_THREAD_ANNOTATIONS_H_
