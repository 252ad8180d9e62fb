// Clang thread-safety annotations (the Chromium/abseil capability model)
// plus the annotated lock primitives the simulator uses with them.
//
// The engine's lock discipline — which members a mutex guards, which
// functions must (or must not) hold it, and which state the worker
// barrier hands a thread exclusively — is machine-checked at compile time
// under clang's -Wthread-safety analysis (the `analyze` CMake preset turns
// it into -Werror=thread-safety).  Off clang every macro expands to
// nothing, so gcc/MSVC builds are unaffected.
//
// Usage vocabulary:
//  - KM_CAPABILITY("name")  on a class: instances are capabilities the
//    analysis tracks (our Mutex, and PhantomCapability below).
//  - KM_GUARDED_BY(cap)     on a member: reads/writes require `cap`.
//  - KM_REQUIRES(cap)       on a function: callers must hold `cap`.
//  - KM_EXCLUDES(cap)       on a function: callers must NOT hold `cap`
//    (the function acquires it itself; guards against self-deadlock).
//  - KM_ACQUIRE / KM_RELEASE on functions that take/drop a capability.
//  - KM_ASSERT_CAPABILITY   on a no-op function that *tells* the analysis
//    a capability is held — the escape hatch for exclusivity established
//    by a protocol the function-local analysis cannot see (the barrier's
//    fold phase, a post-join epilogue).
//
// The analysis is function-local and trusts annotations at call
// boundaries, so every assertion function must carry a comment citing the
// protocol that makes it true.
#pragma once

#include <mutex>

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(guarded_by)
#define KM_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef KM_THREAD_ANNOTATION
#define KM_THREAD_ANNOTATION(x)  // no-op off clang
#endif

#define KM_CAPABILITY(x) KM_THREAD_ANNOTATION(capability(x))
#define KM_SCOPED_CAPABILITY KM_THREAD_ANNOTATION(scoped_lockable)
#define KM_GUARDED_BY(x) KM_THREAD_ANNOTATION(guarded_by(x))
#define KM_PT_GUARDED_BY(x) KM_THREAD_ANNOTATION(pt_guarded_by(x))
#define KM_REQUIRES(...) \
  KM_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define KM_REQUIRES_SHARED(...) \
  KM_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))
#define KM_EXCLUDES(...) KM_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
#define KM_ACQUIRE(...) \
  KM_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define KM_RELEASE(...) \
  KM_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define KM_TRY_ACQUIRE(...) \
  KM_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define KM_ASSERT_CAPABILITY(...) \
  KM_THREAD_ANNOTATION(assert_capability(__VA_ARGS__))
#define KM_RETURN_CAPABILITY(x) KM_THREAD_ANNOTATION(lock_returned(x))
#define KM_NO_THREAD_SAFETY_ANALYSIS \
  KM_THREAD_ANNOTATION(no_thread_safety_analysis)

// Sanitizer suppression for functions whose arithmetic wraps on purpose
// (sketch id-sums, Mersenne-61 mulmod).  Unsigned wrap is defined C++ and
// invisible to -fsanitize=undefined; clang's optional -fsanitize=integer
// would still flag it, so the intent is declared at the definition.  GCC
// warns on sanitizer names it does not know, hence the clang gate.
#if defined(__clang__)
#define KM_NO_SANITIZE(check) __attribute__((no_sanitize(check)))
#else
#define KM_NO_SANITIZE(check)
#endif

namespace km {

/// std::mutex with capability annotations.  Drop-in for the simulator's
/// internal locks: the analysis can only track lock discipline through
/// annotated acquire/release points, which the standard mutex lacks.
class KM_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() KM_ACQUIRE() { mu_.lock(); }
  void unlock() KM_RELEASE() { mu_.unlock(); }
  bool try_lock() KM_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  std::mutex mu_;
};

/// Scoped lock over Mutex (std::scoped_lock carries no annotations).
class KM_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) KM_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() KM_RELEASE() { mu_.unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// A capability with no lock behind it: exclusive access established by a
/// protocol instead of a mutex (the worker barrier's fold phase, the
/// single-threaded prologue/epilogue of Engine::run).  acquire/release/
/// assert_held cost nothing at runtime; they exist so KM_GUARDED_BY
/// members stay machine-checked even where the exclusion mechanism is
/// lock-free.  Every assert_held() call site must say, in a comment, which
/// protocol guarantees the exclusivity it claims.
class KM_CAPABILITY("role") PhantomCapability {
 public:
  PhantomCapability() = default;
  PhantomCapability(const PhantomCapability&) = delete;
  PhantomCapability& operator=(const PhantomCapability&) = delete;

  void acquire() noexcept KM_ACQUIRE() {}
  void release() noexcept KM_RELEASE() {}
  void assert_held() const noexcept KM_ASSERT_CAPABILITY() {}
};

}  // namespace km
