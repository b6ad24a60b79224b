// Clang thread-safety annotations and the annotated mutex wrapper.
//
// The relay's threads are ActorLanes on one EventLoop thread, so almost no
// state needs a lock. What does is state any thread can reach: a BufPool's
// free list, the telemetry histogram cell-table cache, and the log sink.
// Their locking discipline is machine checked instead of living in comments:
// every mutex-protected member is declared MOP_GUARDED_BY its mutex. Under
// Clang the `-Wthread-safety` warning group (enabled together with -Werror by
// the build) turns a mis-locked access into a build break; under GCC the
// attributes expand to nothing and the code compiles unchanged.
//
// Rules (enforced by tools/moplint):
//  * Raw std::mutex / std::condition_variable members are banned outside this
//    header — use moputil::Mutex so the capability annotations are never
//    lost. Nothing in the tree blocks on a condition, so there is no
//    condition-variable wrapper.
//  * Lock with moputil::MutexLock (scoped); bare Lock()/Unlock() pairs are
//    for the rare hand-over-hand case only.
#ifndef MOPEYE_UTIL_THREAD_ANNOTATIONS_H_
#define MOPEYE_UTIL_THREAD_ANNOTATIONS_H_

#include <mutex>

// Clang exposes the analysis attributes; other compilers see empty macros.
#if defined(__clang__)
#define MOP_THREAD_ANNOTATION__(x) __attribute__((x))
#else
#define MOP_THREAD_ANNOTATION__(x)
#endif

// Declares a type to be a capability (a lock). `x` names it in diagnostics.
#define MOP_CAPABILITY(x) MOP_THREAD_ANNOTATION__(capability(x))
// Declares an RAII type whose lifetime holds a capability.
#define MOP_SCOPED_CAPABILITY MOP_THREAD_ANNOTATION__(scoped_lockable)

// Data members: reads/writes require holding the named mutex.
#define MOP_GUARDED_BY(x) MOP_THREAD_ANNOTATION__(guarded_by(x))

// Functions that acquire/release capabilities as a side effect.
#define MOP_ACQUIRE(...) MOP_THREAD_ANNOTATION__(acquire_capability(__VA_ARGS__))
#define MOP_RELEASE(...) MOP_THREAD_ANNOTATION__(release_capability(__VA_ARGS__))

namespace moputil {

// std::mutex with the capability annotation, so members can be declared
// MOP_GUARDED_BY(mu_) and locking functions MOP_ACQUIRE(mu_). Same cost as
// the raw mutex; no extra state.
class MOP_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() MOP_ACQUIRE() { mu_.lock(); }
  void Unlock() MOP_RELEASE() { mu_.unlock(); }

 private:
  std::mutex mu_;
};

// Scoped lock over Mutex; the only sanctioned way to lock on normal paths.
class MOP_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) MOP_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() MOP_RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

}  // namespace moputil

#endif  // MOPEYE_UTIL_THREAD_ANNOTATIONS_H_
