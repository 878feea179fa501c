// Annotated, watchdog-instrumented mutex wrappers.
//
// Every lock in the runtime layers (src/ccm, src/net, src/proto) is one of
// these two types instead of a raw std::mutex (enforced by the ccm-lint
// `raw-mutex` rule). The wrappers buy three things:
//
//  1. Clang Thread Safety Analysis: both are CAPABILITY types, so members
//     can be GUARDED_BY them and helpers can REQUIRES them (see
//     src/util/thread_annotations.hpp). The std:: guards are not annotated,
//     so scoped locking goes through ScopedLock / UniqueLock below.
//  2. The lock-order watchdog: each instance registers a stable display
//     name with lockcheck and reports acquire/release, which is how the
//     acquisition-order graph gets its nodes (src/util/lockcheck.hpp).
//  3. Contention counters (CountingMutex): the per-shard accounting that
//     ccm_stress and CcmStats report.
//
// Both lock() paths spin a bounded number of try_lock rounds before parking
// in the kernel: runtime critical sections are short, and client operations
// run on their callers' threads, so a busy lock is usually released within
// the spin — sooner than a futex sleep and wake-up would take.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include "util/lockcheck.hpp"
#include "util/thread_annotations.hpp"

namespace coop::util {

/// try_lock rounds a contended lock() spins before it parks.
inline constexpr int kLockSpinRounds = 128;

/// Retries `mu.try_lock()` up to kLockSpinRounds times, pausing the core
/// between attempts; true once one succeeds.
inline bool spin_try_lock(std::mutex& mu) {
  for (int i = 0; i < kLockSpinRounds; ++i) {
#if defined(__x86_64__) || defined(__i386__)
    _mm_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
    if (mu.try_lock()) return true;
  }
  return false;
}

/// std::mutex with a lockcheck identity and TSA capability annotations.
class CAPABILITY("mutex") Mutex {
 public:
  explicit Mutex(std::string name = "util.mutex")
      : id_(lockcheck::register_lock(std::move(name))) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ACQUIRE() {
    lockcheck::note_acquire(id_);
    if (!mu_.try_lock() && !spin_try_lock(mu_)) mu_.lock();
    lockcheck::note_acquired(id_);
  }

  void unlock() RELEASE() {
    lockcheck::note_release(id_);
    mu_.unlock();
  }

  bool try_lock() TRY_ACQUIRE(true) {
    // No note_acquire: a try_lock cannot block, so it adds no wait-for
    // edges; on success it still enters the held set and orders later
    // acquires made while it is held.
    if (!mu_.try_lock()) return false;
    lockcheck::note_acquired(id_);
    return true;
  }

  [[nodiscard]] lockcheck::LockId lock_id() const { return id_; }

 private:
  std::mutex mu_;
  const lockcheck::LockId id_;
};

/// A mutex that counts acquisitions and contention (a failed first
/// try_lock, whether the spin or the park then acquires) so shard-lock
/// pressure is observable per node. The runtime uses one per shard;
/// ccm_stress reports the counters.
class CAPABILITY("mutex") CountingMutex {
 public:
  explicit CountingMutex(std::string name = "util.counting_mutex")
      : id_(lockcheck::register_lock(std::move(name))) {}
  CountingMutex(const CountingMutex&) = delete;
  CountingMutex& operator=(const CountingMutex&) = delete;

  void lock() ACQUIRE() {
    lockcheck::note_acquire(id_);
    if (!mu_.try_lock()) {
      contended_.fetch_add(1, std::memory_order_relaxed);
      if (!spin_try_lock(mu_)) mu_.lock();
    }
    acquired_.fetch_add(1, std::memory_order_relaxed);
    lockcheck::note_acquired(id_);
  }

  void unlock() RELEASE() {
    lockcheck::note_release(id_);
    mu_.unlock();
  }

  bool try_lock() TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
    acquired_.fetch_add(1, std::memory_order_relaxed);
    lockcheck::note_acquired(id_);
    return true;
  }

  // Tolerance contract for the counters: all updates and reads are
  // memory_order_relaxed on purpose. The counters are diagnostics, not
  // synchronization — contended_ ticks *before* the blocking lock()
  // completes, so a concurrent reader may transiently see contended_ ahead
  // of acquired_. What readers may rely on is that each counter on its own
  // is monotone non-decreasing between reset_counts() calls (fetch_add
  // only), which CcmCluster::stats() asserts per shard.
  [[nodiscard]] std::uint64_t acquired() const {
    return acquired_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t contended() const {
    return contended_.load(std::memory_order_relaxed);
  }
  void reset_counts() {
    acquired_.store(0, std::memory_order_relaxed);
    contended_.store(0, std::memory_order_relaxed);
  }

  [[nodiscard]] lockcheck::LockId lock_id() const { return id_; }

 private:
  std::mutex mu_;
  std::atomic<std::uint64_t> acquired_{0};
  std::atomic<std::uint64_t> contended_{0};
  const lockcheck::LockId id_;
};

/// Annotated block-scoped guard (the std:: guards carry no TSA attributes,
/// so using them on a Mutex would leave every GUARDED_BY access flagged).
template <typename M>
class SCOPED_CAPABILITY ScopedLock {
 public:
  explicit ScopedLock(M& m) ACQUIRE(m) : mu_(m) { mu_.lock(); }
  ~ScopedLock() RELEASE() { mu_.unlock(); }
  ScopedLock(const ScopedLock&) = delete;
  ScopedLock& operator=(const ScopedLock&) = delete;

 private:
  M& mu_;
};

/// Annotated relockable guard; satisfies BasicLockable, so it is what
/// condition_variable_any waits release and reacquire through (which keeps
/// the lockcheck held set exact across a wait).
template <typename M>
class SCOPED_CAPABILITY UniqueLock {
 public:
  explicit UniqueLock(M& m) ACQUIRE(m) : mu_(m), owns_(true) { mu_.lock(); }
  ~UniqueLock() RELEASE() {
    if (owns_) mu_.unlock();
  }
  UniqueLock(const UniqueLock&) = delete;
  UniqueLock& operator=(const UniqueLock&) = delete;

  void lock() ACQUIRE() {
    mu_.lock();
    owns_ = true;
  }
  void unlock() RELEASE() {
    owns_ = false;
    mu_.unlock();
  }
  [[nodiscard]] bool owns_lock() const { return owns_; }

 private:
  M& mu_;
  bool owns_;
};

}  // namespace coop::util
