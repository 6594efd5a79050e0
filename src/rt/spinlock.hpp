// Real spinlock of the datapath engine (rt/).
//
// An actual test-and-test-and-set lock taken by concurrent std::thread
// workers: the active/standby flip holds it for a handful of instructions,
// and the sharded flow cache holds one per shard for a probe-and-touch.
// The simulated stack takes it through the same engine, from one thread;
// kernelsim::spinlock, an *analytic model* of wait time on the simulated
// clock, only charges the flip's cost there.
//
// Accounting: acquisitions and contended acquisitions are mutated only while
// the lock is held, so writes are serialized by the lock itself — which is
// why the increment can stay a plain load+add+store (no lock-prefixed RMW)
// on relaxed atomics.  The atomics exist for the *readers*: the rt stats
// sampler and a mid-run publish_stats() read these from other threads while
// workers still hold and release the lock, and a relaxed load gives them a
// recent, untorn, monotonic value instead of a data race.
#pragma once

#include <atomic>
#include <cstdint>
#include <thread>

namespace lf::rt {

class spinlock {
 public:
  spinlock() = default;
  spinlock(const spinlock&) = delete;
  spinlock& operator=(const spinlock&) = delete;

  void lock() noexcept {
    bool contended = false;
    while (flag_.test_and_set(std::memory_order_acquire)) {
      contended = true;
      // Test-and-test-and-set: spin on the cheap load, not the RMW.
      while (flag_.test(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#else
        std::this_thread::yield();
#endif
      }
    }
    bump(acquisitions_);
    if (contended) bump(contended_);
  }

  bool try_lock() noexcept {
    if (flag_.test_and_set(std::memory_order_acquire)) return false;
    bump(acquisitions_);
    return true;
  }

  void unlock() noexcept { flag_.clear(std::memory_order_release); }

  std::uint64_t acquisitions() const noexcept {
    return acquisitions_.load(std::memory_order_relaxed);
  }
  std::uint64_t contended_acquisitions() const noexcept {
    return contended_.load(std::memory_order_relaxed);
  }

 private:
  /// Holder-only increment: serialized by the lock, so load+add+store
  /// never loses an update and stays RMW-free.
  static void bump(std::atomic<std::uint64_t>& c) noexcept {
    c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  }

  std::atomic_flag flag_ = ATOMIC_FLAG_INIT;
  std::atomic<std::uint64_t> acquisitions_{0};  ///< written under the lock
  std::atomic<std::uint64_t> contended_{0};     ///< written under the lock
};

/// std::lock_guard-style RAII for rt::spinlock.
class spin_guard {
 public:
  explicit spin_guard(spinlock& l) noexcept : lock_{l} { lock_.lock(); }
  ~spin_guard() { lock_.unlock(); }
  spin_guard(const spin_guard&) = delete;
  spin_guard& operator=(const spin_guard&) = delete;

 private:
  spinlock& lock_;
};

}  // namespace lf::rt
