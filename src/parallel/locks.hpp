#pragma once
/// \file locks.hpp
/// \brief The mutex-pool implementations studied in the paper (Section IV-A,
///        Section V-D, Figure 4).
///
/// SPLATT guards conflicting MTTKRP row updates with a pool of locks indexed
/// by row id. The paper's Chapel port tried three implementations whose cost
/// profiles differ sharply for short critical sections:
///
///  * `SyncVarLock` — Chapel `sync` variables under the Qthreads tasking
///    layer: a contended acquire *parks* the task. We reproduce the
///    mechanism with a full/empty state protected by std::mutex +
///    std::condition_variable (OS-parked waiters). Correct, but each
///    handoff pays a futex round-trip — the paper's pathological case.
///  * `AtomicSpinLock` — Chapel `atomic bool` with testAndSet() +
///    chpl_task_yield() (Listing 6). Implemented verbatim with
///    std::atomic_flag + std::this_thread::yield().
///  * `FifoSyncLock` — Chapel `sync` under the *fifo* (pthreads) tasking
///    layer, where sync vars spin rather than sleep; FIFO order is the
///    distinguishing observable. Implemented as a ticket spin lock.
///  * `OmpLock` — omp_lock_t, what the reference C SPLATT uses.
///
/// Since the backend split (parallel/backend.hpp) the `omp` legend entry
/// names the backend-provided lock flavor. Under the omp backend it is
/// omp_lock_t exactly as before; under the pool backend — where depending
/// on libgomp for the hottest lock would be absurd — it is `FutexLock`, a
/// spin-then-park mutex on a std::atomic word (the std::thread analogue
/// of omp_lock_t: brief spin, then a futex sleep, like the pool's idle
/// workers). AnyMutexPool resolves the flavor once, when it is
/// constructed, which is why drivers apply `--backend` before building
/// workspaces.
///
/// All locks satisfy the same Lockable concept (`lock()`/`unlock()`), are
/// default-constructible, and are cache-line padded inside MutexPool.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include <omp.h>

#include "common/aligned.hpp"
#include "common/contracts.hpp"
#include "common/error.hpp"
#include "common/types.hpp"

namespace sptd {

/// Which mutex-pool implementation a kernel should use. String forms match
/// the paper's figure legends: "sync", "atomic", "fifo-sync", "omp".
enum class LockKind : int { kSync = 0, kAtomic, kFifoSync, kOmp };

/// Parses a LockKind from its legend name. Throws sptd::Error on others.
LockKind parse_lock_kind(const std::string& name);

/// Legend name for a LockKind.
const char* lock_kind_name(LockKind kind);

/// Chapel `sync` variable semantics under Qthreads: a bool with full/empty
/// state; reading requires full (and empties it), writing requires empty
/// (and fills it). Contended acquires park on a condition variable.
class SyncVarLock {
 public:
  SyncVarLock() = default;

  /// Acquire: read the sync var (wait for full, leave empty).
  void lock() {
    std::unique_lock<std::mutex> guard(m_);
    cv_.wait(guard, [this] { return full_; });
    full_ = false;
  }

  /// Release: write the sync var (requires empty, leaves full).
  void unlock() {
    {
      std::lock_guard<std::mutex> guard(m_);
      full_ = true;
    }
    cv_.notify_one();
  }

 private:
  std::mutex m_;
  std::condition_variable cv_;
  bool full_ = true;  // pool initializes sync vars to true / "full"
};

/// Chapel `atomic bool` spin lock, exactly Listing 6 of the paper:
/// testAndSet() in a loop with a task yield between attempts.
class AtomicSpinLock {
 public:
  AtomicSpinLock() = default;

  void lock() {
    while (flag_.test_and_set(std::memory_order_acquire)) {
      std::this_thread::yield();  // chpl_task_yield()
    }
  }

  void unlock() { flag_.clear(std::memory_order_release); }

 private:
  std::atomic_flag flag_ = ATOMIC_FLAG_INIT;
};

/// Sync variables under the fifo tasking layer: spin-wait with FIFO handoff.
/// Implemented as a classic ticket lock.
class FifoSyncLock {
 public:
  FifoSyncLock() = default;

  void lock() {
    const std::uint32_t my = next_.fetch_add(1, std::memory_order_relaxed);
    int spins = 0;
    while (serving_.load(std::memory_order_acquire) != my) {
      // Mostly spin (the fifo layer's behaviour), but yield occasionally so
      // oversubscribed teams on small machines cannot livelock waiting for
      // a descheduled ticket holder.
      if ((++spins & 63) == 0) {
        std::this_thread::yield();
      } else {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#endif
      }
    }
  }

  void unlock() {
    serving_.fetch_add(1, std::memory_order_release);
  }

 private:
  std::atomic<std::uint32_t> next_{0};
  std::atomic<std::uint32_t> serving_{0};
};

/// The reference implementation's lock: omp_lock_t.
///
/// TSan contract: omp_set/unset_lock synchronize through libgomp
/// internals the instrumented build cannot see, so data correctly
/// guarded by this lock would still be reported as racing. The annotate
/// macros declare the acquire/release edge the lock really provides
/// (lock() is an acquire of everything published by the previous
/// unlock(); no-ops outside SPTD_SANITIZE=thread builds).
class OmpLock {
 public:
  OmpLock() { omp_init_lock(&lock_); }
  ~OmpLock() { omp_destroy_lock(&lock_); }
  OmpLock(const OmpLock&) = delete;
  OmpLock& operator=(const OmpLock&) = delete;

  void lock() {
    omp_set_lock(&lock_);
    SPTD_TSAN_ACQUIRE(&lock_);
  }
  void unlock() {
    SPTD_TSAN_RELEASE(&lock_);
    omp_unset_lock(&lock_);
  }

 private:
  omp_lock_t lock_;
};

/// Spin-then-park mutex on one atomic word: 0 = free, 1 = locked,
/// 2 = locked with (possible) sleepers. A contended acquire spins briefly,
/// then parks on the word itself (std::atomic wait/notify — a futex on
/// Linux). This is the pool backend's stand-in for omp_lock_t: same cost
/// profile (user-space fast path, OS-parked waiters under contention),
/// zero libgomp involvement. All synchronization is plain C++ atomics, so
/// TSan models it natively — no SPTD_TSAN_* annotations needed, unlike
/// OmpLock above (contracts.hpp documents the split).
class FutexLock {
 public:
  FutexLock() = default;
  FutexLock(const FutexLock&) = delete;
  FutexLock& operator=(const FutexLock&) = delete;

  void lock() {
    std::uint32_t expected = 0;
    if (state_.compare_exchange_strong(expected, 1,
                                       std::memory_order_acquire,
                                       std::memory_order_relaxed)) {
      return;  // uncontended fast path
    }
    // Brief spin while the lock looks about to free up.
    for (int i = 0; i < 64; ++i) {
      expected = 0;
      if (state_.compare_exchange_weak(expected, 1,
                                       std::memory_order_acquire,
                                       std::memory_order_relaxed)) {
        return;
      }
#if defined(__x86_64__) || defined(__i386__)
      __builtin_ia32_pause();
#endif
    }
    // Contended slow path, Drepper's "mutex3": from here on this thread
    // only ever acquires by installing 2, never 1. An exchange that finds
    // 0 takes the lock while conservatively keeping the sleeper encoding
    // (worst case one spurious notify at unlock); anything else re-marks
    // the word contended and parks. The invariant matters: a parked
    // waiter that is not the one notify_one picked must find state 2 on
    // the next unlock, or that unlock skips the wake and strands it.
    while (state_.exchange(2, std::memory_order_acquire) != 0) {
      state_.wait(2, std::memory_order_relaxed);
    }
  }

  void unlock() {
    if (state_.exchange(0, std::memory_order_release) == 2) {
      state_.notify_one();
    }
  }

 private:
  std::atomic<std::uint32_t> state_{0};
};

/// Number of locks in a pool. SPLATT uses a fixed pool and hashes row ids
/// into it; 1024 keeps the pool L2-resident while making collisions rare.
inline constexpr std::size_t kMutexPoolSize = 1024;

/// Pool of \p kMutexPoolSize cache-padded locks indexed by row id.
template <typename LockT>
class MutexPool {
 public:
  MutexPool() : locks_(kMutexPoolSize) {}

  /// Acquires the lock guarding row \p id (ids hash by masking).
  void lock(idx_t id) { locks_[slot(id)].value.lock(); }

  /// Releases the lock guarding row \p id.
  void unlock(idx_t id) { locks_[slot(id)].value.unlock(); }

  static std::size_t slot(idx_t id) {
    return static_cast<std::size_t>(id) & (kMutexPoolSize - 1);
  }

 private:
  std::vector<CachePadded<LockT>> locks_;
};

/// Runtime-selected mutex pool. Kernels that need a pool take one of these
/// and pay a non-virtual branch only at lock/unlock; the paper's lock study
/// (Figure 4) flips `kind` between runs. Only the selected kind's pool is
/// built; `kOmp` resolves to OmpLock or FutexLock by the backend active at
/// construction.
class AnyMutexPool {
 public:
  explicit AnyMutexPool(LockKind kind);

  void lock(idx_t id);
  void unlock(idx_t id);

  [[nodiscard]] LockKind kind() const { return kind_; }

  /// True if the pool is built from \p LockT locks.
  template <typename LockT>
  [[nodiscard]] bool holds() const {
    return std::holds_alternative<MutexPool<LockT>>(pool_);
  }

 private:
  using Pool = std::variant<MutexPool<SyncVarLock>, MutexPool<AtomicSpinLock>,
                            MutexPool<FifoSyncLock>, MutexPool<OmpLock>,
                            MutexPool<FutexLock>>;
  static Pool make_pool(LockKind kind);

  LockKind kind_;
  Pool pool_;
};

/// RAII guard over a pool slot.
template <typename PoolT>
class PoolGuard {
 public:
  PoolGuard(PoolT& pool, idx_t id) : pool_(pool), id_(id) { pool_.lock(id_); }
  ~PoolGuard() { pool_.unlock(id_); }
  PoolGuard(const PoolGuard&) = delete;
  PoolGuard& operator=(const PoolGuard&) = delete;

 private:
  PoolT& pool_;
  idx_t id_;
};

}  // namespace sptd
