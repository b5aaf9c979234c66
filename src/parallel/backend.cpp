#include "parallel/backend.hpp"

#include <omp.h>

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/aligned.hpp"
#include "common/error.hpp"

namespace sptd {
namespace {

// ---------------------------------------------------------------------------
// Backend selection state.
// ---------------------------------------------------------------------------

// -1 = unset (fall back to default_parallel_backend()). Atomic so that
// concurrent drivers agreeing on the same backend can both "set" it.
std::atomic<int> g_backend_kind{-1};

// ---------------------------------------------------------------------------
// OpenMP backend: the pre-backend behavior, verbatim. One
// `#pragma omp parallel` per region; libgomp owns the worker pool.
// ---------------------------------------------------------------------------

class OmpBackend final : public ParallelBackend {
 public:
  void run_team(int nthreads, detail::TeamBodyRef body) override {
    init_parallel_runtime();
#pragma omp parallel num_threads(nthreads)
    { body(omp_get_thread_num(), omp_get_num_threads()); }
  }
};

// ---------------------------------------------------------------------------
// Pool backend: a persistent std::thread worker pool. A region publishes a
// stack-allocated TeamTask; the submitter and idle workers claim tids from
// task.next until all nthreads slots have run. Workers spin briefly between
// regions, then park on a per-worker cache-line-padded futex word
// (std::atomic<uint32_t>::wait == futex on Linux). All synchronization is
// plain C++ atomics + std::mutex, so TSan models it natively — no
// SPTD_TSAN_* annotations needed (contracts.hpp documents this split).
// ---------------------------------------------------------------------------

// Whether this thread is running a tid of a multi-thread pool region
// (nested regions serialize, matching omp_set_max_active_levels(1)).
thread_local bool tls_pool_in_team = false;

// Brief spin before parking / before the submitter falls back to the
// condvar. Tuned short: on a fork/join cadence the next region usually
// arrives within this window, and an idle worker should yield its core
// quickly when it does not.
constexpr int kSpinIters = 4096;

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

// One in-flight parallel region. Lives on the submitter's stack; the refs
// counter keeps workers from touching it after the submitter returns (a
// worker increments refs while holding the pool mutex and the task is
// still listed, and the submitter does not return until refs drains).
struct TeamTask {
  detail::TeamBodyRef body;
  int nthreads;
  std::atomic<int> next{0};  // tid claim cursor
  std::atomic<int> done{0};  // tids finished
  std::atomic<int> refs{0};  // workers holding a pointer to this task

  TeamTask(detail::TeamBodyRef b, int n) : body(b), nthreads(n) {}
};

// Per-worker parking slot, cache-line padded so one worker's futex word
// never false-shares with its neighbor's.
struct alignas(kCacheLineBytes) WorkerSlot {
  std::atomic<std::uint32_t> signal{0};
  std::atomic<bool> parked{false};
};

class PoolBackend final : public ParallelBackend {
 public:
  PoolBackend() = default;

  ~PoolBackend() override {
    stop_.store(true, std::memory_order_seq_cst);
    epoch_.fetch_add(1, std::memory_order_seq_cst);
    for (int w = 0; w < nworkers_; ++w) {
      slots_[w].signal.fetch_add(1, std::memory_order_seq_cst);
      slots_[w].signal.notify_one();
    }
    for (auto& t : workers_) {
      if (t.joinable()) t.join();
    }
  }

  void run_team(int nthreads, detail::TeamBodyRef body) override {
    if (tls_pool_in_team) {
      // Nested region: serialize, exactly like the omp backend under
      // omp_set_max_active_levels(1). The body observes tid 0 of a team
      // of 1.
      body(0, 1);
      return;
    }
    ensure_workers();

    TeamTask task(body, nthreads);
    {
      std::lock_guard<std::mutex> lk(mu_);
      active_.push_back(&task);
    }
    // Publish-order contract with worker_loop: the task is listed before
    // the epoch bump, and workers read the epoch before scanning, so a
    // worker that misses the task in its scan must see the bump and
    // rescan instead of parking.
    epoch_.fetch_add(1, std::memory_order_seq_cst);
    wake_workers(nthreads - 1);

    // The submitter is a team member too: claim tids until the cursor
    // drains. With zero free workers this degrades to running the whole
    // team sequentially on the calling thread — which is exactly the
    // composability story (team slots queue; threads don't multiply).
    int tid;
    while ((tid = task.next.fetch_add(1, std::memory_order_relaxed)) <
           nthreads) {
      run_tid(task, tid);
    }

    const auto settled = [&task, nthreads] {
      return task.done.load(std::memory_order_acquire) == nthreads &&
             task.refs.load(std::memory_order_acquire) == 0;
    };
    // The lock-free spin is only a hint: a worker inside claim_task can
    // still find the task listed (its relaxed read of the cursor may lag)
    // and bump refs under mu_ after settled() read refs==0 here. The
    // authoritative check happens under mu_ — refs only ever rises inside
    // claim_task's critical section, so a settled() that holds while we
    // hold mu_ cannot be invalidated once the erase in the same critical
    // section hides the task from every later scan.
    for (int i = 0; i < kSpinIters && !settled(); ++i) cpu_relax();
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_done_.wait(lk, settled);
      for (std::size_t i = 0; i < active_.size(); ++i) {
        if (active_[i] == &task) {
          active_.erase(active_.begin() +
                        static_cast<std::ptrdiff_t>(i));
          break;
        }
      }
    }
  }

 private:
  static void run_tid(TeamTask& task, int tid) {
    const bool outer_in_team = tls_pool_in_team;
    tls_pool_in_team = true;
    task.body(tid, task.nthreads);
    tls_pool_in_team = outer_in_team;
    task.done.fetch_add(1, std::memory_order_release);
  }

  void ensure_workers() {
    std::lock_guard<std::mutex> lk(mu_);
    if (nworkers_ > 0) return;
    int width = hardware_threads();
    if (width < 1) width = 1;
    nworkers_ = width;
    slots_ = std::make_unique<WorkerSlot[]>(static_cast<std::size_t>(width));
    workers_.reserve(static_cast<std::size_t>(width));
    for (int w = 0; w < width; ++w) {
      workers_.emplace_back([this, w] { worker_loop(w); });
    }
  }

  // Picks an unfinished task (refs bumped under the lock, so the task
  // cannot be reclaimed while we hold the pointer) or nullptr.
  TeamTask* claim_task() {
    std::lock_guard<std::mutex> lk(mu_);
    for (std::size_t i = 0; i < active_.size();) {
      TeamTask* t = active_[i];
      if (t->next.load(std::memory_order_relaxed) < t->nthreads) {
        t->refs.fetch_add(1, std::memory_order_relaxed);
        return t;
      }
      // Cursor drained: drop it from the scan list so later scans stay
      // short. The submitter's own erase tolerates the absence.
      active_.erase(active_.begin() + static_cast<std::ptrdiff_t>(i));
    }
    return nullptr;
  }

  // Last touch of the task from this worker; after the refs drop the
  // submitter may free it, so the empty lock/notify below must not
  // dereference it. The empty critical section pairs with the
  // submitter's cv_done_ wait: the predicate flips via atomics, and
  // passing through mu_ before notifying closes the decide-then-sleep
  // window.
  void finish_task(TeamTask* task) {
    task->refs.fetch_sub(1, std::memory_order_release);
    { std::lock_guard<std::mutex> lk(mu_); }
    cv_done_.notify_all();
  }

  void wake_workers(int want) {
    for (int w = 0; w < nworkers_ && want > 0; ++w) {
      WorkerSlot& slot = slots_[w];
      if (slot.parked.load(std::memory_order_seq_cst)) {
        slot.signal.fetch_add(1, std::memory_order_seq_cst);
        slot.signal.notify_one();
        --want;
      }
      // Unparked workers are still in their spin phase and will observe
      // the epoch bump without a futex wake.
    }
  }

  void worker_loop(int w) {
    WorkerSlot& slot = slots_[w];
    for (;;) {
      // Read the epoch BEFORE scanning: if a submit lands after the scan
      // missed it, the bump lands after this read and the spin/park
      // checks below notice it. (Submit order is push-then-bump.)
      const std::uint64_t e0 = epoch_.load(std::memory_order_seq_cst);
      TeamTask* task = claim_task();
      if (task != nullptr) {
        const int n = task->nthreads;
        int tid;
        while ((tid = task->next.fetch_add(1, std::memory_order_relaxed)) <
               n) {
          run_tid(*task, tid);
        }
        finish_task(task);
        continue;
      }
      if (stop_.load(std::memory_order_acquire)) return;

      // Brief spin: fork/join cadences usually submit the next region
      // within this window, and a futex round-trip per region would
      // dominate short regions.
      bool bumped = false;
      for (int i = 0; i < kSpinIters; ++i) {
        if (epoch_.load(std::memory_order_seq_cst) != e0 ||
            stop_.load(std::memory_order_acquire)) {
          bumped = true;
          break;
        }
        cpu_relax();
      }
      if (bumped) continue;

      // Park. parked must be visible before the final epoch recheck:
      // wake_workers bumps the epoch first (seq_cst) and then scans
      // parked flags, so either we see the bump here and skip the wait,
      // or the submitter sees parked==true and sends a signal.
      slot.parked.store(true, std::memory_order_seq_cst);
      const std::uint32_t seen = slot.signal.load(std::memory_order_seq_cst);
      if (epoch_.load(std::memory_order_seq_cst) != e0 ||
          stop_.load(std::memory_order_seq_cst)) {
        slot.parked.store(false, std::memory_order_relaxed);
        continue;
      }
      slot.signal.wait(seen, std::memory_order_acquire);
      slot.parked.store(false, std::memory_order_relaxed);
    }
  }

  std::mutex mu_;
  std::condition_variable cv_done_;
  std::vector<TeamTask*> active_;     // guarded by mu_
  std::vector<std::thread> workers_;  // created once under mu_
  std::unique_ptr<WorkerSlot[]> slots_;
  int nworkers_ = 0;                  // 0 until ensure_workers
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<bool> stop_{false};
};

OmpBackend& omp_backend_instance() {
  static OmpBackend backend;
  return backend;
}

PoolBackend& pool_backend_instance() {
  static PoolBackend backend;
  return backend;
}

}  // namespace

ParallelBackendKind parse_parallel_backend(const std::string& name) {
  if (name == "omp") return ParallelBackendKind::kOmp;
  if (name == "pool") return ParallelBackendKind::kPool;
  throw Error("unknown parallel backend '" + name + "' (want omp|pool)");
}

const char* parallel_backend_name(ParallelBackendKind kind) {
  switch (kind) {
    case ParallelBackendKind::kOmp:
      return "omp";
    case ParallelBackendKind::kPool:
      return "pool";
  }
  return "omp";
}

ParallelBackendKind default_parallel_backend() {
  static const ParallelBackendKind kind = [] {
    const char* env = std::getenv("SPTD_BACKEND");
    if (env == nullptr || *env == '\0') return ParallelBackendKind::kOmp;
    return parse_parallel_backend(env);
  }();
  return kind;
}

ParallelBackendKind parallel_backend() {
  const int raw = g_backend_kind.load(std::memory_order_acquire);
  if (raw < 0) return default_parallel_backend();
  return static_cast<ParallelBackendKind>(raw);
}

void set_parallel_backend(ParallelBackendKind kind) {
  g_backend_kind.store(static_cast<int>(kind), std::memory_order_release);
}

ParallelBackend& active_parallel_backend() {
  switch (parallel_backend()) {
    case ParallelBackendKind::kOmp:
      return omp_backend_instance();
    case ParallelBackendKind::kPool:
      return pool_backend_instance();
  }
  return omp_backend_instance();
}

}  // namespace sptd
