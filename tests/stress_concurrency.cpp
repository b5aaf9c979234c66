// Concurrency stress harness for the lock-free and locked primitives the
// parallel MTTKRP variants are built on. The primitive tests drive the
// code with raw std::thread — never an omp-backed parallel_region —
// because this binary is what the SPTD_SANITIZE=thread CI job runs, and
// ThreadSanitizer cannot model libgomp's barriers and team handshakes
// (tools/tsan.supp documents that policy). The PoolBackendStress section
// at the bottom is the exception that proves the rule: the pool backend
// synchronizes through std primitives TSan models natively, so its
// parallel_region teams run fully instrumented. The assertions are written so that a protocol
// bug surfaces twice: as a failed count/bitwise check here, and as a data
// race under TSan — double-issued work-stealing chunks, for example, make
// two threads write the same plain (unsynchronized) array slot.
//
// The harness also runs as a regular ctest in uninstrumented builds,
// where the same checks catch lost updates and double claims the slow way.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <cstdint>
#include <filesystem>
#include <mutex>
#include <numeric>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "common/contracts.hpp"
#include "csf/csf.hpp"
#include "la/matrix.hpp"
#include "parallel/backend.hpp"
#include "parallel/locks.hpp"
#include "parallel/team.hpp"
#include "dist/shm_ring.hpp"
#include "dist/transport_shm.hpp"
#include "parallel/reduce.hpp"
#include "parallel/schedule.hpp"
#include "resilience/checkpoint.hpp"
#include "tensor/synthetic.hpp"

namespace sptd {
namespace {

// Thread/iteration budgets. TSan serializes aggressively (and CI also runs
// this box oversubscribed), so the counts are sized for seconds, not
// minutes, while still forcing thousands of contended claims per test.
constexpr int kThreads = 4;
constexpr int kRounds = 25;

/// Launches \p nthreads std::threads that all start work at the same
/// instant (a barrier inside), each running body(tid), and joins them.
template <typename Body>
void run_threads(int nthreads, Body&& body) {
  std::barrier gate(nthreads);
  std::vector<std::thread> team;
  team.reserve(static_cast<std::size_t>(nthreads));
  for (int t = 0; t < nthreads; ++t) {
    team.emplace_back([&, t] {
      gate.arrive_and_wait();
      body(t);
    });
  }
  for (std::thread& th : team) {
    th.join();
  }
}

/// Back-loaded prefix: every slice weighs 1 except the last
/// (kThreads - 1), which each weigh \p heavy. The weighted partition
/// hands threads 1.. one heavy tail slice apiece and thread 0 the whole
/// light prefix — so by slice *count* thread 0 owns nearly everything and
/// the other workers are forced onto the steal path against its deque.
std::vector<nnz_t> back_loaded_prefix(nnz_t total, nnz_t heavy) {
  std::vector<nnz_t> prefix(static_cast<std::size_t>(total) + 1, 0);
  for (nnz_t i = 0; i < total; ++i) {
    const bool tail = i + (kThreads - 1) >= total;
    prefix[static_cast<std::size_t>(i) + 1] =
        prefix[static_cast<std::size_t>(i)] + (tail ? heavy : 1);
  }
  return prefix;
}

// --------------------------------------------------- work-stealing deques

// Exactly-once chunk issuance under full contention: every slice is
// written to a PLAIN int array by whichever thread claimed it. A protocol
// bug that double-issues a chunk (the owner-pop vs thief-CAS race at the
// last chunk of a deque) turns into two unsynchronized writes to the same
// slot — a TSan report — and a visit count != 1 here.
TEST(WorkStealingStress, ExactlyOnceUnderContention) {
  const nnz_t total = 4096;
  // High chunk_target -> many small chunks -> many CAS claims per launch.
  const SliceSchedule sched(SchedulePolicy::kWorkStealing, total, {},
                            kThreads, /*chunk_target=*/64);
  std::vector<int> visits(static_cast<std::size_t>(total), 0);
  for (int round = 0; round < kRounds; ++round) {
    std::fill(visits.begin(), visits.end(), 0);
    sched.reset();
    run_threads(kThreads, [&](int tid) {
      sched.for_ranges(tid, [&](nnz_t begin, nnz_t end) {
        for (nnz_t s = begin; s < end; ++s) {
          ++visits[static_cast<std::size_t>(s)];
        }
      });
    });
    for (nnz_t s = 0; s < total; ++s) {
      ASSERT_EQ(visits[static_cast<std::size_t>(s)], 1)
          << "slice " << s << " round " << round;
    }
  }
}

// Owner pops the front while thieves CAS the back of the SAME deque:
// a front-loaded weighted seed hands thread 0 nearly all chunks, so the
// other workers must live on the steal path, colliding with the owner on
// its packed (lo, hi) cursor word every claim.
TEST(WorkStealingStress, OwnerPopVsThiefCasOnOneDeque) {
  const nnz_t total = 2048;
  const auto prefix = back_loaded_prefix(total, total);
  const SliceSchedule sched(SchedulePolicy::kWorkStealing, total, prefix,
                            kThreads, /*chunk_target=*/64);
  // The seed must actually concentrate ownership for the test to mean
  // anything: thread 0's block covers at least half the range.
  ASSERT_GE(sched.bounds()[1], total / 2)
      << "front-loaded prefix failed to concentrate the seed";
  std::vector<int> visits(static_cast<std::size_t>(total), 0);
  const std::uint64_t steals_before = sched.steals();
  for (int round = 0; round < kRounds; ++round) {
    std::fill(visits.begin(), visits.end(), 0);
    sched.reset();
    run_threads(kThreads, [&](int tid) {
      sched.for_ranges(tid, [&](nnz_t begin, nnz_t end) {
        for (nnz_t s = begin; s < end; ++s) {
          ++visits[static_cast<std::size_t>(s)];
        }
      });
    });
    for (nnz_t s = 0; s < total; ++s) {
      ASSERT_EQ(visits[static_cast<std::size_t>(s)], 1)
          << "slice " << s << " round " << round;
    }
  }
  // Workers 1..3 own almost nothing, so across kRounds launches the
  // steal counter must have moved (they either stole or starved — and
  // starving would have failed the coverage check above).
  EXPECT_GT(sched.steals(), steals_before) << "thieves never engaged";
}

// Launch-generation contract under threads: a drained schedule consumed
// again without reset() must abort the claim loudly. (Thrown serially
// here; inside a real parallel region the same throw terminates.)
TEST(WorkStealingStress, ReuseWithoutResetIsCaught) {
  const nnz_t total = 256;
  const SliceSchedule sched(SchedulePolicy::kWorkStealing, total, {},
                            kThreads);
  sched.reset();
  run_threads(kThreads, [&](int tid) {
    sched.for_ranges(tid, [](nnz_t, nnz_t) {});
  });
  EXPECT_THROW(sched.for_ranges(0, [](nnz_t, nnz_t) {}), Error);
  // reset() reopens the schedule.
  sched.reset();
  EXPECT_NO_THROW(sched.for_ranges(0, [](nnz_t, nnz_t) {}));
}

// ------------------------------------------------------------ mutex pools

// Plain (unsynchronized) counters guarded by a pool: ids hash onto few
// slots so contention is constant. Lost updates fail the sum; a lock
// implementation whose acquire/release edge is broken — or invisible to
// TSan, like OmpLock without its SPTD_TSAN_ACQUIRE/RELEASE annotations —
// fails as a data race on the counter.
template <typename PoolT>
void stress_pool(PoolT& pool) {
  constexpr int kIters = 3000;
  constexpr idx_t kSlots = 8;  // all threads collide on 8 lock slots
  std::vector<std::uint64_t> counters(kSlots, 0);
  run_threads(kThreads, [&](int tid) {
    for (int i = 0; i < kIters; ++i) {
      // Deterministic per-thread id walk; every thread visits every slot.
      const idx_t id = static_cast<idx_t>((i + tid * 7) % kSlots);
      PoolGuard guard(pool, id);
      ++counters[id];
    }
  });
  const std::uint64_t sum =
      std::accumulate(counters.begin(), counters.end(), std::uint64_t{0});
  EXPECT_EQ(sum, static_cast<std::uint64_t>(kThreads) * kIters);
}

TEST(MutexPoolStress, SyncVarLock) {
  MutexPool<SyncVarLock> pool;
  stress_pool(pool);
}

TEST(MutexPoolStress, AtomicSpinLock) {
  MutexPool<AtomicSpinLock> pool;
  stress_pool(pool);
}

TEST(MutexPoolStress, FifoSyncLock) {
  MutexPool<FifoSyncLock> pool;
  stress_pool(pool);
}

TEST(MutexPoolStress, OmpLock) {
  MutexPool<OmpLock> pool;
  stress_pool(pool);
}

TEST(MutexPoolStress, RuntimeDispatchedPool) {
  // The kernels' runtime-selected pool: same protocol through the
  // non-virtual dispatch layer.
  for (const LockKind kind : {LockKind::kSync, LockKind::kAtomic,
                              LockKind::kFifoSync, LockKind::kOmp}) {
    AnyMutexPool pool(kind);
    stress_pool(pool);
  }
}

// ------------------------------------------------- privatized reduction

// The no-lock MTTKRP path: every thread accumulates into its own
// PrivateBuffers replica (plain disjoint storage), and the replicas are
// summed after the join. Bit-identical to the serial sum because both
// sides add per-thread subtotals in the same (thread-index) order.
TEST(ReduceStress, PrivatizedAccumulationMatchesSerialBitwise) {
  const nnz_t length = 512;
  constexpr int kItems = 20000;
  PrivateBuffers bufs(kThreads, length);
  run_threads(kThreads, [&](int tid) {
    std::span<val_t> mine = bufs.buffer(tid);
    for (int i = 0; i < kItems; ++i) {
      const auto slot = static_cast<std::size_t>(
          (static_cast<nnz_t>(i) * 31 + static_cast<nnz_t>(tid)) % length);
      mine[slot] += 1.0 / (1.0 + static_cast<val_t>(i % 97));
    }
  });
  std::vector<val_t> parallel_out(static_cast<std::size_t>(length), 0.0);
  // Serial reduction (nthreads=1 keeps OpenMP out of the TSan binary).
  bufs.reduce_into(parallel_out, 1);

  // Serial reference: same deposits, same reduction order.
  PrivateBuffers ref(kThreads, length);
  for (int tid = 0; tid < kThreads; ++tid) {
    std::span<val_t> mine = ref.buffer(tid);
    for (int i = 0; i < kItems; ++i) {
      const auto slot = static_cast<std::size_t>(
          (static_cast<nnz_t>(i) * 31 + static_cast<nnz_t>(tid)) % length);
      mine[slot] += 1.0 / (1.0 + static_cast<val_t>(i % 97));
    }
  }
  std::vector<val_t> serial_out(static_cast<std::size_t>(length), 0.0);
  ref.reduce_into(serial_out, 1);

  for (nnz_t i = 0; i < length; ++i) {
    ASSERT_EQ(parallel_out[static_cast<std::size_t>(i)],
              serial_out[static_cast<std::size_t>(i)])
        << "element " << i << " not bitwise equal";
  }
}

// --------------------------------------------- CCD's lock-free residuals

// CCD++'s residual contract (solver_ccd.cpp): a row update folds deltas
// into res[canon[x]] for x in its OWN slice only, and no two rows of a
// pass share a slice — so the pass needs no locks. Reproduced here with
// slices distributed by a contended work-stealing schedule and a shuffled
// canon permutation: exactly-once slice issuance implies disjoint plain
// writes (TSan-verified), and the result must be bitwise equal to a
// serial pass, because each residual entry is owned by exactly one slice.
TEST(CcdResidualStress, LockFreeSliceUpdatesAreDisjointAndBitwise) {
  const nnz_t nslices = 512;
  const nnz_t per_slice = 8;
  const nnz_t nnz = nslices * per_slice;
  // canon: entry x of the mode-grouped order lands at a shuffled
  // canonical position. An odd multiplier modulo the power-of-two nnz is
  // a bijection on [0, nnz), verified below — a canon with duplicates
  // would alias two slices onto one residual entry and void the test.
  std::vector<nnz_t> canon(static_cast<std::size_t>(nnz));
  std::vector<bool> seen(static_cast<std::size_t>(nnz), false);
  for (nnz_t x = 0; x < nnz; ++x) {
    const nnz_t c = (x * 2654435761ULL + 17) % nnz;
    canon[static_cast<std::size_t>(x)] = c;
    ASSERT_FALSE(seen[static_cast<std::size_t>(c)]) << "canon not bijective";
    seen[static_cast<std::size_t>(c)] = true;
  }

  const auto delta_for = [](nnz_t slice, nnz_t x) {
    return 1e-3 * static_cast<val_t>(slice % 13) +
           1e-6 * static_cast<val_t>(x % 101);
  };

  const SliceSchedule sched(SchedulePolicy::kWorkStealing, nslices, {},
                            kThreads, /*chunk_target=*/32);
  std::vector<val_t> res(static_cast<std::size_t>(nnz), 1.0);
  for (int round = 0; round < 8; ++round) {
    sched.reset();
    run_threads(kThreads, [&](int tid) {
      sched.for_ranges(tid, [&](nnz_t begin, nnz_t end) {
        for (nnz_t i = begin; i < end; ++i) {
          const nnz_t lo = i * per_slice;
          for (nnz_t x = lo; x < lo + per_slice; ++x) {
            res[static_cast<std::size_t>(canon[static_cast<std::size_t>(x)])]
                -= delta_for(i, x);
          }
        }
      });
    });
  }

  std::vector<val_t> serial(static_cast<std::size_t>(nnz), 1.0);
  for (int round = 0; round < 8; ++round) {
    for (nnz_t i = 0; i < nslices; ++i) {
      const nnz_t lo = i * per_slice;
      for (nnz_t x = lo; x < lo + per_slice; ++x) {
        serial[static_cast<std::size_t>(canon[static_cast<std::size_t>(x)])]
            -= delta_for(i, x);
      }
    }
  }
  for (nnz_t x = 0; x < nnz; ++x) {
    ASSERT_EQ(res[static_cast<std::size_t>(x)],
              serial[static_cast<std::size_t>(x)])
        << "residual " << x << " not bitwise equal to the serial pass";
  }
}

// ----------------------------------------- checkpoint vs compute overlap

// The resilience layer's intended overlap: the driver hands a *snapshot*
// (taken between iterations) to a writer, and computation continues on
// the live state while the writer serializes and fsyncs. The handoff is a
// mutex+cv staging slot; the live factors are never shared. A TSan race
// here would mean the snapshot aliases live state — the bug class that
// turns checkpoints into torn garbage.
TEST(CheckpointStress, WriterOverlapsComputeOnSnapshots) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "sptd_stress_ckpt";
  fs::remove_all(dir);

  constexpr int kIterations = 12;
  const idx_t rows = 32, cols = 8;

  std::mutex m;
  std::condition_variable cv;
  std::optional<Checkpoint> staged;  // guarded by m
  bool done = false;                 // guarded by m

  CheckpointManager manager(dir.string(), "stress", /*every=*/1);
  ResilienceCounters counters;
  int saved = 0;

  std::thread writer([&] {
    for (;;) {
      Checkpoint ck;
      {
        std::unique_lock<std::mutex> guard(m);
        cv.wait(guard, [&] { return staged.has_value() || done; });
        if (!staged.has_value()) {
          return;  // done and drained
        }
        ck = std::move(*staged);
        staged.reset();
      }
      cv.notify_all();  // compute may stage the next snapshot
      ASSERT_TRUE(manager.save(ck, nullptr, counters));
      ++saved;
    }
  });

  // Compute thread (this thread): mutate live factors every iteration;
  // each element is a deterministic function of the iteration so the
  // recovered checkpoint is verifiable below.
  la::Matrix live(rows, cols);
  for (int it = 1; it <= kIterations; ++it) {
    for (idx_t r = 0; r < rows; ++r) {
      for (idx_t c = 0; c < cols; ++c) {
        live.row_ptr(r)[c] = static_cast<val_t>(it * 1000 + r * cols + c);
      }
    }
    Checkpoint snap;  // deep copy taken between "iterations"
    snap.kind = "stress";
    snap.iteration = it;
    snap.factors.push_back(live);
    {
      std::unique_lock<std::mutex> guard(m);
      cv.wait(guard, [&] { return !staged.has_value(); });
      staged = std::move(snap);
    }
    cv.notify_all();
    // ... compute continues on `live` while the writer serializes `snap`.
  }
  {
    std::lock_guard<std::mutex> guard(m);
    done = true;
  }
  cv.notify_all();
  writer.join();
  EXPECT_EQ(saved, kIterations);

  // The newest surviving checkpoint must be internally consistent: its
  // factors are exactly the deterministic fill of its iteration stamp.
  const auto loaded = CheckpointManager::load_latest(dir.string(), "stress");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->iteration, kIterations);
  ASSERT_EQ(loaded->factors.size(), 1u);
  for (idx_t r = 0; r < rows; ++r) {
    for (idx_t c = 0; c < cols; ++c) {
      ASSERT_EQ(loaded->factors[0].row_ptr(r)[c],
                static_cast<val_t>(loaded->iteration * 1000 + r * cols + c));
    }
  }
  fs::remove_all(dir);
}

// ------------------------------------------------- counters under threads

// The process-wide diagnostic counters are relaxed atomics, read by
// differencing from serial code around a run (never inside one): the
// stress here proves concurrent bumps are not lost and the serial
// difference observes every claim.
TEST(CounterStress, StealCountersAreExactUnderContention) {
  const nnz_t total = 1024;
  const auto prefix = back_loaded_prefix(total, total);
  const SliceSchedule sched(SchedulePolicy::kWorkStealing, total, prefix,
                            kThreads, /*chunk_target=*/32);
  const std::uint64_t sched_before = sched.steals();
  const std::uint64_t global_before = work_steal_count();
  for (int round = 0; round < kRounds; ++round) {
    sched.reset();
    run_threads(kThreads, [&](int tid) {
      sched.for_ranges(tid, [](nnz_t, nnz_t) {});
    });
  }
  // Per-schedule and process-wide counters moved in lockstep: every
  // successful steal bumped both exactly once.
  EXPECT_EQ(sched.steals() - sched_before,
            work_steal_count() - global_before);
  EXPECT_GT(sched.steals(), sched_before);
}

// ------------------------------------------------------ pool backend

// Unlike the omp backend, the pool backend (parallel/backend.cpp) and its
// FutexLock synchronize entirely through std::atomic wait/notify,
// std::mutex, and std::condition_variable — primitives TSan models
// natively — so this section drives real parallel_region teams under the
// instrumented build with no annotations and no suppressions. A protocol
// bug in the task hand-off (a tid issued twice, a submitter returning
// before every worker dereferenced the stack-allocated task) surfaces as
// a plain-array race under TSan and as a count mismatch here.

/// Scoped pool-backend selection; restores the prior backend so the rest
/// of the binary (and ctest ordering) stays on its default.
class PoolBackendSection {
 public:
  PoolBackendSection() : prior_(parallel_backend()) {
    set_parallel_backend(ParallelBackendKind::kPool);
  }
  ~PoolBackendSection() { set_parallel_backend(prior_); }
  PoolBackendSection(const PoolBackendSection&) = delete;
  PoolBackendSection& operator=(const PoolBackendSection&) = delete;

 private:
  ParallelBackendKind prior_;
};

// Every tid of every region runs exactly once, and the region's writes
// are visible to the submitter after the join: each team member writes a
// PLAIN slot keyed by (round, tid); a double-issued tid is a TSan race
// on that slot, a lost tid a zero in the count check.
TEST(PoolBackendStress, TeamTidsExactlyOnceAcrossRepeatedRegions) {
  PoolBackendSection section;
  constexpr int kTeam = 8;
  std::vector<int> hits(static_cast<std::size_t>(kRounds) * kTeam, 0);
  for (int round = 0; round < kRounds; ++round) {
    parallel_region(kTeam, [&, round](int tid, int nt) {
      ASSERT_EQ(nt, kTeam);
      hits[static_cast<std::size_t>(round) * kTeam +
           static_cast<std::size_t>(tid)] += 1;
    });
  }
  for (std::size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i], 1) << "slot " << i;
  }
}

// Concurrent submitters: raw threads each push their own team through the
// one shared pool — the composability mechanism (two decompositions in
// one process share workers instead of oversubscribing). Per-submitter
// plain arrays catch cross-task tid leakage as both a race and a count.
TEST(PoolBackendStress, ConcurrentSubmittersShareOnePool) {
  PoolBackendSection section;
  constexpr int kSubmitters = 3;
  constexpr int kTeam = 4;
  std::vector<std::vector<int>> hits(
      kSubmitters, std::vector<int>(static_cast<std::size_t>(kRounds) * kTeam,
                                    0));
  run_threads(kSubmitters, [&](int s) {
    for (int round = 0; round < kRounds; ++round) {
      parallel_region(kTeam, [&, s, round](int tid, int) {
        hits[static_cast<std::size_t>(s)]
            [static_cast<std::size_t>(round) * kTeam +
             static_cast<std::size_t>(tid)] += 1;
      });
    }
  });
  for (int s = 0; s < kSubmitters; ++s) {
    for (std::size_t i = 0; i < hits[static_cast<std::size_t>(s)].size();
         ++i) {
      ASSERT_EQ(hits[static_cast<std::size_t>(s)][i], 1)
          << "submitter " << s << " slot " << i;
    }
  }
}

// FutexLock under real pool teams: plain counters survive contended
// lock/unlock cycles from a multiplexed team. Mirrors MutexPoolStress
// but through parallel_region, so the lock is exercised with the exact
// parking interleavings the pool produces.
TEST(PoolBackendStress, FutexLockExcludesUnderPoolTeams) {
  PoolBackendSection section;
  FutexLock lock;
  long counter = 0;
  for (int round = 0; round < kRounds; ++round) {
    parallel_region(kThreads, [&](int, int) {
      for (int i = 0; i < 500; ++i) {
        lock.lock();
        counter += 1;
        lock.unlock();
      }
    });
  }
  EXPECT_EQ(counter, static_cast<long>(kRounds) * kThreads * 500);
}

// Regression for a lost-wakeup in FutexLock's park path: with two
// waiters parked on state 2, unlock zeroes the word and wakes one; if a
// newcomer (or the woken waiter retrying its spin phase) then acquires
// via CAS 0->1, the sleeper encoding is erased and every later unlock
// skips the notify — the second sleeper stays parked forever. The fix is
// Drepper's mutex3 shape: once contended, acquire only by installing 2.
// Raw oversubscribed threads plus a dwell longer than the spin window
// force real parking with multiple sleepers; under the old code this
// test can hang on multi-core machines (caught by the ctest timeout),
// under the fix it terminates with exact counts.
TEST(PoolBackendStress, FutexLockNoLostWakeupWithParkedSleepers) {
  FutexLock lock;
  constexpr int kHammer = 8;   // > cores: waiters genuinely park
  constexpr int kIters = 400;
  long counter = 0;
  run_threads(kHammer, [&](int tid) {
    for (int i = 0; i < kIters; ++i) {
      lock.lock();
      counter += 1;
      // Periodically dwell past the 64-iteration spin window so the
      // other threads fall through to the futex wait and pile up as
      // sleepers before this unlock starts the wake chain.
      if ((i & 31) == tid) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
      lock.unlock();
    }
  });
  EXPECT_EQ(counter, static_cast<long>(kHammer) * kIters);
}

// kOmp resolves to the futex flavor under the pool backend; the
// AnyMutexPool(kOmp) path is what MTTKRP workspaces actually build, so
// stress that resolution end to end.
TEST(PoolBackendStress, BackendLockPoolFlavorExcludes) {
  PoolBackendSection section;
  AnyMutexPool pool(LockKind::kOmp);
  std::vector<long> counters(8, 0);
  parallel_region(kThreads, [&](int tid, int) {
    for (int i = 0; i < 2000; ++i) {
      const idx_t slot = static_cast<idx_t>((i + tid) % 8);
      pool.lock(slot);
      counters[static_cast<std::size_t>(slot)] += 1;
      pool.unlock(slot);
    }
  });
  const long total = std::accumulate(counters.begin(), counters.end(), 0L);
  EXPECT_EQ(total, static_cast<long>(kThreads) * 2000);
}

// The privatize-and-reduce path through real pool teams: per-thread
// replicas written inside parallel_region, reduced after the join, must
// match the serial sum bitwise (fixed t-order reduction).
TEST(PoolBackendStress, PrivatizedReductionBitwiseUnderPoolTeams) {
  PoolBackendSection section;
  const nnz_t length = 512;
  PrivateBuffers bufs(kThreads, length);
  bufs.clear(length, kThreads);
  parallel_region(kThreads, [&](int tid, int) {
    std::span<val_t> mine = bufs.buffer(tid);
    for (nnz_t i = 0; i < length; ++i) {
      mine[i] += static_cast<val_t>(tid + 1) / static_cast<val_t>(i + 1);
    }
  });
  aligned_vector<val_t> out(static_cast<std::size_t>(length), 0.0);
  bufs.reduce_into({out.data(), out.size()}, kThreads);

  aligned_vector<val_t> expected(static_cast<std::size_t>(length), 0.0);
  for (int t = 0; t < kThreads; ++t) {
    for (nnz_t i = 0; i < length; ++i) {
      expected[static_cast<std::size_t>(i)] +=
          static_cast<val_t>(t + 1) / static_cast<val_t>(i + 1);
    }
  }
  for (nnz_t i = 0; i < length; ++i) {
    ASSERT_EQ(out[static_cast<std::size_t>(i)],
              expected[static_cast<std::size_t>(i)])
        << "lane " << i;
  }
}

// Nested regions from inside a pool team serialize (matching
// omp_set_max_active_levels(1)); the inner bodies run on the enclosing
// worker with tid 0 and must not deadlock against the shared pool.
TEST(PoolBackendStress, NestedRegionsSerializeWithoutDeadlock) {
  PoolBackendSection section;
  std::atomic<int> inner_runs{0};
  std::atomic<int> bad{0};
  for (int round = 0; round < kRounds; ++round) {
    parallel_region(kThreads, [&](int, int) {
      parallel_region(kThreads, [&](int tid, int nt) {
        inner_runs.fetch_add(1, std::memory_order_relaxed);
        if (tid != 0 || nt != 1) bad.fetch_add(1, std::memory_order_relaxed);
      });
    });
  }
  EXPECT_EQ(inner_runs.load(), kRounds * kThreads);
  EXPECT_EQ(bad.load(), 0);
}

// The production CsfSet sort and build on pool teams. Each stable
// counting pass fills per-thread histogram rows, scans them on the
// submitter, then scatters every block into disjoint destination slots;
// each CSF build counts fibers per block of whole root slices, scans the
// counts on the submitter, then writes every block's stream entries at
// disjoint offsets. A row shared between tids or a slot written twice is
// a TSan race on plain memory here, and a bitwise mismatch against the
// 1-thread build.
TEST(PoolBackendStress, StableSortCsfSetBitwiseUnderPoolTeams) {
  PoolBackendSection section;
  const SparseTensor input = generate_synthetic(
      {.dims = {300, 70, 500}, .nnz = 20000, .seed = 31,
       .zipf_exponent = 0.8});
  for (const auto policy : {CsfPolicy::kTwoMode, CsfPolicy::kAllMode}) {
    SparseTensor serial_coo = input;
    const CsfSet serial(serial_coo, policy, 1);
    SparseTensor pool_coo = input;
    const CsfSet pooled(pool_coo, policy, kThreads);
    ASSERT_EQ(pooled.csfs().size(), serial.csfs().size());
    for (std::size_t r = 0; r < serial.csfs().size(); ++r) {
      const CsfTensor& a = pooled.csfs()[r];
      const CsfTensor& b = serial.csfs()[r];
      ASSERT_EQ(a.mode_order(), b.mode_order());
      for (int l = 0; l < b.order(); ++l) {
        ASSERT_EQ(a.nfibers(l), b.nfibers(l));
        ASSERT_EQ(a.fid_width(l), b.fid_width(l));
        for (nnz_t f = 0; f < b.nfibers(l); ++f) {
          ASSERT_EQ(a.fid(l, f), b.fid(l, f)) << "rep " << r << " level " << l;
        }
        if (l + 1 == b.order()) continue;
        ASSERT_EQ(a.ptr_width(l), b.ptr_width(l));
        for (nnz_t f = 0; f <= b.nfibers(l); ++f) {
          ASSERT_EQ(a.ptr(l, f), b.ptr(l, f)) << "rep " << r << " level " << l;
        }
      }
      ASSERT_TRUE(std::ranges::equal(a.root_nnz_prefix(),
                                     b.root_nnz_prefix()));
      ASSERT_EQ(std::memcmp(a.vals().data(), b.vals().data(),
                            b.nnz() * sizeof(val_t)),
                0);
    }
    for (int m = 0; m < input.order(); ++m) {
      ASSERT_TRUE(std::equal(pool_coo.ind(m).begin(), pool_coo.ind(m).end(),
                             serial_coo.ind(m).begin()));
    }
  }
}

// The dist shm ring's release/acquire tag protocol, driven by one
// transport per "rank" on plain threads (the production shape is one per
// forked process; TSan can only watch the in-process shape). Every op must
// produce the identical locale-order sum on every rank, bitwise.
TEST(ShmRingStress, ConcurrentLayerReducesAreBitwiseAndClean) {
  const std::size_t nranks = static_cast<std::size_t>(kThreads);
  const idx_t rows = 12;
  const idx_t rank = 5;
  const la::Matrix probe(1, rank);
  const std::size_t slot_doubles =
      static_cast<std::size_t>(rows) * probe.ld();
  const int ops = 3 * kRounds;
  const std::uint64_t finish_op = static_cast<std::uint64_t>(ops);

  const std::size_t bytes = ShmRing::bytes_needed(nranks, slot_doubles);
  void* mem = ::operator new(bytes, std::align_val_t{64});
  ShmRing ring(mem, nranks, slot_doubles, /*init=*/true);

  const auto fill_partial = [&](std::size_t r, int op, la::Matrix& m) {
    for (idx_t i = 0; i < rows; ++i) {
      for (idx_t j = 0; j < rank; ++j) {
        m(i, j) = static_cast<double>(r + 1) * 0.25 +
                  static_cast<double>(op) * 0.125 +
                  static_cast<double>(i * rank + j) * 0.0625;
      }
    }
  };

  // outputs[r][op] = rank r's view of the reduced matrix after op.
  std::vector<std::vector<la::Matrix>> outputs(nranks);
  const std::vector<nnz_t> locale_nnz(nranks, 1);  // no empty locales
  run_threads(kThreads, [&](int tid) {
    const std::size_t r = static_cast<std::size_t>(tid);
    dist::ShmTransport tr(ring, r, locale_nnz, finish_op,
                          /*deadline_s=*/30.0, /*bells=*/nullptr);
    la::Matrix partial(rows, rank);
    std::vector<const la::Matrix*> partials(nranks, nullptr);
    for (int op = 0; op < ops; ++op) {
      fill_partial(r, op, partial);
      partials[r] = &partial;
      la::Matrix out(rows, rank);
      tr.allreduce(static_cast<std::uint64_t>(op), 0, partials, out);
      outputs[r].push_back(std::move(out));
    }
    tr.finalize();
  });

  // Serial reference: locale-order sum over physical buffers.
  la::Matrix expect(rows, rank);
  la::Matrix part(rows, rank);
  for (int op = 0; op < ops; ++op) {
    expect.fill(0);
    for (std::size_t r = 0; r < nranks; ++r) {
      fill_partial(r, op, part);
      double* dst = expect.data();
      const double* src = part.data();
      for (std::size_t i = 0; i < expect.size(); ++i) dst[i] += src[i];
    }
    for (std::size_t r = 0; r < nranks; ++r) {
      ASSERT_EQ(outputs[r][static_cast<std::size_t>(op)].max_abs_diff(
                    expect),
                0.0)
          << "rank " << r << " op " << op;
    }
  }
  ::operator delete(mem, std::align_val_t{64});
}

// Empty locales still publish their sequence tags (that publication is
// what keeps rank 0 from overwriting a broadcast they haven't consumed);
// their payload must be ignored in the sum.
TEST(ShmRingStress, EmptyLocalesPublishTagsButAddNothing) {
  const std::size_t nranks = static_cast<std::size_t>(kThreads);
  const idx_t rows = 6;
  const idx_t rank = 3;
  const la::Matrix probe(1, rank);
  const std::size_t slot_doubles =
      static_cast<std::size_t>(rows) * probe.ld();
  const int ops = kRounds;
  const std::uint64_t finish_op = static_cast<std::uint64_t>(ops);

  const std::size_t bytes = ShmRing::bytes_needed(nranks, slot_doubles);
  void* mem = ::operator new(bytes, std::align_val_t{64});
  ShmRing ring(mem, nranks, slot_doubles, /*init=*/true);

  std::vector<nnz_t> locale_nnz(nranks, 1);
  for (std::size_t r = 1; r < nranks; r += 2) locale_nnz[r] = 0;

  std::vector<std::vector<la::Matrix>> outputs(nranks);
  run_threads(kThreads, [&](int tid) {
    const std::size_t r = static_cast<std::size_t>(tid);
    dist::ShmTransport tr(ring, r, locale_nnz, finish_op,
                          /*deadline_s=*/30.0, /*bells=*/nullptr);
    la::Matrix partial(rows, rank);
    partial.fill(static_cast<double>(r + 1));
    std::vector<const la::Matrix*> partials(nranks, nullptr);
    if (locale_nnz[r] != 0) partials[r] = &partial;
    for (int op = 0; op < ops; ++op) {
      la::Matrix out(rows, rank);
      tr.allreduce(static_cast<std::uint64_t>(op), 0, partials, out);
      outputs[r].push_back(std::move(out));
    }
    tr.finalize();
  });

  double contributing = 0;
  for (std::size_t r = 0; r < nranks; ++r) {
    if (locale_nnz[r] != 0) contributing += static_cast<double>(r + 1);
  }
  for (std::size_t r = 0; r < nranks; ++r) {
    for (int op = 0; op < ops; ++op) {
      EXPECT_EQ(outputs[r][static_cast<std::size_t>(op)](0, 0),
                contributing)
          << "rank " << r << " op " << op;
    }
  }
  ::operator delete(mem, std::align_val_t{64});
}

}  // namespace
}  // namespace sptd
