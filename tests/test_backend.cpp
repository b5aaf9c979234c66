// Backend equivalence suite: the same regions, schedules, and kernels
// must produce the same numbers whether the team underneath is libgomp
// (`--backend omp`) or the persistent std::thread pool (`--backend
// pool`).
//
// What "same" means depends on whether the computation is
// order-deterministic:
//  * Single-thread runs and multi-thread privatized runs under the
//    static/weighted schedules are bitwise identical across backends:
//    every thread processes a fixed slice range in a fixed order and the
//    reduction sums per-thread buffers in fixed index order.
//  * Multi-thread runs under locks or under the workstealing
//    schedule are timing-order nondeterministic even on one backend
//    (deposit interleaving / chunk ownership varies run to run), so
//    those compare at 1e-12 — the same tolerance test_mttkrp uses for
//    omp-vs-omp schedule equivalences.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "cpd/cpals.hpp"
#include "csf/csf.hpp"
#include "mttkrp/mttkrp.hpp"
#include "mttkrp/plan.hpp"
#include "parallel/backend.hpp"
#include "parallel/locks.hpp"
#include "parallel/team.hpp"
#include "tensor/synthetic.hpp"

namespace sptd {
namespace {

/// Restores the process-wide backend selection on scope exit, so a
/// failing test cannot leak `pool` into unrelated tests.
class BackendGuard {
 public:
  BackendGuard() : prior_(parallel_backend()) {}
  ~BackendGuard() { set_parallel_backend(prior_); }
  BackendGuard(const BackendGuard&) = delete;
  BackendGuard& operator=(const BackendGuard&) = delete;

 private:
  ParallelBackendKind prior_;
};

SparseTensor make_tensor(dims_t dims, nnz_t nnz, std::uint64_t seed) {
  return generate_synthetic(
      {.dims = dims, .nnz = nnz, .seed = seed, .zipf_exponent = 0.6});
}

std::vector<la::Matrix> make_factors(const SparseTensor& t, idx_t rank,
                                     std::uint64_t seed) {
  Rng rng(seed);
  std::vector<la::Matrix> factors;
  for (int m = 0; m < t.order(); ++m) {
    factors.push_back(la::Matrix::random(t.dim(m), rank, rng));
  }
  return factors;
}

// ------------------------------------------------------------ selection

TEST(BackendParse, RoundTrips) {
  EXPECT_EQ(parse_parallel_backend("omp"), ParallelBackendKind::kOmp);
  EXPECT_EQ(parse_parallel_backend("pool"), ParallelBackendKind::kPool);
  EXPECT_STREQ(parallel_backend_name(ParallelBackendKind::kOmp), "omp");
  EXPECT_STREQ(parallel_backend_name(ParallelBackendKind::kPool), "pool");
  EXPECT_THROW(parse_parallel_backend("tbb"), Error);
  EXPECT_THROW(parse_parallel_backend(""), Error);
}

TEST(BackendSelect, SetAndQuery) {
  BackendGuard guard;
  set_parallel_backend(ParallelBackendKind::kPool);
  EXPECT_EQ(parallel_backend(), ParallelBackendKind::kPool);
  set_parallel_backend(ParallelBackendKind::kOmp);
  EXPECT_EQ(parallel_backend(), ParallelBackendKind::kOmp);
}

TEST(BackendSelect, MaxThreadsAgreesAcrossBackends) {
  // Both backends answer the team-size default with the same OpenMP
  // query, so thread sweeps mean the same thing under either.
  BackendGuard guard;
  set_parallel_backend(ParallelBackendKind::kOmp);
  const int omp_threads = hardware_threads();
  set_parallel_backend(ParallelBackendKind::kPool);
  EXPECT_EQ(hardware_threads(), omp_threads);
}

// ---------------------------------------------------------- team shape

TEST(PoolBackend, ExactTeamSizeEveryTidExactlyOnce) {
  // 8 team slots on however many workers the box has (possibly 1): each
  // tid must run exactly once and observe the full team size.
  BackendGuard guard;
  set_parallel_backend(ParallelBackendKind::kPool);
  constexpr int kTeam = 8;
  std::array<std::atomic<int>, kTeam> hits{};
  std::atomic<int> bad_nt{0};
  parallel_region(kTeam, [&](int tid, int nt) {
    if (nt != kTeam) bad_nt.fetch_add(1);
    hits[static_cast<std::size_t>(tid)].fetch_add(1);
  });
  EXPECT_EQ(bad_nt.load(), 0);
  for (int t = 0; t < kTeam; ++t) {
    EXPECT_EQ(hits[static_cast<std::size_t>(t)].load(), 1) << "tid " << t;
  }
}

TEST(PoolBackend, RepeatedRegionsReuseWorkers) {
  // Fork/join cadence: many short regions in a row, exercising both the
  // workers' spin path and (with the gaps) the parking path.
  BackendGuard guard;
  set_parallel_backend(ParallelBackendKind::kPool);
  for (int round = 0; round < 200; ++round) {
    std::atomic<int> sum{0};
    parallel_region(4, [&](int tid, int) { sum.fetch_add(tid + 1); });
    ASSERT_EQ(sum.load(), 10) << "round " << round;
  }
}

TEST(BackendNesting, InnerRegionSerializesOnBothBackends) {
  // Matches omp_set_max_active_levels(1): a parallel_region entered from
  // inside a multi-thread region runs its body as a team of one.
  for (const auto kind :
       {ParallelBackendKind::kOmp, ParallelBackendKind::kPool}) {
    BackendGuard guard;
    set_parallel_backend(kind);
    std::atomic<int> inner_runs{0};
    std::atomic<int> bad_inner{0};
    parallel_region(2, [&](int, int) {
      parallel_region(4, [&](int tid, int nt) {
        inner_runs.fetch_add(1);
        if (tid != 0 || nt != 1) {
          bad_inner.fetch_add(1);
        }
      });
    });
    EXPECT_EQ(inner_runs.load(), 2) << parallel_backend_name(kind);
    EXPECT_EQ(bad_inner.load(), 0) << parallel_backend_name(kind);
  }
}

TEST(BackendNesting, SingleThreadInlineIsNotARegion) {
  // parallel_region(1) takes the inline shortcut on every backend — it
  // is not a parallel region, so a region launched from inside it gets
  // its full team (matching OpenMP, where the shortcut never enters
  // libgomp and the inner region runs at nesting level 0).
  for (const auto kind :
       {ParallelBackendKind::kOmp, ParallelBackendKind::kPool}) {
    BackendGuard guard;
    set_parallel_backend(kind);
    std::atomic<int> inner_team{0};
    parallel_region(1, [&](int, int) {
      parallel_region(3, [&](int, int nt) { inner_team.store(nt); });
    });
    EXPECT_EQ(inner_team.load(), 3) << parallel_backend_name(kind);
  }
}

// ----------------------------------------------------------- lock pools

TEST(BackendLockPool, MutualExclusionUnderPoolBackend) {
  // LockKind::kOmp resolves to the FutexLock flavor under the pool
  // backend. Hammer one AnyMutexPool from a pool-backend team and check
  // the plain counters survived.
  BackendGuard guard;
  set_parallel_backend(ParallelBackendKind::kPool);
  AnyMutexPool pool(LockKind::kOmp);
  constexpr int kSlots = 8;
  constexpr int kIters = 2000;
  constexpr int kTeam = 4;
  std::array<long, kSlots> counters{};
  parallel_region(kTeam, [&](int tid, int) {
    for (int i = 0; i < kIters; ++i) {
      const idx_t slot = static_cast<idx_t>((i + tid) % kSlots);
      pool.lock(slot);
      counters[static_cast<std::size_t>(slot)] += 1;
      pool.unlock(slot);
    }
  });
  long total = 0;
  for (const long c : counters) total += c;
  EXPECT_EQ(total, static_cast<long>(kTeam) * kIters);
}

TEST(BackendLockPool, BuildsOnlyTheSelectedKind) {
  // Each kind builds one pool; kOmp picks its flavor from the backend
  // active at construction and keeps it when the backend changes later.
  BackendGuard guard;
  set_parallel_backend(ParallelBackendKind::kOmp);
  const AnyMutexPool omp_backed(LockKind::kOmp);
  set_parallel_backend(ParallelBackendKind::kPool);
  const AnyMutexPool pool_backed(LockKind::kOmp);
  EXPECT_TRUE(omp_backed.holds<OmpLock>());
  EXPECT_FALSE(omp_backed.holds<FutexLock>());
  EXPECT_TRUE(pool_backed.holds<FutexLock>());
  EXPECT_FALSE(pool_backed.holds<OmpLock>());
  EXPECT_TRUE(AnyMutexPool(LockKind::kSync).holds<SyncVarLock>());
  EXPECT_TRUE(AnyMutexPool(LockKind::kAtomic).holds<AtomicSpinLock>());
  EXPECT_TRUE(AnyMutexPool(LockKind::kFifoSync).holds<FifoSyncLock>());
}

TEST(BackendLockPool, FutexLockIsMutualExclusive) {
  BackendGuard guard;
  set_parallel_backend(ParallelBackendKind::kPool);
  FutexLock lock;
  long counter = 0;
  parallel_region(4, [&](int, int) {
    for (int i = 0; i < 5000; ++i) {
      lock.lock();
      counter += 1;
      lock.unlock();
    }
  });
  EXPECT_EQ(counter, 4L * 5000L);
}

// ------------------------------------------------- MTTKRP equivalence

la::Matrix run_mttkrp(const CsfSet& set, const std::vector<la::Matrix>& f,
                      idx_t rank, int mode, const MttkrpOptions& opts) {
  MttkrpPlan plan(set, rank, opts);
  la::Matrix out(set.csfs().front().dims()[static_cast<std::size_t>(mode)],
                 rank);
  plan.execute(f, mode, out);
  return out;
}

struct SyncConfig {
  const char* name;
  bool force_locks;
  double privatization_threshold;
};

constexpr SyncConfig kSyncConfigs[] = {
    // Force the locked deposits (the backend's lock flavor under kOmp).
    {"locks", true, 0.0},
    // Force privatized per-thread buffers + deterministic reduction.
    {"privatize", false, 1e9},
};

constexpr SchedulePolicy kPolicies[] = {SchedulePolicy::kWeighted,
                                        SchedulePolicy::kWorkStealing};

class BackendMttkrpTest : public ::testing::Test {
 protected:
  static MttkrpOptions base_options(int nthreads, SchedulePolicy policy,
                                    const SyncConfig& sync) {
    MttkrpOptions opts;
    opts.nthreads = nthreads;
    opts.schedule = policy;
    opts.force_locks = sync.force_locks;
    opts.privatization_threshold = sync.privatization_threshold;
    return opts;
  }
};

TEST_F(BackendMttkrpTest, SingleThreadBitwiseAcrossBackends) {
  BackendGuard guard;
  for (const idx_t rank : {idx_t{8}, idx_t{35}}) {
    const SparseTensor base = make_tensor({50, 90, 130}, 4000, 7 + rank);
    SparseTensor work = base;
    const CsfSet set(work, CsfPolicy::kTwoMode, 1);
    const auto factors = make_factors(base, rank, 11);
    for (const SchedulePolicy policy : kPolicies) {
      for (const SyncConfig& sync : kSyncConfigs) {
        MttkrpOptions opts = base_options(1, policy, sync);
        for (int mode = 0; mode < base.order(); ++mode) {
          opts.backend = ParallelBackendKind::kOmp;
          const la::Matrix omp_out =
              run_mttkrp(set, factors, rank, mode, opts);
          opts.backend = ParallelBackendKind::kPool;
          const la::Matrix pool_out =
              run_mttkrp(set, factors, rank, mode, opts);
          EXPECT_EQ(omp_out.max_abs_diff(pool_out), 0.0)
              << "rank " << rank << " mode " << mode << " "
              << schedule_policy_name(policy) << " " << sync.name;
        }
      }
    }
  }
}

TEST_F(BackendMttkrpTest, WeightedPrivatizedBitwiseAtFourThreads) {
  // Fixed per-thread slice ranges + fixed-order reduction: bitwise
  // across backends even multi-threaded.
  BackendGuard guard;
  for (const idx_t rank : {idx_t{8}, idx_t{35}}) {
    const SparseTensor base = make_tensor({50, 90, 130}, 4000, 19 + rank);
    SparseTensor work = base;
    const CsfSet set(work, CsfPolicy::kTwoMode, 4);
    const auto factors = make_factors(base, rank, 13);
    MttkrpOptions opts =
        base_options(4, SchedulePolicy::kWeighted, kSyncConfigs[1]);
    for (int mode = 0; mode < base.order(); ++mode) {
      opts.backend = ParallelBackendKind::kOmp;
      const la::Matrix omp_out = run_mttkrp(set, factors, rank, mode, opts);
      opts.backend = ParallelBackendKind::kPool;
      const la::Matrix pool_out = run_mttkrp(set, factors, rank, mode, opts);
      EXPECT_EQ(omp_out.max_abs_diff(pool_out), 0.0)
          << "rank " << rank << " mode " << mode;
    }
  }
}

TEST_F(BackendMttkrpTest, AllPoliciesAndSyncsMatchAtFourThreads) {
  // The timing-order-nondeterministic configurations (locks;
  // workstealing ownership) compare at the cross-schedule tolerance.
  BackendGuard guard;
  for (const idx_t rank : {idx_t{8}, idx_t{35}}) {
    const SparseTensor base = make_tensor({50, 90, 130}, 4000, 29 + rank);
    SparseTensor work = base;
    const CsfSet set(work, CsfPolicy::kTwoMode, 4);
    const auto factors = make_factors(base, rank, 17);
    for (const SchedulePolicy policy : kPolicies) {
      for (const SyncConfig& sync : kSyncConfigs) {
        MttkrpOptions opts = base_options(4, policy, sync);
        for (int mode = 0; mode < base.order(); ++mode) {
          opts.backend = ParallelBackendKind::kOmp;
          const la::Matrix omp_out =
              run_mttkrp(set, factors, rank, mode, opts);
          opts.backend = ParallelBackendKind::kPool;
          const la::Matrix pool_out =
              run_mttkrp(set, factors, rank, mode, opts);
          EXPECT_LT(omp_out.max_abs_diff(pool_out), 1e-12)
              << "rank " << rank << " mode " << mode << " "
              << schedule_policy_name(policy) << " " << sync.name;
        }
      }
    }
  }
}

// ------------------------------------------------- CP-ALS equivalence

TEST(BackendCpals, PrivatizedRunBitwiseAcrossBackends) {
  // Weighted schedule + forced privatization keeps every iteration
  // order-deterministic, so the full solver — MTTKRP, Grams, solves,
  // normalization, fit — must agree bitwise at a fixed team size.
  BackendGuard guard;
  const SparseTensor base = make_tensor({40, 80, 120}, 3000, 41);
  CpalsOptions opts;
  opts.rank = 8;
  opts.max_iterations = 5;
  opts.tolerance = 0.0;
  opts.nthreads = 4;
  opts.schedule = SchedulePolicy::kWeighted;
  opts.privatization_threshold = 1e9;  // force privatize at every mode

  SparseTensor t_omp = base;
  opts.backend = ParallelBackendKind::kOmp;
  const CpalsResult r_omp = cp_als(t_omp, opts);

  SparseTensor t_pool = base;
  opts.backend = ParallelBackendKind::kPool;
  const CpalsResult r_pool = cp_als(t_pool, opts);

  ASSERT_EQ(r_omp.fit_history.size(), r_pool.fit_history.size());
  for (std::size_t i = 0; i < r_omp.fit_history.size(); ++i) {
    EXPECT_EQ(r_omp.fit_history[i], r_pool.fit_history[i]) << "iter " << i;
  }
  for (int m = 0; m < base.order(); ++m) {
    EXPECT_EQ(r_omp.model.factors[static_cast<std::size_t>(m)].max_abs_diff(
                  r_pool.model.factors[static_cast<std::size_t>(m)]),
              0.0)
        << "factor " << m;
  }
  for (std::size_t i = 0; i < r_omp.model.lambda.size(); ++i) {
    EXPECT_EQ(r_omp.model.lambda[i], r_pool.model.lambda[i]);
  }
}

TEST(BackendCpals, LockedRunMatchesAcrossBackends) {
  // Locked deposits are timing-order nondeterministic; the solver-level
  // agreement bound matches the schedule-equivalence tolerance.
  BackendGuard guard;
  const SparseTensor base = make_tensor({40, 80, 120}, 3000, 43);
  CpalsOptions opts;
  opts.rank = 8;
  opts.max_iterations = 3;
  opts.tolerance = 0.0;
  opts.nthreads = 4;
  opts.schedule = SchedulePolicy::kWeighted;
  opts.force_locks = true;

  SparseTensor t_omp = base;
  opts.backend = ParallelBackendKind::kOmp;
  const CpalsResult r_omp = cp_als(t_omp, opts);

  SparseTensor t_pool = base;
  opts.backend = ParallelBackendKind::kPool;
  const CpalsResult r_pool = cp_als(t_pool, opts);

  ASSERT_EQ(r_omp.fit_history.size(), r_pool.fit_history.size());
  for (std::size_t i = 0; i < r_omp.fit_history.size(); ++i) {
    EXPECT_NEAR(r_omp.fit_history[i], r_pool.fit_history[i], 1e-9)
        << "iter " << i;
  }
}

}  // namespace
}  // namespace sptd
