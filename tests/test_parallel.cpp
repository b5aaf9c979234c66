// Tests for src/parallel: team, partitioning, prefix sums, locks,
// privatized buffers.

#include <gtest/gtest.h>
#include <omp.h>

#include <atomic>
#include <numeric>
#include <vector>

#include "common/error.hpp"
#include "parallel/backend.hpp"
#include "parallel/locks.hpp"
#include "parallel/partition.hpp"
#include "parallel/reduce.hpp"
#include "parallel/team.hpp"

namespace sptd {
namespace {

// ------------------------------------------------------------------ team

TEST(Team, OmpRegionPinsTeamShapeAndHardwareThreadsIsMaxThreads) {
  // The omp backend's first team runs init_parallel_runtime(): no dynamic
  // thread adjustment (requested team sizes are honored exactly) and one
  // active nesting level. hardware_threads() is OpenMP's own answer under
  // every backend, so OMP_NUM_THREADS means the same thing everywhere.
  const ParallelBackendKind prior = parallel_backend();
  set_parallel_backend(ParallelBackendKind::kOmp);
  std::atomic<int> team{0};
  parallel_region(2, [&](int, int nt) { team.store(nt); });
  EXPECT_EQ(team.load(), 2);
  EXPECT_EQ(omp_get_dynamic(), 0);
  EXPECT_EQ(omp_get_max_active_levels(), 1);
  EXPECT_EQ(hardware_threads(), omp_get_max_threads());
  set_parallel_backend(ParallelBackendKind::kPool);
  EXPECT_EQ(hardware_threads(), omp_get_max_threads());
  set_parallel_backend(prior);
}

TEST(Team, SingleThreadRunsInline) {
  int calls = 0;
  parallel_region(1, [&](int tid, int nt) {
    EXPECT_EQ(tid, 0);
    EXPECT_EQ(nt, 1);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(Team, EveryTidAppearsExactlyOnce) {
  constexpr int kThreads = 8;
  std::vector<std::atomic<int>> hits(kThreads);
  parallel_region(kThreads, [&](int tid, int nt) {
    ASSERT_EQ(nt, kThreads);
    ASSERT_GE(tid, 0);
    ASSERT_LT(tid, kThreads);
    hits[static_cast<std::size_t>(tid)].fetch_add(1);
  });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(Team, RejectsZeroThreads) {
  EXPECT_THROW(parallel_region(0, [](int, int) {}), Error);
}

// ------------------------------------------------------------- partition

TEST(BlockPartition, CoversRangeDisjointly) {
  for (const nnz_t total : {0ULL, 1ULL, 7ULL, 100ULL, 1000003ULL}) {
    for (const int parts : {1, 2, 3, 7, 32}) {
      nnz_t expect_begin = 0;
      for (int p = 0; p < parts; ++p) {
        const Range r = block_partition(total, parts, p);
        EXPECT_EQ(r.begin, expect_begin);
        expect_begin = r.end;
      }
      EXPECT_EQ(expect_begin, total);
    }
  }
}

TEST(BlockPartition, SizesDifferByAtMostOne) {
  const Range r0 = block_partition(10, 3, 0);
  const Range r1 = block_partition(10, 3, 1);
  const Range r2 = block_partition(10, 3, 2);
  EXPECT_EQ(r0.size(), 4u);
  EXPECT_EQ(r1.size(), 3u);
  EXPECT_EQ(r2.size(), 3u);
}

TEST(BlockPartition, MorePartsThanItems) {
  int nonempty = 0;
  for (int p = 0; p < 8; ++p) {
    if (block_partition(3, 8, p).size() > 0) ++nonempty;
  }
  EXPECT_EQ(nonempty, 3);
}

TEST(BlockPartition, InvalidArgsThrow) {
  EXPECT_THROW(block_partition(10, 0, 0), Error);
  EXPECT_THROW(block_partition(10, 2, 2), Error);
  EXPECT_THROW(block_partition(10, 2, -1), Error);
}

TEST(WeightedPartition, BoundariesMonotoneAndCover) {
  // Items with very skewed weights.
  std::vector<nnz_t> weights = {100, 1, 1, 1, 1, 1, 1, 95};
  std::vector<nnz_t> prefix(weights.size() + 1, 0);
  std::partial_sum(weights.begin(), weights.end(), prefix.begin() + 1);
  const auto bounds = weighted_partition(prefix, 4);
  ASSERT_EQ(bounds.size(), 5u);
  EXPECT_EQ(bounds.front(), 0u);
  EXPECT_EQ(bounds.back(), weights.size());
  for (std::size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LE(bounds[i - 1], bounds[i]);
  }
}

TEST(WeightedPartition, BalancedWeightsSplitEvenly) {
  std::vector<nnz_t> prefix(101);
  for (std::size_t i = 0; i <= 100; ++i) {
    prefix[i] = i;  // 100 items of weight 1
  }
  const auto bounds = weighted_partition(prefix, 4);
  EXPECT_EQ(bounds, (std::vector<nnz_t>{0, 25, 50, 75, 100}));
}

TEST(WeightedPartition, HandlesZeroWeightRuns) {
  // Many empty items between two heavy ones.
  std::vector<nnz_t> prefix = {0, 50, 50, 50, 50, 100};
  const auto bounds = weighted_partition(prefix, 2);
  EXPECT_EQ(bounds.front(), 0u);
  EXPECT_EQ(bounds.back(), 5u);
  // Split lands between the heavy items.
  EXPECT_GE(bounds[1], 1u);
  EXPECT_LE(bounds[1], 4u);
}

TEST(WeightedPartition, SinglePartTakesAll) {
  std::vector<nnz_t> prefix = {0, 3, 9};
  const auto bounds = weighted_partition(prefix, 1);
  EXPECT_EQ(bounds, (std::vector<nnz_t>{0, 2}));
}

class PrefixSumTest : public ::testing::TestWithParam<std::tuple<int, int>> {
};

TEST_P(PrefixSumTest, MatchesSerialScan) {
  const auto [n, nthreads] = GetParam();
  std::vector<nnz_t> in(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    in[static_cast<std::size_t>(i)] = static_cast<nnz_t>((i * 7 + 3) % 11);
  }
  std::vector<nnz_t> expected(in.size());
  nnz_t acc = 0;
  for (std::size_t i = 0; i < in.size(); ++i) {
    expected[i] = acc;
    acc += in[i];
  }
  std::vector<nnz_t> out(in.size());
  parallel_prefix_sum(in, out, nthreads);
  EXPECT_EQ(out, expected);
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndThreads, PrefixSumTest,
    ::testing::Combine(::testing::Values(0, 1, 100, 5000, 100000),
                       ::testing::Values(1, 2, 4, 8)));

// ----------------------------------------------------------------- locks

TEST(LockKind, ParseRoundTrips) {
  for (const auto kind : {LockKind::kSync, LockKind::kAtomic,
                          LockKind::kFifoSync, LockKind::kOmp}) {
    EXPECT_EQ(parse_lock_kind(lock_kind_name(kind)), kind);
  }
  EXPECT_THROW(parse_lock_kind("bogus"), Error);
}

class LockStressTest : public ::testing::TestWithParam<LockKind> {};

TEST_P(LockStressTest, MutualExclusionUnderContention) {
  AnyMutexPool pool(GetParam());
  constexpr int kThreads = 8;
  constexpr int kIters = 2000;
  // All threads hammer the same two pool slots; the protected counters
  // must see every increment.
  long counter_a = 0;
  long counter_b = 0;
  parallel_region(kThreads, [&](int, int) {
    for (int i = 0; i < kIters; ++i) {
      pool.lock(0);
      ++counter_a;
      pool.unlock(0);
      pool.lock(1);
      ++counter_b;
      pool.unlock(1);
    }
  });
  EXPECT_EQ(counter_a, static_cast<long>(kThreads) * kIters);
  EXPECT_EQ(counter_b, static_cast<long>(kThreads) * kIters);
}

TEST_P(LockStressTest, DistinctRowsUseDistinctSlots) {
  AnyMutexPool pool(GetParam());
  // Locking different slots from the same thread must not deadlock.
  pool.lock(3);
  pool.lock(4);
  pool.unlock(4);
  pool.unlock(3);
  SUCCEED();
}

TEST_P(LockStressTest, SlotHashingWrapsPoolSize) {
  AnyMutexPool pool(GetParam());
  // Row ids that collide modulo the pool size share a lock; acquiring the
  // colliding id after releasing must succeed.
  const idx_t id = 7;
  const idx_t colliding = static_cast<idx_t>(7 + kMutexPoolSize);
  pool.lock(id);
  pool.unlock(id);
  pool.lock(colliding);
  pool.unlock(colliding);
  SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(AllKinds, LockStressTest,
                         ::testing::Values(LockKind::kSync, LockKind::kAtomic,
                                           LockKind::kFifoSync,
                                           LockKind::kOmp),
                         [](const auto& info) {
                           std::string n = lock_kind_name(info.param);
                           for (auto& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

TEST(MutexPool, SlotMaskMatchesPoolSize) {
  EXPECT_EQ(MutexPool<AtomicSpinLock>::slot(0), 0u);
  EXPECT_EQ(MutexPool<AtomicSpinLock>::slot(kMutexPoolSize), 0u);
  EXPECT_EQ(MutexPool<AtomicSpinLock>::slot(kMutexPoolSize + 5), 5u);
}

// --------------------------------------------------------------- buffers

TEST(PrivateBuffers, BuffersAreZeroInitialized) {
  PrivateBuffers pb(3, 16);
  for (int t = 0; t < 3; ++t) {
    for (const val_t v : pb.buffer(t)) {
      EXPECT_EQ(v, 0.0);
    }
  }
}

TEST(PrivateBuffers, ReduceSumsAcrossThreads) {
  constexpr int kThreads = 4;
  constexpr nnz_t kLen = 100;
  PrivateBuffers pb(kThreads, kLen);
  for (int t = 0; t < kThreads; ++t) {
    auto buf = pb.buffer(t);
    for (nnz_t i = 0; i < kLen; ++i) {
      buf[i] = static_cast<val_t>(t + 1);
    }
  }
  std::vector<val_t> dst(kLen, 1.0);  // reduce adds into dst
  pb.reduce_into(dst, 2);
  for (const val_t v : dst) {
    EXPECT_DOUBLE_EQ(v, 1.0 + 1 + 2 + 3 + 4);
  }
}

TEST(PrivateBuffers, ReduceIntoPrefixOfBuffers) {
  PrivateBuffers pb(2, 50);
  pb.buffer(0)[0] = 2.0;
  pb.buffer(1)[0] = 3.0;
  std::vector<val_t> dst(10, 0.0);  // shorter than buffer length
  pb.reduce_into(dst, 1);
  EXPECT_DOUBLE_EQ(dst[0], 5.0);
}

TEST(PrivateBuffers, ClearZeroesEverything) {
  PrivateBuffers pb(2, 8);
  pb.buffer(0)[3] = 7.0;
  pb.buffer(1)[5] = 9.0;
  pb.clear(pb.length(), 2);
  for (int t = 0; t < 2; ++t) {
    for (const val_t v : pb.buffer(t)) {
      EXPECT_EQ(v, 0.0);
    }
  }
}

TEST(PrivateBuffers, ClearZeroesOnlyThePrefix) {
  // Each thread's first `used` values are zeroed, whatever the team size
  // of the clearing region; what lies past them is left untouched.
  constexpr int kThreads = 3;
  constexpr nnz_t kLen = 10;
  for (const nnz_t used : {nnz_t{0}, nnz_t{1}, nnz_t{7}, kLen}) {
    for (const int team : {1, 2, 4}) {
      PrivateBuffers pb(kThreads, kLen);
      for (int t = 0; t < kThreads; ++t) {
        for (val_t& v : pb.buffer(t)) {
          v = 1.0;
        }
      }
      pb.clear(used, team);
      for (int t = 0; t < kThreads; ++t) {
        for (nnz_t i = 0; i < kLen; ++i) {
          EXPECT_EQ(pb.buffer(t)[i], i < used ? 0.0 : 1.0)
              << "used " << used << " team " << team << " thread " << t
              << " index " << i;
        }
      }
    }
  }
  PrivateBuffers pb(2, 4);
  EXPECT_THROW(pb.clear(5, 1), Error);
}

TEST(PrivateBuffers, ReduceLongerThanBuffersThrows) {
  PrivateBuffers pb(2, 4);
  std::vector<val_t> dst(8, 0.0);
  EXPECT_THROW(pb.reduce_into(dst, 1), Error);
}

}  // namespace
}  // namespace sptd
