// Tests for src/mttkrp: every kernel level x row-access policy x sync
// strategy must match the dense oracle exactly (up to fp round-off).

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "common/error.hpp"
#include "csf/csf.hpp"
#include "mttkrp/mttkrp.hpp"
#include "mttkrp/plan.hpp"
#include "sort/sort.hpp"
#include "tensor/dense.hpp"
#include "tensor/synthetic.hpp"

namespace sptd {
namespace {

constexpr double kTol = 1e-9;

struct Fixture {
  SparseTensor coo;
  DenseTensor dense;
  std::vector<la::Matrix> factors;
  idx_t rank;

  Fixture(dims_t dims, nnz_t nnz, idx_t rank_, std::uint64_t seed)
      : coo(generate_synthetic(
            {.dims = dims, .nnz = nnz, .seed = seed, .zipf_exponent = 0.5})),
        dense(DenseTensor::from_coo(coo)),
        rank(rank_) {
    Rng rng(seed + 1);
    for (const idx_t d : dims) {
      factors.push_back(la::Matrix::random(d, rank, rng));
    }
  }

  la::Matrix oracle(int mode) const {
    la::Matrix out(coo.dim(mode), rank);
    dense.mttkrp(mode, factors, out);
    return out;
  }
};

// ------------------------------------------------------------ parse/misc

TEST(RowAccessParse, RoundTrips) {
  for (const auto ra :
       {RowAccess::kSlice, RowAccess::kIndex2D, RowAccess::kPointer}) {
    EXPECT_EQ(parse_row_access(row_access_name(ra)), ra);
  }
  EXPECT_EQ(parse_row_access("index2d"), RowAccess::kIndex2D);
  EXPECT_THROW(parse_row_access("bogus"), Error);
}

TEST(SyncStrategyNames, AreStable) {
  EXPECT_STREQ(sync_strategy_name(SyncStrategy::kNone), "none");
  EXPECT_STREQ(sync_strategy_name(SyncStrategy::kLock), "lock");
  EXPECT_STREQ(sync_strategy_name(SyncStrategy::kPrivatize), "privatize");
}

// -------------------------------------------- privatization heuristic

TEST(ChooseSync, RootLevelNeverSynchronizes) {
  MttkrpOptions opts;
  opts.nthreads = 32;
  EXPECT_EQ(
      choose_sync_strategy({100, 100, 100}, 0, /*level=*/0, 1000, 1000, opts),
      SyncStrategy::kNone);
}

TEST(ChooseSync, SingleThreadNeverSynchronizes) {
  MttkrpOptions opts;
  opts.nthreads = 1;
  EXPECT_EQ(
      choose_sync_strategy({100, 100, 100}, 1, /*level=*/1, 1000, 1000, opts),
      SyncStrategy::kNone);
}

TEST(ChooseSync, YelpShapeLocksBeyondTwoThreads) {
  // The paper's YELP behaviour (Section V-D2): privatized at <= 2 threads,
  // locks beyond. Mode 0 (41k) is the non-root mode of the TwoMode set.
  const dims_t yelp = {41000, 11000, 75000};
  const nnz_t nnz = 8000000;
  MttkrpOptions opts;
  opts.privatization_threshold = 0.02;  // SPLATT's heuristic
  opts.nthreads = 2;
  EXPECT_EQ(choose_sync_strategy(yelp, 0, 1, nnz, nnz, opts),
            SyncStrategy::kPrivatize);
  opts.nthreads = 4;
  EXPECT_EQ(choose_sync_strategy(yelp, 0, 1, nnz, nnz, opts),
            SyncStrategy::kLock);
  opts.nthreads = 32;
  EXPECT_EQ(choose_sync_strategy(yelp, 0, 1, nnz, nnz, opts),
            SyncStrategy::kLock);
}

TEST(ChooseSync, Nell2ShapeNeverLocks) {
  // NELL-2 privatizes at every thread count the paper tested (1-32).
  const dims_t nell2 = {12000, 9000, 29000};
  const nnz_t nnz = 77000000;
  MttkrpOptions opts;
  for (const int t : {2, 4, 8, 16, 32}) {
    opts.nthreads = t;
    EXPECT_EQ(choose_sync_strategy(nell2, 0, 1, nnz, nnz, opts),
              SyncStrategy::kPrivatize)
        << t << " threads";
  }
}

TEST(ChooseSync, YelpLockMixedShapePrivatizesByDefault) {
  // yelp@0.3's mode lengths at 1.0M nnz (zipf 0.6): mode 0 sits at level 1
  // over 905,268 fibers. SPLATT's rule locks it (2 * 12300 > 0.02 * 1e6);
  // the fiber-count rule privatizes at 2 and 4 threads.
  const dims_t shape = {12300, 3300, 22500};
  const nnz_t nnz = 1000000;
  const nnz_t fibers = 905268;
  MttkrpOptions opts;
  for (const int t : {2, 4}) {
    opts.nthreads = t;
    EXPECT_EQ(choose_sync_strategy(shape, 0, 1, nnz, fibers, opts),
              SyncStrategy::kPrivatize)
        << t << " threads";
  }
  opts.nthreads = 2;
  opts.privatization_threshold = 0.02;
  EXPECT_EQ(choose_sync_strategy(shape, 0, 1, nnz, fibers, opts),
            SyncStrategy::kLock);
}

TEST(ChooseSync, TooFewFibersLock) {
  // (T + 1) * dims[m] against k * nfibers(L): 5 * 5000 rows of replicas
  // pay off only over at least 25000 / k fibers.
  const dims_t dims = {1000, 5000, 100};
  const nnz_t nnz = 10000000;  // SPLATT's rule would privatize
  const auto even = static_cast<nnz_t>(25000 / kPrivatizeFiberFactor);
  MttkrpOptions opts;
  opts.nthreads = 4;
  EXPECT_EQ(choose_sync_strategy(dims, 1, 1, nnz, even, opts),
            SyncStrategy::kPrivatize);
  EXPECT_EQ(choose_sync_strategy(dims, 1, 1, nnz, even - 1, opts),
            SyncStrategy::kLock);
  EXPECT_EQ(choose_sync_strategy(dims, 1, 1, nnz, 2000, opts),
            SyncStrategy::kLock);
}

TEST(ChooseSync, LeafLevelCountsNonzeros) {
  // One CSF, T = 2: the level-1 mode (6 rows) has too few fibers to
  // privatize, while the leaf mode (60 rows) counts one deposit per
  // nonzero, which is more than its parent level's fiber count allows.
  const Fixture fx({4, 6, 60}, 600, 4, 900);
  const auto mode_order = csf_mode_order(fx.coo.dims(), 0);
  SparseTensor sorted = fx.coo;
  sort_tensor_perm(sorted, mode_order, 1);
  const CsfTensor csf(sorted, mode_order);
  ASSERT_EQ(csf.mode_at_level(1), 1);
  ASSERT_EQ(csf.mode_at_level(2), 2);
  ASSERT_EQ(csf.nfibers(2), csf.nnz());

  MttkrpOptions opts;
  opts.nthreads = 2;
  const double k = kPrivatizeFiberFactor;
  ASSERT_GT(3.0 * 6, k * static_cast<double>(csf.nfibers(1)));
  EXPECT_EQ(plan_mode(csf, 1, fx.rank, opts).strategy, SyncStrategy::kLock);
  ASSERT_GT(3.0 * 60, k * static_cast<double>(csf.nfibers(1)));
  ASSERT_LE(3.0 * 60, k * static_cast<double>(csf.nnz()));
  EXPECT_EQ(plan_mode(csf, 2, fx.rank, opts).strategy,
            SyncStrategy::kPrivatize);
}

TEST(ChooseSync, ForceLocksOverridesPrivatization) {
  MttkrpOptions opts;
  opts.nthreads = 4;
  opts.force_locks = true;
  EXPECT_EQ(choose_sync_strategy({10, 10, 10}, 0, 1, 1000000, 1000000, opts),
            SyncStrategy::kLock);
}

TEST(ChooseSync, DisallowedPrivatizationFallsBackToLocks) {
  MttkrpOptions opts;
  opts.nthreads = 4;
  opts.allow_privatization = false;
  EXPECT_EQ(choose_sync_strategy({10, 10, 10}, 0, 1, 1000000, 1000000, opts),
            SyncStrategy::kLock);
}

// --------------------------------------------------------- COO baseline

class CooMttkrpTest : public ::testing::TestWithParam<std::tuple<int, int>> {
};

TEST_P(CooMttkrpTest, MatchesDenseOracle) {
  const auto [mode, nthreads] = GetParam();
  const Fixture fx({12, 9, 14}, 300, 7, 200);
  la::Matrix out(fx.coo.dim(mode), fx.rank);
  MttkrpOptions opts;
  opts.nthreads = nthreads;
  mttkrp_coo(fx.coo, fx.factors, mode, out, opts);
  EXPECT_LT(out.max_abs_diff(fx.oracle(mode)), kTol);
}

INSTANTIATE_TEST_SUITE_P(ModesThreads, CooMttkrpTest,
                         ::testing::Combine(::testing::Values(0, 1, 2),
                                            ::testing::Values(1, 4)));

// --------------------------------------------------- CSF kernel sweep

struct CsfCase {
  int root;        ///< which mode roots the CSF (fixes the kernel level)
  int out_mode;    ///< MTTKRP output mode
  RowAccess ra;
  int nthreads;
  bool force_locks;
  LockKind lock;
};

std::string case_name(const ::testing::TestParamInfo<CsfCase>& info) {
  const CsfCase& c = info.param;
  std::string n = "root" + std::to_string(c.root) + "_out" +
                  std::to_string(c.out_mode) + "_" +
                  row_access_name(c.ra) + "_t" + std::to_string(c.nthreads) +
                  (c.force_locks ? "_lock_" : "_auto_") +
                  lock_kind_name(c.lock);
  for (auto& ch : n) {
    if (ch == '-') ch = '_';
  }
  return n;
}

class CsfMttkrpTest : public ::testing::TestWithParam<CsfCase> {};

TEST_P(CsfMttkrpTest, MatchesDenseOracle) {
  const CsfCase& c = GetParam();
  Fixture fx({13, 9, 11}, 350, 6, 300);

  const auto mode_order = csf_mode_order(fx.coo.dims(), c.root);
  SparseTensor sorted = fx.coo;
  sort_tensor_perm(sorted, mode_order, 2);
  const CsfTensor csf(sorted, mode_order);

  MttkrpOptions opts;
  opts.nthreads = c.nthreads;
  opts.row_access = c.ra;
  opts.force_locks = c.force_locks;
  opts.lock_kind = c.lock;
  MttkrpWorkspace ws(opts, fx.rank, 3);

  la::Matrix out(fx.coo.dim(c.out_mode), fx.rank);
  mttkrp_csf(csf, fx.factors, c.out_mode, out, ws);
  EXPECT_LT(out.max_abs_diff(fx.oracle(c.out_mode)), kTol)
      << "strategy " << sync_strategy_name(ws.last_strategy);
}

std::vector<CsfCase> csf_cases() {
  std::vector<CsfCase> cases;
  for (int root = 0; root < 3; ++root) {
    for (int out_mode = 0; out_mode < 3; ++out_mode) {
      for (const auto ra :
           {RowAccess::kSlice, RowAccess::kIndex2D, RowAccess::kPointer}) {
        // 1-thread direct + 4-thread auto (privatize) + 4-thread locked.
        cases.push_back({root, out_mode, ra, 1, false, LockKind::kOmp});
        cases.push_back({root, out_mode, ra, 4, false, LockKind::kOmp});
        cases.push_back({root, out_mode, ra, 4, true, LockKind::kAtomic});
      }
    }
  }
  // Lock-kind coverage on a conflicting (non-root) kernel.
  for (const auto lk : {LockKind::kSync, LockKind::kFifoSync}) {
    cases.push_back({0, 2, RowAccess::kPointer, 4, true, lk});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(KernelSweep, CsfMttkrpTest,
                         ::testing::ValuesIn(csf_cases()), case_name);

// ------------------------------------------------- higher-order kernels

class HigherOrderTest
    : public ::testing::TestWithParam<std::tuple<int, int, int, bool>> {};

TEST_P(HigherOrderTest, MatchesDenseOracle) {
  const auto [order, out_mode, nthreads, force_locks] = GetParam();
  dims_t dims;
  std::uint64_t volume = 1;
  for (int m = 0; m < order; ++m) {
    dims.push_back(static_cast<idx_t>(8 + 2 * m));
    volume *= dims.back();
  }
  const nnz_t nnz = std::min<nnz_t>(200, volume / 4);
  Fixture fx(dims, nnz, 4, 400 + static_cast<std::uint64_t>(order));
  const int mode = out_mode % order;

  // Root the CSF at a mode that puts the output mode at an internal level
  // when possible (root at (mode+1) % order).
  const auto mode_order = csf_mode_order(dims, (mode + 1) % order);
  SparseTensor sorted = fx.coo;
  sort_tensor_perm(sorted, mode_order, 1);
  const CsfTensor csf(sorted, mode_order);

  MttkrpOptions opts;
  opts.nthreads = nthreads;
  opts.force_locks = force_locks;
  MttkrpWorkspace ws(opts, fx.rank, order);
  la::Matrix out(fx.coo.dim(mode), fx.rank);
  mttkrp_csf(csf, fx.factors, mode, out, ws);
  EXPECT_LT(out.max_abs_diff(fx.oracle(mode)), kTol);
}

INSTANTIATE_TEST_SUITE_P(
    OrdersModes, HigherOrderTest,
    ::testing::Combine(::testing::Values(2, 4, 5, 6),
                       ::testing::Values(0, 1, 2),
                       ::testing::Values(1, 4),
                       ::testing::Bool()));  // default plan, pinned locks

// ------------------------------------------------------------- CsfSet

class CsfSetMttkrpTest
    : public ::testing::TestWithParam<std::tuple<CsfPolicy, int>> {};

TEST_P(CsfSetMttkrpTest, EveryModeMatchesOracle) {
  const auto [policy, nthreads] = GetParam();
  Fixture fx({16, 8, 12}, 400, 5, 500);
  SparseTensor work = fx.coo;
  const CsfSet set(work, policy, nthreads);

  MttkrpOptions opts;
  opts.nthreads = nthreads;
  MttkrpWorkspace ws(opts, fx.rank, 3);
  for (int mode = 0; mode < 3; ++mode) {
    la::Matrix out(fx.coo.dim(mode), fx.rank);
    mttkrp(set, fx.factors, mode, out, ws);
    EXPECT_LT(out.max_abs_diff(fx.oracle(mode)), kTol)
        << "policy " << csf_policy_name(policy) << " mode " << mode;
  }
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesThreads, CsfSetMttkrpTest,
    ::testing::Combine(::testing::Values(CsfPolicy::kOneMode,
                                         CsfPolicy::kTwoMode,
                                         CsfPolicy::kAllMode),
                       ::testing::Values(1, 4)));

// --------------------------------------------------------- workspace

TEST(Workspace, ReusedAcrossModesAndSizes) {
  Fixture fx({30, 6, 18}, 500, 4, 600);
  SparseTensor work = fx.coo;
  const CsfSet set(work, CsfPolicy::kOneMode, 2);
  MttkrpOptions opts;
  opts.nthreads = 2;
  // Force the privatized path for non-root modes: generous threshold.
  opts.privatization_threshold = 1e9;
  MttkrpWorkspace ws(opts, fx.rank, 3);
  // Run modes in both directions so the privatized buffer shrinks and
  // grows; results must stay correct.
  for (const int mode : {0, 1, 2, 2, 1, 0}) {
    la::Matrix out(fx.coo.dim(mode), fx.rank);
    mttkrp(set, fx.factors, mode, out, ws);
    EXPECT_LT(out.max_abs_diff(fx.oracle(mode)), kTol) << "mode " << mode;
  }
}

TEST(Workspace, PlanReusesOneBankAcrossPrivatizedModeLengths) {
  // The plan sizes one privatized bank for its longest mode; a shorter
  // mode zeroes and reduces only its own prefix of each thread's buffer.
  // Longest, shorter, longest again: no stale row may leak either way.
  Fixture fx({5, 40, 14, 27}, 1500, 6, 950);
  SparseTensor work = fx.coo;
  const CsfSet set(work, CsfPolicy::kOneMode, 3);
  MttkrpOptions opts;
  opts.nthreads = 3;
  opts.privatization_threshold = 1e9;  // every non-root mode privatizes
  MttkrpPlan plan(set, fx.rank, opts);
  std::vector<int> privatized;
  for (int m = 0; m < 4; ++m) {
    if (plan.mode_plan(m).strategy == SyncStrategy::kPrivatize) {
      privatized.push_back(m);
    }
  }
  ASSERT_GE(privatized.size(), 2u);
  MttkrpOptions serial;
  for (const int mode : {1, 2, 3, 1, 3, 2}) {
    la::Matrix out(fx.coo.dim(mode), fx.rank);
    plan.execute(fx.factors, mode, out);
    la::Matrix ref(fx.coo.dim(mode), fx.rank);
    mttkrp_coo(fx.coo, fx.factors, mode, ref, serial);
    EXPECT_LT(out.max_abs_diff(ref), kTol) << "mode " << mode;
  }
}

TEST(Workspace, LastStrategyReportsDecision) {
  Fixture fx({10, 11, 12}, 300, 4, 700);
  SparseTensor work = fx.coo;
  const CsfSet set(work, CsfPolicy::kOneMode, 4);
  MttkrpOptions opts;
  opts.nthreads = 4;
  opts.force_locks = true;
  MttkrpWorkspace ws(opts, fx.rank, 3);
  // Mode 2 (largest) sits at the leaf of the smallest-root OneMode rep.
  la::Matrix out(fx.coo.dim(2), fx.rank);
  int level = 0;
  const CsfTensor& csf = set.csf_for_mode(2, level);
  ASSERT_GT(level, 0);
  mttkrp_csf(csf, fx.factors, 2, out, ws);
  EXPECT_EQ(ws.last_strategy, SyncStrategy::kLock);
}

TEST(Workspace, AppliesItsBackendBeforeBuildingTheLockPool) {
  // The planless path must honor MttkrpOptions::backend: the workspace
  // applies it before its lock pool resolves the `omp` lock flavor.
  Fixture fx({10, 11, 12}, 300, 4, 750);
  SparseTensor work = fx.coo;
  const CsfSet set(work, CsfPolicy::kOneMode, 2);
  const ParallelBackendKind before = parallel_backend();
  set_parallel_backend(ParallelBackendKind::kOmp);
  MttkrpOptions opts;
  opts.nthreads = 2;
  opts.force_locks = true;
  opts.backend = ParallelBackendKind::kPool;
  MttkrpWorkspace ws(opts, fx.rank, 3);
  int level = 0;
  const CsfTensor& csf = set.csf_for_mode(2, level);
  la::Matrix out(fx.coo.dim(2), fx.rank);
  mttkrp_csf(csf, fx.factors, 2, out, ws);
  EXPECT_EQ(parallel_backend(), ParallelBackendKind::kPool);
  EXPECT_LT(out.max_abs_diff(fx.oracle(2)), kTol);
  set_parallel_backend(before);
}

TEST(Mttkrp, RejectsWrongShapes) {
  Fixture fx({8, 8, 8}, 100, 3, 800);
  SparseTensor work = fx.coo;
  const CsfSet set(work, CsfPolicy::kOneMode, 1);
  MttkrpOptions opts;
  MttkrpWorkspace ws(opts, fx.rank, 3);
  la::Matrix bad_rows(7, fx.rank);
  EXPECT_THROW(mttkrp(set, fx.factors, 0, bad_rows, ws), Error);
  la::Matrix bad_cols(8, fx.rank + 1);
  EXPECT_THROW(mttkrp(set, fx.factors, 0, bad_cols, ws), Error);
}

// ------------------------------------------------------- work stealing

/// Runs a mode-\p mode MTTKRP over \p csf through a one-shot mode plan
/// with an explicit schedule policy and a forced sync strategy.
la::Matrix run_scheduled_exec(const CsfTensor& csf,
                              const std::vector<la::Matrix>& factors,
                              int mode, idx_t rank, SchedulePolicy policy,
                              SyncStrategy strategy, int nthreads) {
  MttkrpOptions opts;
  opts.nthreads = nthreads;
  opts.schedule = policy;
  MttkrpWorkspace ws(opts, rank, csf.order());
  MttkrpModePlan mp = plan_mode(csf, mode, rank, opts);
  mp.strategy = strategy;
  la::Matrix out(csf.dims()[static_cast<std::size_t>(mode)], rank);
  mttkrp_csf_exec(mp, factors, out, ws);
  return out;
}

TEST(WorkStealingMttkrp, MatchesWeightedEverywhere) {
  // The equivalence suite: workstealing vs weighted across
  // roots x output modes x sync strategies x thread counts, within 1e-12.
  // A skewed fixture so the weighted seed and the chunk subdivision are
  // both non-trivial.
  const Fixture fx({13, 9, 11}, 350, 6, 300);

  for (int root = 0; root < 3; ++root) {
    const auto mode_order = csf_mode_order(fx.coo.dims(), root);
    SparseTensor sorted = fx.coo;
    sort_tensor_perm(sorted, mode_order, 2);
    const CsfTensor csf(sorted, mode_order);

    for (int mode = 0; mode < 3; ++mode) {
      const int level = csf.level_of_mode(mode);
      for (const int nthreads : {1, 2, 4}) {
        std::vector<SyncStrategy> strategies;
        if (nthreads == 1 || level == 0) {
          strategies.push_back(SyncStrategy::kNone);  // conflict-free
        }
        if (nthreads > 1 && level > 0) {
          strategies.push_back(SyncStrategy::kLock);
          strategies.push_back(SyncStrategy::kPrivatize);
        }
        for (const SyncStrategy strategy : strategies) {
          const la::Matrix ws_out = run_scheduled_exec(
              csf, fx.factors, mode, fx.rank,
              SchedulePolicy::kWorkStealing, strategy, nthreads);
          const la::Matrix ref_out = run_scheduled_exec(
              csf, fx.factors, mode, fx.rank, SchedulePolicy::kWeighted,
              strategy, nthreads);
          EXPECT_LT(ws_out.max_abs_diff(ref_out), 1e-12)
              << "root " << root << " mode " << mode << " strategy "
              << sync_strategy_name(strategy) << " threads " << nthreads;
        }
      }
    }
  }
}

TEST(WorkStealingMttkrp, SkewedFixtureStealsAndMatchesWeighted) {
  // A hypersparse-style skew (zipf 1.2 concentrates nonzeros in few
  // slices). The schedule is sized for a 2-worker team but driven by a
  // 1-worker region — the limiting case of imbalance, where the second
  // worker never arrives — so the lone thread must steal deterministically
  // on any box, and the output must still match the weighted schedule.
  SparseTensor coo = generate_synthetic(
      {.dims = {40, 20, 25}, .nnz = 3000, .seed = 41, .zipf_exponent = 1.2});
  const idx_t rank = 5;
  Rng rng(77);
  std::vector<la::Matrix> factors;
  for (int m = 0; m < coo.order(); ++m) {
    factors.push_back(la::Matrix::random(coo.dim(m), rank, rng));
  }
  const auto mode_order = csf_mode_order(coo.dims(), 0);
  SparseTensor sorted = coo;
  sort_tensor_perm(sorted, mode_order, 2);
  const CsfTensor csf(sorted, mode_order);
  const int mode = csf.mode_at_level(0);

  MttkrpOptions opts;  // nthreads = 1: only worker 0 shows up
  MttkrpModePlan mp = plan_mode(csf, mode, rank, opts);
  mp.slices = SliceSchedule(SchedulePolicy::kWorkStealing, csf.nfibers(0),
                            csf.root_nnz_prefix(), /*nthreads=*/2);
  MttkrpWorkspace ws(opts, rank, 3);
  la::Matrix out(coo.dim(mode), rank);
  const std::uint64_t steals_before = mp.slices.steals();
  mttkrp_csf_exec(mp, factors, out, ws);
  EXPECT_GT(mp.slices.steals(), steals_before) << "no steal under imbalance";

  MttkrpOptions sopts;
  sopts.schedule = SchedulePolicy::kWeighted;
  MttkrpWorkspace sws(sopts, rank, 3);
  la::Matrix expected(coo.dim(mode), rank);
  mttkrp_csf_exec(plan_mode(csf, mode, rank, sopts), factors, expected, sws);
  EXPECT_LT(out.max_abs_diff(expected), 1e-12);
}

TEST(WorkStealingMttkrp, CachedPlanSecondIterationVisitsAllSlices) {
  // Regression for the reset()/deque-reseed contract: a cached plan's
  // *second* execute must cover every slice again. If reset() failed to
  // reseed, the second pass would claim nothing and return a zero (or
  // partial) output.
  Fixture fx({16, 8, 12}, 400, 5, 500);
  SparseTensor work = fx.coo;
  const CsfSet set(work, CsfPolicy::kTwoMode, 4);
  MttkrpOptions opts;
  opts.nthreads = 4;
  opts.schedule = SchedulePolicy::kWorkStealing;
  opts.force_locks = true;  // the locked sinks, whatever the default rule
  MttkrpPlan plan(set, fx.rank, opts);
  for (int mode = 0; mode < 3; ++mode) {
    const la::Matrix expected = fx.oracle(mode);
    la::Matrix out(fx.coo.dim(mode), fx.rank);
    for (int iteration = 0; iteration < 3; ++iteration) {
      plan.execute(fx.factors, mode, out);
      EXPECT_LT(out.max_abs_diff(expected), kTol)
          << "mode " << mode << " iteration " << iteration;
    }
  }
}

TEST(Mttkrp, PoliciesProduceBitwiseIdenticalResults) {
  // The three row-access policies perform the same arithmetic in the same
  // order; single-threaded results must be bitwise identical.
  Fixture fx({14, 10, 12}, 350, 6, 900);
  SparseTensor work = fx.coo;
  const CsfSet set(work, CsfPolicy::kTwoMode, 1);
  std::vector<la::Matrix> results;
  for (const auto ra :
       {RowAccess::kPointer, RowAccess::kIndex2D, RowAccess::kSlice}) {
    MttkrpOptions opts;
    opts.nthreads = 1;
    opts.row_access = ra;
    MttkrpWorkspace ws(opts, fx.rank, 3);
    la::Matrix out(fx.coo.dim(1), fx.rank);
    mttkrp(set, fx.factors, 1, out, ws);
    results.push_back(std::move(out));
  }
  EXPECT_EQ(results[0].max_abs_diff(results[1]), 0.0);
  EXPECT_EQ(results[0].max_abs_diff(results[2]), 0.0);
}

}  // namespace
}  // namespace sptd
