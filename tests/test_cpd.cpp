// Tests for src/cpd: Kruskal model invariants and CP-ALS behaviour
// (fit improvement, low-rank recovery, determinism, timer coverage).

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "common/error.hpp"
#include "cpd/cpals.hpp"
#include "cpd/kruskal.hpp"
#include "tensor/dense.hpp"
#include "tensor/synthetic.hpp"

namespace sptd {
namespace {

/// Exactly rank-4 tensor (every coordinate stored): CP-ALS must fit ~1.
SparseTensor low_rank_tensor(std::uint64_t seed = 1000) {
  return generate_full_low_rank({18, 15, 12}, /*rank=*/4, /*noise=*/0.0,
                                seed);
}

// --------------------------------------------------------------- kruskal

TEST(Kruskal, ValueAtMatchesDenseReconstruction) {
  Rng rng(55);
  KruskalModel model;
  model.lambda = {2.0, 0.5, 1.5};
  model.factors.push_back(la::Matrix::random(6, 3, rng));
  model.factors.push_back(la::Matrix::random(5, 3, rng));
  model.factors.push_back(la::Matrix::random(4, 3, rng));
  const DenseTensor dense =
      DenseTensor::from_kruskal(model.lambda, model.factors);
  for (idx_t i = 0; i < 6; ++i) {
    for (idx_t j = 0; j < 5; ++j) {
      for (idx_t k = 0; k < 4; ++k) {
        const idx_t c[] = {i, j, k};
        EXPECT_NEAR(model.value_at(c), dense.at(c), 1e-12);
      }
    }
  }
}

TEST(Kruskal, NormSqMatchesDense) {
  Rng rng(56);
  KruskalModel model;
  model.lambda = {1.0, 2.0};
  model.factors.push_back(la::Matrix::random(7, 2, rng));
  model.factors.push_back(la::Matrix::random(8, 2, rng));
  model.factors.push_back(la::Matrix::random(9, 2, rng));
  const DenseTensor dense =
      DenseTensor::from_kruskal(model.lambda, model.factors);
  EXPECT_NEAR(model.norm_sq(2), dense.norm_sq(),
              1e-9 * std::max(1.0, dense.norm_sq()));
}

TEST(Kruskal, InnerMatchesExplicitSum) {
  Rng rng(57);
  KruskalModel model;
  model.lambda = {1.5};
  model.factors.push_back(la::Matrix::random(5, 1, rng));
  model.factors.push_back(la::Matrix::random(5, 1, rng));
  SparseTensor x({5, 5});
  const idx_t c0[] = {1, 2};
  const idx_t c1[] = {4, 0};
  x.push_back(c0, 2.0);
  x.push_back(c1, -1.0);
  const val_t expected = 2.0 * model.value_at(c0) - 1.0 * model.value_at(c1);
  EXPECT_NEAR(kruskal_inner(x, model, 2), expected, 1e-12);
}

TEST(Kruskal, PerfectModelHasFitOne) {
  // Build a sparse tensor exactly from a model; its fit must be ~1.
  Rng rng(58);
  KruskalModel model;
  model.lambda = {1.0, 1.0};
  model.factors.push_back(la::Matrix::random(6, 2, rng));
  model.factors.push_back(la::Matrix::random(6, 2, rng));
  SparseTensor x({6, 6});
  for (idx_t i = 0; i < 6; ++i) {
    for (idx_t j = 0; j < 6; ++j) {
      const idx_t c[] = {i, j};
      x.push_back(c, model.value_at(c));
    }
  }
  // The fit identity cancels ||X||^2 + ||Z||^2 - 2<X,Z> at ~1e4 scale;
  // a few 1e-8 of slack covers rounding across optimization levels.
  EXPECT_NEAR(model.fit_to(x, 2), 1.0, 1e-7);
}

// ----------------------------------------------------------------- cpals

TEST(CpAls, FitReachesOneOnNoiselessLowRank) {
  SparseTensor x = low_rank_tensor();
  CpalsOptions opts;
  opts.rank = 4;  // the generating rank
  opts.max_iterations = 150;
  opts.tolerance = 0.0;
  opts.nthreads = 2;
  const CpalsResult r = cp_als(x, opts);
  ASSERT_FALSE(r.fit_history.empty());
  EXPECT_GT(r.fit_history.back(), 0.999);
}

TEST(CpAls, FitImprovesMonotonically) {
  // ALS is monotone in the exact objective; the fit may wiggle at round-off
  // scale, so allow a tiny epsilon.
  SparseTensor x = generate_synthetic(
      {.dims = {40, 30, 20}, .nnz = 4000, .seed = 1001,
       .zipf_exponent = 0.4});
  CpalsOptions opts;
  opts.rank = 6;
  opts.max_iterations = 15;
  opts.tolerance = 0.0;
  opts.nthreads = 2;
  const CpalsResult r = cp_als(x, opts);
  ASSERT_EQ(static_cast<int>(r.fit_history.size()), 15);
  for (std::size_t i = 1; i < r.fit_history.size(); ++i) {
    EXPECT_GE(r.fit_history[i], r.fit_history[i - 1] - 1e-8)
        << "iteration " << i;
  }
}

TEST(CpAls, DeterministicForSeed) {
  SparseTensor x1 = low_rank_tensor(1002);
  SparseTensor x2 = low_rank_tensor(1002);
  CpalsOptions opts;
  opts.rank = 5;
  opts.max_iterations = 5;
  opts.tolerance = 0.0;
  const CpalsResult a = cp_als(x1, opts);
  const CpalsResult b = cp_als(x2, opts);
  ASSERT_EQ(a.fit_history.size(), b.fit_history.size());
  for (std::size_t i = 0; i < a.fit_history.size(); ++i) {
    EXPECT_EQ(a.fit_history[i], b.fit_history[i]);
  }
  for (int m = 0; m < 3; ++m) {
    EXPECT_EQ(a.model.factors[static_cast<std::size_t>(m)].max_abs_diff(
                  b.model.factors[static_cast<std::size_t>(m)]),
              0.0);
  }
}

TEST(CpAls, EarlyStopHonorsTolerance) {
  SparseTensor x = low_rank_tensor(1003);
  CpalsOptions opts;
  opts.rank = 6;
  opts.max_iterations = 100;
  opts.tolerance = 1e-4;
  const CpalsResult r = cp_als(x, opts);
  EXPECT_LT(r.iterations, 100);
  EXPECT_EQ(static_cast<int>(r.fit_history.size()), r.iterations);
}

TEST(CpAls, TimersCoverAllRoutines) {
  SparseTensor x = generate_synthetic(
      {.dims = {50, 40, 30}, .nnz = 8000, .seed = 1004});
  CpalsOptions opts;
  opts.rank = 8;
  opts.max_iterations = 3;
  opts.tolerance = 0.0;
  opts.nthreads = 2;
  const CpalsResult r = cp_als(x, opts);
  EXPECT_GT(r.timers.seconds(Routine::kMttkrp), 0.0);
  EXPECT_GT(r.timers.seconds(Routine::kInverse), 0.0);
  EXPECT_GT(r.timers.seconds(Routine::kMatAtA), 0.0);
  EXPECT_GT(r.timers.seconds(Routine::kMatNorm), 0.0);
  EXPECT_GT(r.timers.seconds(Routine::kFit), 0.0);
  EXPECT_GT(r.timers.seconds(Routine::kSort), 0.0);
  EXPECT_GT(r.csf_bytes, 0u);
}

TEST(CpAls, LambdaStaysPositiveAndFactorsFinite) {
  SparseTensor x = generate_synthetic(
      {.dims = {25, 25, 25}, .nnz = 2000, .seed = 1005});
  CpalsOptions opts;
  opts.rank = 4;
  opts.max_iterations = 10;
  opts.tolerance = 0.0;
  const CpalsResult r = cp_als(x, opts);
  for (const val_t l : r.model.lambda) {
    EXPECT_GT(l, 0.0);
    EXPECT_TRUE(std::isfinite(l));
  }
  for (const auto& f : r.model.factors) {
    for (const val_t v : f.values()) {
      EXPECT_TRUE(std::isfinite(v));
    }
  }
}

TEST(CpAls, RankOneExactTensorRecovered) {
  // Rank-1 tensor from known vectors; CP-ALS with rank 1 must recover the
  // model up to scaling (fit -> 1).
  SparseTensor x = generate_full_low_rank({15, 15, 15}, 1, 0.0, 1006);
  CpalsOptions opts;
  opts.rank = 1;
  opts.max_iterations = 30;
  opts.tolerance = 0.0;
  const CpalsResult r = cp_als(x, opts);
  EXPECT_GT(r.fit_history.back(), 0.9999);
}

TEST(CpAls, HigherOrderTensor) {
  SparseTensor x = generate_full_low_rank({12, 10, 8, 9}, 3, 0.0, 1007);
  CpalsOptions opts;
  opts.rank = 5;
  opts.max_iterations = 40;
  opts.tolerance = 0.0;
  opts.nthreads = 2;
  const CpalsResult r = cp_als(x, opts);
  EXPECT_GT(r.fit_history.back(), 0.99);
}

TEST(CpAls, NoisyLowRankReachesPlausibleFit) {
  SparseTensor x = generate_full_low_rank({16, 16, 16}, 3, 0.05, 1008);
  CpalsOptions opts;
  opts.rank = 3;
  opts.max_iterations = 30;
  opts.tolerance = 0.0;
  const CpalsResult r = cp_als(x, opts);
  // Values are O(rank * 0.25); 5% noise leaves a high but sub-unit fit.
  EXPECT_GT(r.fit_history.back(), 0.8);
  EXPECT_LT(r.fit_history.back(), 1.0);
}

TEST(CpAls, RejectsBadOptions) {
  SparseTensor x = low_rank_tensor(1009);
  CpalsOptions opts;
  opts.rank = 0;
  EXPECT_THROW(cp_als(x, opts), Error);
  opts.rank = 2;
  opts.max_iterations = 0;
  EXPECT_THROW(cp_als(x, opts), Error);
  SparseTensor empty({3, 3, 3});
  CpalsOptions ok;
  EXPECT_THROW(cp_als(empty, ok), Error);
}

// -------------------------------------- implementation-variant equivalence

class VariantEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<const char*, int>> {};

TEST_P(VariantEquivalenceTest, SameFitAsReference) {
  const auto [name, nthreads] = GetParam();
  // The Chapel-initial / Chapel-optimized variants are *implementation*
  // variants — the mathematics is identical, so fits must agree closely
  // (bitwise at 1 thread, fp-reduction tolerance beyond).
  SparseTensor x1 = generate_synthetic(
      {.dims = {30, 24, 36}, .nnz = 3000, .seed = 1010});
  SparseTensor x2 = x1;
  CpalsOptions ref;
  ref.rank = 5;
  ref.max_iterations = 5;
  ref.tolerance = 0.0;
  ref.nthreads = nthreads;
  // The variants differ in lock kind: pin the locked deposits so the
  // multi-thread cases compare them whatever the default sync rule picks.
  ref.force_locks = true;
  apply_impl_variant(find_impl_variant("c"), ref);
  CpalsOptions other = ref;
  apply_impl_variant(find_impl_variant(name), other);
  const CpalsResult a = cp_als(x1, ref);
  const CpalsResult b = cp_als(x2, other);
  ASSERT_EQ(a.fit_history.size(), b.fit_history.size());
  if (nthreads == 1) {
    EXPECT_EQ(a.fit_history.back(), b.fit_history.back());
  } else {
    EXPECT_NEAR(a.fit_history.back(), b.fit_history.back(), 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Variants, VariantEquivalenceTest,
    ::testing::Combine(::testing::Values("chapel-initial",
                                         "chapel-optimize"),
                       ::testing::Values(1, 4)));

TEST(ImplVariants, TableMatchesPaperLegend) {
  const auto& c = find_impl_variant("c");
  EXPECT_EQ(c.row_access, RowAccess::kPointer);
  EXPECT_EQ(c.lock_kind, LockKind::kOmp);
  const auto& init = find_impl_variant("chapel-initial");
  EXPECT_EQ(init.row_access, RowAccess::kSlice);
  EXPECT_EQ(init.lock_kind, LockKind::kSync);
  EXPECT_EQ(init.sort_variant, SortVariant::kInitial);
  const auto& opt = find_impl_variant("chapel-optimize");
  EXPECT_EQ(opt.row_access, RowAccess::kPointer);
  EXPECT_EQ(opt.lock_kind, LockKind::kAtomic);
  EXPECT_THROW(find_impl_variant("bogus"), Error);
}

}  // namespace
}  // namespace sptd
