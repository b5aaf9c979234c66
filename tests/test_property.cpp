// Cross-module property tests: identities that must hold between
// independent implementations, swept over random seeds and tensor shapes.

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "cpd/cpals.hpp"
#include "cpd/kruskal.hpp"
#include "csf/csf.hpp"
#include "mttkrp/mttkrp.hpp"
#include "sort/sort.hpp"
#include "tensor/dense.hpp"
#include "tensor/synthetic.hpp"

namespace sptd {
namespace {

// Sweep seeds x skew: CSF MTTKRP (planner's sync choice, 2 threads) ==
// CSF MTTKRP with locks forced (3 threads) == COO MTTKRP on the same
// random tensor, for every mode.
class MttkrpConsistencyTest
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(MttkrpConsistencyTest, ThreeKernelsAgree) {
  const auto [seed, zipf] = GetParam();
  const SparseTensor t = generate_synthetic(
      {.dims = {40, 26, 33}, .nnz = 2500,
       .seed = static_cast<std::uint64_t>(seed), .zipf_exponent = zipf});
  Rng rng(static_cast<std::uint64_t>(seed) + 1);
  std::vector<la::Matrix> factors;
  for (int m = 0; m < 3; ++m) {
    factors.push_back(la::Matrix::random(t.dim(m), 7, rng));
  }
  SparseTensor sorted = t;
  const CsfSet set(sorted, CsfPolicy::kTwoMode, 2);
  MttkrpOptions mo;
  mo.nthreads = 2;
  MttkrpWorkspace ws(mo, 7, 3);
  MttkrpOptions locked_mo;
  locked_mo.nthreads = 3;
  locked_mo.force_locks = true;
  MttkrpWorkspace locked_ws(locked_mo, 7, 3);
  for (int mode = 0; mode < 3; ++mode) {
    la::Matrix via_csf(t.dim(mode), 7);
    mttkrp(set, factors, mode, via_csf, ws);
    la::Matrix via_locked(t.dim(mode), 7);
    mttkrp(set, factors, mode, via_locked, locked_ws);
    la::Matrix via_coo(t.dim(mode), 7);
    mttkrp_coo(t, factors, mode, via_coo, mo);
    EXPECT_LT(via_csf.max_abs_diff(via_coo), 1e-9)
        << "csf vs coo, mode " << mode;
    EXPECT_LT(via_locked.max_abs_diff(via_coo), 1e-9)
        << "locked csf vs coo, mode " << mode;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsSkew, MttkrpConsistencyTest,
    ::testing::Combine(::testing::Values(11, 22, 33, 44, 55),
                       ::testing::Values(0.0, 0.8)));

// The fit CP-ALS reports through its incremental identity must equal the
// fit recomputed from scratch on the returned model.
class FitIdentityTest : public ::testing::TestWithParam<int> {};

TEST_P(FitIdentityTest, ReportedFitMatchesRecomputed) {
  SparseTensor x = generate_synthetic(
      {.dims = {30, 22, 26}, .nnz = 2000,
       .seed = static_cast<std::uint64_t>(GetParam()),
       .zipf_exponent = 0.5});
  const SparseTensor original = x;
  CpalsOptions opts;
  opts.rank = 5;
  opts.max_iterations = 6;
  opts.tolerance = 0.0;
  opts.nthreads = 2;
  opts.force_locks = true;  // the locked sinks, whatever the default rule
  const CpalsResult r = cp_als(x, opts);
  const double recomputed = r.model.fit_to(original, 2);
  EXPECT_NEAR(r.fit_history.back(), recomputed, 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FitIdentityTest,
                         ::testing::Values(101, 202, 303, 404));

/// Relabels the slices of every mode by a seeded Fisher-Yates permutation.
void relabel_randomly(SparseTensor& t, std::uint64_t seed) {
  Rng rng(seed);
  for (int m = 0; m < t.order(); ++m) {
    std::vector<idx_t> map(t.dim(m));
    std::iota(map.begin(), map.end(), idx_t{0});
    Rng perm_rng(rng.next_u64());
    for (idx_t i = t.dim(m); i > 1; --i) {
      std::swap(map[i - 1], map[perm_rng.next_index(i)]);
    }
    for (idx_t& i : t.ind(m)) {
      i = map[i];
    }
  }
}

// Relabeling slices permutes factor rows but cannot change the
// achievable fit (same seed, same iteration count: the math commutes
// with relabeling only in exact arithmetic at iteration 0, so compare
// final fits loosely).
TEST(Invariance, RelabelingPreservesDecomposability) {
  SparseTensor a = generate_synthetic(
      {.dims = {25, 25, 25}, .nnz = 1800, .seed = 500,
       .zipf_exponent = 0.6});
  SparseTensor b = a;
  relabel_randomly(b, 77);

  CpalsOptions opts;
  opts.rank = 4;
  opts.max_iterations = 15;
  opts.tolerance = 0.0;
  const double fit_a = cp_als(a, opts).fit_history.back();
  const double fit_b = cp_als(b, opts).fit_history.back();
  // Different random init interacts with different labelings; fits agree
  // to a loose tolerance on this easy problem.
  EXPECT_NEAR(fit_a, fit_b, 0.05);
}

// Sorting by any mode never changes the dense tensor.
class SortDenseInvarianceTest : public ::testing::TestWithParam<int> {};

TEST_P(SortDenseInvarianceTest, DenseContentUnchanged) {
  SparseTensor t = generate_synthetic(
      {.dims = {12, 14, 16}, .nnz = 400,
       .seed = static_cast<std::uint64_t>(GetParam())});
  const DenseTensor before = DenseTensor::from_coo(t);
  for (int mode = 0; mode < 3; ++mode) {
    sort_tensor(t, mode, 2);
    const DenseTensor after = DenseTensor::from_coo(t);
    for (std::size_t i = 0; i < before.values().size(); ++i) {
      ASSERT_EQ(before.values()[i], after.values()[i]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SortDenseInvarianceTest,
                         ::testing::Values(1, 2, 3));

// MTTKRP linearity: MTTKRP(alpha * X) == alpha * MTTKRP(X).
TEST(MttkrpAlgebra, LinearInTensorValues) {
  SparseTensor t = generate_synthetic(
      {.dims = {20, 20, 20}, .nnz = 900, .seed = 600});
  Rng rng(601);
  std::vector<la::Matrix> factors;
  for (int m = 0; m < 3; ++m) {
    factors.push_back(la::Matrix::random(t.dim(m), 5, rng));
  }
  MttkrpOptions mo;
  la::Matrix base(t.dim(0), 5);
  mttkrp_coo(t, factors, 0, base, mo);

  SparseTensor scaled = t;
  for (val_t& v : scaled.vals()) {
    v *= val_t{2.5};
  }
  la::Matrix scaled_out(t.dim(0), 5);
  mttkrp_coo(scaled, factors, 0, scaled_out, mo);
  for (idx_t i = 0; i < base.rows(); ++i) {
    for (idx_t j = 0; j < base.cols(); ++j) {
      EXPECT_NEAR(scaled_out(i, j), 2.5 * base(i, j), 1e-9);
    }
  }
}

// MTTKRP additivity in factors: using (B + C) for one input mode equals
// the sum of running with B and with C.
TEST(MttkrpAlgebra, AdditiveInFactorMatrices) {
  SparseTensor t = generate_synthetic(
      {.dims = {15, 18, 21}, .nnz = 600, .seed = 700});
  Rng rng(701);
  std::vector<la::Matrix> factors;
  for (int m = 0; m < 3; ++m) {
    factors.push_back(la::Matrix::random(t.dim(m), 4, rng));
  }
  const la::Matrix extra = la::Matrix::random(t.dim(1), 4, rng);

  MttkrpOptions mo;
  la::Matrix with_b(t.dim(0), 4);
  mttkrp_coo(t, factors, 0, with_b, mo);

  auto factors_c = factors;
  factors_c[1] = extra;
  la::Matrix with_c(t.dim(0), 4);
  mttkrp_coo(t, factors_c, 0, with_c, mo);

  auto factors_sum = factors;
  for (idx_t i = 0; i < t.dim(1); ++i) {
    for (idx_t j = 0; j < 4; ++j) {
      factors_sum[1](i, j) += extra(i, j);
    }
  }
  la::Matrix with_sum(t.dim(0), 4);
  mttkrp_coo(t, factors_sum, 0, with_sum, mo);

  for (idx_t i = 0; i < with_sum.rows(); ++i) {
    for (idx_t j = 0; j < with_sum.cols(); ++j) {
      EXPECT_NEAR(with_sum(i, j), with_b(i, j) + with_c(i, j), 1e-9);
    }
  }
}

// Gram-matrix identity: lambda^T (⊙ grams) lambda equals the dense
// reconstruction's norm for random Kruskal models.
class KruskalNormTest : public ::testing::TestWithParam<int> {};

TEST_P(KruskalNormTest, GramIdentityHolds) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  KruskalModel model;
  const idx_t rank = 3;
  model.lambda.clear();
  for (idx_t r = 0; r < rank; ++r) {
    model.lambda.push_back(static_cast<val_t>(rng.next_double(0.5, 2.0)));
  }
  for (const idx_t d : {idx_t{7}, idx_t{6}, idx_t{5}}) {
    model.factors.push_back(la::Matrix::random(d, rank, rng));
  }
  const DenseTensor dense =
      DenseTensor::from_kruskal(model.lambda, model.factors);
  EXPECT_NEAR(model.norm_sq(1), dense.norm_sq(),
              1e-9 * std::max(1.0, dense.norm_sq()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, KruskalNormTest,
                         ::testing::Values(800, 801, 802, 803, 804));

}  // namespace
}  // namespace sptd
