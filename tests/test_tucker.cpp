// Tests for src/tucker (+ la/eigen): symmetric eigensolver, sparse TTMc
// vs a dense oracle, HOOI convergence and model invariants.

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "common/error.hpp"
#include "la/blas.hpp"
#include "la/eigen.hpp"
#include "tensor/dense.hpp"
#include "tensor/synthetic.hpp"
#include "tucker/tucker.hpp"

namespace sptd {
namespace {

// ----------------------------------------------------------------- eigen

TEST(Eigen, DiagonalMatrix) {
  la::Matrix a(3, 3);
  a(0, 0) = 1;
  a(1, 1) = 5;
  a(2, 2) = 3;
  std::vector<val_t> evals(3);
  la::Matrix evecs(3, 3);
  la::symmetric_eigen(a, evals, evecs);
  EXPECT_DOUBLE_EQ(evals[0], 5.0);
  EXPECT_DOUBLE_EQ(evals[1], 3.0);
  EXPECT_DOUBLE_EQ(evals[2], 1.0);
  // Eigenvector of the top eigenvalue is +-e_1.
  EXPECT_NEAR(std::abs(evecs(1, 0)), 1.0, 1e-12);
}

TEST(Eigen, KnownTwoByTwo) {
  // [[2, 1], [1, 2]]: eigenvalues 3 and 1.
  la::Matrix a(2, 2);
  a(0, 0) = 2;
  a(0, 1) = 1;
  a(1, 0) = 1;
  a(1, 1) = 2;
  std::vector<val_t> evals(2);
  la::Matrix evecs(2, 2);
  la::symmetric_eigen(a, evals, evecs);
  EXPECT_NEAR(evals[0], 3.0, 1e-12);
  EXPECT_NEAR(evals[1], 1.0, 1e-12);
}

TEST(Eigen, ReconstructsRandomSymmetric) {
  Rng rng(70);
  const la::Matrix b = la::Matrix::random(12, 8, rng);
  la::Matrix a(8, 8);
  la::ata(b, a, 1);
  std::vector<val_t> evals(8);
  la::Matrix evecs(8, 8);
  la::symmetric_eigen(a, evals, evecs);
  // V diag(evals) V^T must reproduce a.
  la::Matrix rebuilt(8, 8);
  for (idx_t i = 0; i < 8; ++i) {
    for (idx_t j = 0; j < 8; ++j) {
      val_t sum = 0;
      for (idx_t r = 0; r < 8; ++r) {
        sum += evecs(i, r) * evals[r] * evecs(j, r);
      }
      rebuilt(i, j) = sum;
    }
  }
  EXPECT_LT(rebuilt.max_abs_diff(a), 1e-8);
}

TEST(Eigen, EigenvectorsAreOrthonormal) {
  Rng rng(71);
  const la::Matrix b = la::Matrix::random(10, 6, rng);
  la::Matrix a(6, 6);
  la::ata(b, a, 1);
  std::vector<val_t> evals(6);
  la::Matrix evecs(6, 6);
  la::symmetric_eigen(a, evals, evecs);
  for (idx_t p = 0; p < 6; ++p) {
    for (idx_t q = 0; q < 6; ++q) {
      val_t dot = 0;
      for (idx_t i = 0; i < 6; ++i) {
        dot += evecs(i, p) * evecs(i, q);
      }
      EXPECT_NEAR(dot, p == q ? 1.0 : 0.0, 1e-10);
    }
  }
}

TEST(Eigen, PsdEigenvaluesNonnegativeAndSorted) {
  Rng rng(72);
  const la::Matrix b = la::Matrix::random(9, 9, rng);
  la::Matrix a(9, 9);
  la::ata(b, a, 1);
  std::vector<val_t> evals(9);
  la::Matrix evecs(9, 9);
  la::symmetric_eigen(a, evals, evecs);
  for (std::size_t i = 0; i < 9; ++i) {
    EXPECT_GE(evals[i], -1e-10);
    if (i > 0) {
      EXPECT_LE(evals[i], evals[i - 1] + 1e-12);
    }
  }
}

// ------------------------------------------------------------------ ttmc

/// Dense TTMc oracle matching ttmc()'s column convention (mode 0
/// fastest among the non-skipped modes, descending construction).
la::Matrix dense_ttmc(const SparseTensor& x,
                      const std::vector<la::Matrix>& factors, int mode) {
  const int order = x.order();
  std::size_t k = 1;
  for (int n = 0; n < order; ++n) {
    if (n != mode) {
      k *= factors[static_cast<std::size_t>(n)].cols();
    }
  }
  la::Matrix out(x.dim(mode), static_cast<idx_t>(k));
  // Enumerate core coordinates for the non-skipped modes.
  for (nnz_t xi = 0; xi < x.nnz(); ++xi) {
    std::vector<idx_t> j(static_cast<std::size_t>(order), 0);
    for (std::size_t col = 0; col < k; ++col) {
      // Decode col: mode 0 fastest among non-skipped.
      std::size_t rem = col;
      for (int n = 0; n < order; ++n) {
        if (n == mode) continue;
        const idx_t r = factors[static_cast<std::size_t>(n)].cols();
        j[static_cast<std::size_t>(n)] = static_cast<idx_t>(rem % r);
        rem /= r;
      }
      val_t prod = x.vals()[xi];
      for (int n = 0; n < order; ++n) {
        if (n == mode) continue;
        prod *= factors[static_cast<std::size_t>(n)](
            x.ind(n)[xi], j[static_cast<std::size_t>(n)]);
      }
      out(x.ind(mode)[xi], static_cast<idx_t>(col)) += prod;
    }
  }
  return out;
}

class TtmcTest : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(TtmcTest, MatchesDenseOracle) {
  const auto [mode, nthreads] = GetParam();
  const SparseTensor x = generate_synthetic(
      {.dims = {12, 10, 8}, .nnz = 300, .seed = 7000});
  Rng rng(73);
  std::vector<la::Matrix> factors;
  const idx_t ranks[] = {3, 4, 2};
  for (int m = 0; m < 3; ++m) {
    factors.push_back(la::Matrix::random(x.dim(m), ranks[m], rng));
  }
  std::size_t k = 1;
  for (int n = 0; n < 3; ++n) {
    if (n != mode) k *= ranks[n];
  }
  la::Matrix out(x.dim(mode), static_cast<idx_t>(k));
  ttmc(x, factors, mode, out, nthreads);
  const la::Matrix expected = dense_ttmc(x, factors, mode);
  EXPECT_LT(out.max_abs_diff(expected), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(ModesThreads, TtmcTest,
                         ::testing::Combine(::testing::Values(0, 1, 2),
                                            ::testing::Values(1, 4)));

TEST(Ttmc, HigherOrder) {
  const SparseTensor x = generate_synthetic(
      {.dims = {8, 7, 6, 5}, .nnz = 250, .seed = 7001});
  Rng rng(74);
  std::vector<la::Matrix> factors;
  for (int m = 0; m < 4; ++m) {
    factors.push_back(la::Matrix::random(x.dim(m), 2, rng));
  }
  la::Matrix out(x.dim(1), 8);  // 2*2*2 columns
  ttmc(x, factors, 1, out, 2);
  const la::Matrix expected = dense_ttmc(x, factors, 1);
  EXPECT_LT(out.max_abs_diff(expected), 1e-10);
}

TEST(Ttmc, RejectsBadShapes) {
  const SparseTensor x = generate_synthetic(
      {.dims = {6, 6, 6}, .nnz = 50, .seed = 7002});
  Rng rng(75);
  std::vector<la::Matrix> factors;
  for (int m = 0; m < 3; ++m) {
    factors.push_back(la::Matrix::random(6, 2, rng));
  }
  la::Matrix bad(6, 3);  // should be 4 columns
  EXPECT_THROW(ttmc(x, factors, 0, bad, 1), Error);
}

// -------------------------------------------------------------- ttmc_csf

class TtmcCsfTest : public ::testing::TestWithParam<std::tuple<int, int>> {
};

TEST_P(TtmcCsfTest, MatchesCooTtmc) {
  const auto [root, nthreads] = GetParam();
  const SparseTensor x = generate_synthetic(
      {.dims = {18, 14, 10}, .nnz = 500, .seed = 7100,
       .zipf_exponent = 0.5});
  Rng rng(77);
  std::vector<la::Matrix> factors;
  const idx_t ranks[] = {3, 4, 2};
  for (int m = 0; m < 3; ++m) {
    factors.push_back(la::Matrix::random(x.dim(m), ranks[m], rng));
  }
  SparseTensor sorted = x;
  const auto mode_order = csf_mode_order(x.dims(), root);
  sort_tensor_perm(sorted, mode_order, 1);
  const CsfTensor csf(sorted, mode_order);

  std::size_t k = 1;
  for (int n = 0; n < 3; ++n) {
    if (n != root) k *= ranks[n];
  }
  la::Matrix via_csf(x.dim(root), static_cast<idx_t>(k));
  ttmc_csf(csf, factors, via_csf, nthreads);
  la::Matrix via_coo(x.dim(root), static_cast<idx_t>(k));
  ttmc(x, factors, root, via_coo, 1);
  EXPECT_LT(via_csf.max_abs_diff(via_coo), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(RootsThreads, TtmcCsfTest,
                         ::testing::Combine(::testing::Values(0, 1, 2),
                                            ::testing::Values(1, 4)));

TEST(TtmcCsf, HigherOrder) {
  const SparseTensor x = generate_synthetic(
      {.dims = {9, 8, 7, 6}, .nnz = 300, .seed = 7101});
  Rng rng(78);
  std::vector<la::Matrix> factors;
  for (int m = 0; m < 4; ++m) {
    factors.push_back(la::Matrix::random(x.dim(m), 2, rng));
  }
  SparseTensor sorted = x;
  const auto mode_order = csf_mode_order(x.dims(), 2);
  sort_tensor_perm(sorted, mode_order, 1);
  const CsfTensor csf(sorted, mode_order);
  la::Matrix via_csf(x.dim(2), 8);
  ttmc_csf(csf, factors, via_csf, 2);
  la::Matrix via_coo(x.dim(2), 8);
  ttmc(x, factors, 2, via_coo, 1);
  EXPECT_LT(via_csf.max_abs_diff(via_coo), 1e-10);
}

TEST(TtmcCsf, RejectsBadOutputShape) {
  const SparseTensor x = generate_synthetic(
      {.dims = {8, 8, 8}, .nnz = 60, .seed = 7102});
  Rng rng(79);
  std::vector<la::Matrix> factors;
  for (int m = 0; m < 3; ++m) {
    factors.push_back(la::Matrix::random(8, 2, rng));
  }
  SparseTensor sorted = x;
  const auto mode_order = csf_mode_order(x.dims(), 0);
  sort_tensor_perm(sorted, mode_order, 1);
  const CsfTensor csf(sorted, mode_order);
  la::Matrix bad(8, 3);
  EXPECT_THROW(ttmc_csf(csf, factors, bad, 1), Error);
}

// ------------------------------------------------------------------ hooi

TEST(Hooi, FactorsAreOrthonormal) {
  const SparseTensor x = generate_synthetic(
      {.dims = {20, 18, 16}, .nnz = 800, .seed = 7003});
  TuckerOptions opts;
  opts.core_dims = {4, 3, 5};
  opts.max_iterations = 5;
  opts.tolerance = 0.0;
  opts.nthreads = 2;
  const TuckerResult r = tucker_hooi(x, opts);
  for (int m = 0; m < 3; ++m) {
    const la::Matrix& u = r.model.factors[static_cast<std::size_t>(m)];
    for (idx_t p = 0; p < u.cols(); ++p) {
      for (idx_t q = 0; q < u.cols(); ++q) {
        val_t dot = 0;
        for (idx_t i = 0; i < u.rows(); ++i) {
          dot += u(i, p) * u(i, q);
        }
        EXPECT_NEAR(dot, p == q ? 1.0 : 0.0, 1e-8)
            << "mode " << m << " columns " << p << "," << q;
      }
    }
  }
}

TEST(Hooi, FitImprovesAndIsBounded) {
  const SparseTensor x = generate_synthetic(
      {.dims = {25, 20, 15}, .nnz = 1500, .seed = 7004,
       .zipf_exponent = 0.4});
  TuckerOptions opts;
  opts.core_dims = {5, 5, 5};
  opts.max_iterations = 10;
  opts.tolerance = 0.0;
  const TuckerResult r = tucker_hooi(x, opts);
  ASSERT_EQ(r.fit_history.size(), 10u);
  for (std::size_t i = 0; i < r.fit_history.size(); ++i) {
    EXPECT_GE(r.fit_history[i], -1e-9);
    EXPECT_LE(r.fit_history[i], 1.0);
    if (i > 0) {
      EXPECT_GE(r.fit_history[i], r.fit_history[i - 1] - 1e-8);
    }
  }
}

TEST(Hooi, ExactRecoveryOfLowMultilinearRankTensor) {
  // Build X = G x U0 x U1 x U2 exactly (dense content in sparse form);
  // HOOI with the true core dims must reach fit ~1.
  Rng rng(76);
  const dims_t dims = {12, 10, 8};
  const dims_t core_dims = {3, 2, 2};
  std::vector<la::Matrix> gen;
  for (int m = 0; m < 3; ++m) {
    gen.push_back(la::Matrix::random(dims[static_cast<std::size_t>(m)],
                                     core_dims[static_cast<std::size_t>(m)],
                                     rng));
  }
  std::vector<val_t> core(3 * 2 * 2);
  for (auto& v : core) {
    v = rng.next_double(-1.0, 1.0);
  }
  SparseTensor x(dims);
  std::array<idx_t, kMaxOrder> c{};
  for (idx_t i = 0; i < dims[0]; ++i) {
    for (idx_t j = 0; j < dims[1]; ++j) {
      for (idx_t k = 0; k < dims[2]; ++k) {
        val_t sum = 0;
        std::size_t off = 0;
        for (idx_t a = 0; a < core_dims[0]; ++a) {
          for (idx_t b = 0; b < core_dims[1]; ++b) {
            for (idx_t d = 0; d < core_dims[2]; ++d, ++off) {
              sum += core[off] * gen[0](i, a) * gen[1](j, b) *
                     gen[2](k, d);
            }
          }
        }
        c[0] = i;
        c[1] = j;
        c[2] = k;
        x.push_back({c.data(), 3}, sum);
      }
    }
  }

  TuckerOptions opts;
  opts.core_dims = core_dims;
  opts.max_iterations = 40;
  opts.tolerance = 0.0;
  opts.nthreads = 2;
  const TuckerResult r = tucker_hooi(x, opts);
  EXPECT_GT(r.fit_history.back(), 0.9999);

  // The returned model must reconstruct X pointwise.
  val_t worst = 0;
  for (nnz_t n = 0; n < x.nnz(); ++n) {
    const auto coord = x.coord(n);
    worst = std::max(worst, std::abs(x.vals()[n] -
                                     r.model.value_at({coord.data(), 3})));
  }
  EXPECT_LT(worst, 1e-6);
}

TEST(Hooi, CoreNormMatchesFitIdentity) {
  const SparseTensor x = generate_synthetic(
      {.dims = {15, 12, 10}, .nnz = 600, .seed = 7005});
  TuckerOptions opts;
  opts.core_dims = {4, 4, 4};
  opts.max_iterations = 8;
  opts.tolerance = 0.0;
  const TuckerResult r = tucker_hooi(x, opts);
  const double fit_from_core =
      1.0 - std::sqrt(std::max(0.0, static_cast<double>(
                                        x.norm_sq() -
                                        r.model.core_norm_sq()))) /
                std::sqrt(static_cast<double>(x.norm_sq()));
  EXPECT_NEAR(r.fit_history.back(), fit_from_core, 1e-6);
}

TEST(Hooi, EarlyStopHonorsTolerance) {
  const SparseTensor x = generate_synthetic(
      {.dims = {15, 15, 15}, .nnz = 700, .seed = 7006});
  TuckerOptions opts;
  opts.core_dims = {3, 3, 3};
  opts.max_iterations = 100;
  opts.tolerance = 1e-4;
  const TuckerResult r = tucker_hooi(x, opts);
  EXPECT_LT(r.iterations, 100);
}

TEST(Hooi, DeterministicInSeed) {
  const SparseTensor x = generate_synthetic(
      {.dims = {14, 12, 10}, .nnz = 500, .seed = 7007});
  TuckerOptions opts;
  opts.core_dims = {3, 3, 3};
  opts.max_iterations = 4;
  opts.tolerance = 0.0;
  const TuckerResult a = tucker_hooi(x, opts);
  const TuckerResult b = tucker_hooi(x, opts);
  ASSERT_EQ(a.fit_history.size(), b.fit_history.size());
  for (std::size_t i = 0; i < a.fit_history.size(); ++i) {
    EXPECT_EQ(a.fit_history[i], b.fit_history[i]);
  }
}

TEST(Hooi, RejectsBadArguments) {
  const SparseTensor x = generate_synthetic(
      {.dims = {10, 10, 10}, .nnz = 100, .seed = 7008});
  TuckerOptions opts;
  opts.core_dims = {3, 3};  // wrong order
  EXPECT_THROW(tucker_hooi(x, opts), Error);
  opts.core_dims = {3, 3, 100};  // core dim > mode length
  EXPECT_THROW(tucker_hooi(x, opts), Error);
  opts.core_dims = {3, 3, 0};
  EXPECT_THROW(tucker_hooi(x, opts), Error);
}

}  // namespace
}  // namespace sptd
