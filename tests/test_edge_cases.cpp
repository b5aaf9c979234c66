// Edge-case coverage across modules: unusual shapes, parser corner
// cases, boundary thread counts, and order extremes.

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "common/error.hpp"
#include "common/options.hpp"
#include "completion/completion.hpp"
#include "cpd/cpals.hpp"
#include "csf/csf.hpp"
#include "la/eigen.hpp"
#include "mttkrp/mttkrp.hpp"
#include "sort/sort.hpp"
#include "tensor/dense.hpp"
#include "tensor/io.hpp"
#include "tensor/synthetic.hpp"

namespace sptd {
namespace {

// -------------------------------------------------------------------- io

TEST(IoEdge, ScientificNotationValues) {
  std::istringstream in("1 1 1 1.5e3\n2 2 2 -2E-2\n");
  const SparseTensor t = read_tns(in);
  EXPECT_DOUBLE_EQ(t.vals()[0], 1500.0);
  EXPECT_DOUBLE_EQ(t.vals()[1], -0.02);
}

TEST(IoEdge, CrlfLineEndings) {
  std::istringstream in("1 1 2.0\r\n2 2 3.0\r\n");
  const SparseTensor t = read_tns(in);
  EXPECT_EQ(t.nnz(), 2u);
  EXPECT_DOUBLE_EQ(t.vals()[1], 3.0);
}

TEST(IoEdge, TabsAndExtraWhitespace) {
  std::istringstream in("  1\t1 \t 1   4.0  \n");
  const SparseTensor t = read_tns(in);
  EXPECT_EQ(t.nnz(), 1u);
  EXPECT_DOUBLE_EQ(t.vals()[0], 4.0);
}

TEST(IoEdge, SingleModeTensor) {
  std::istringstream in("3 1.0\n7 2.0\n");
  const SparseTensor t = read_tns(in);
  EXPECT_EQ(t.order(), 1);
  EXPECT_EQ(t.dim(0), 7u);
}

TEST(IoEdge, ZeroValueEntriesKept) {
  // FROSTT files may carry explicit zeros; they are stored, not dropped.
  std::istringstream in("1 1 0.0\n2 2 1.0\n");
  const SparseTensor t = read_tns(in);
  EXPECT_EQ(t.nnz(), 2u);
  EXPECT_EQ(t.vals()[0], 0.0);
}

// --------------------------------------------------------------- options

TEST(OptionsEdge, FlagEqualsFalse) {
  Options o("prog", "test");
  o.add_flag("verbose", "v");
  const char* argv[] = {"prog", "--verbose=false"};
  ASSERT_TRUE(o.parse(2, argv));
  EXPECT_FALSE(o.get_bool("verbose"));
}

TEST(OptionsEdge, NegativeNumbersAsValues) {
  Options o("prog", "test");
  o.add("offset", "0", "signed value");
  const char* argv[] = {"prog", "--offset", "-5"};
  ASSERT_TRUE(o.parse(3, argv));
  EXPECT_EQ(o.get_int("offset"), -5);
}

TEST(OptionsEdge, LastValueWins) {
  Options o("prog", "test");
  o.add("rank", "1", "rank");
  const char* argv[] = {"prog", "--rank", "2", "--rank", "3"};
  ASSERT_TRUE(o.parse(5, argv));
  EXPECT_EQ(o.get_int("rank"), 3);
}

// ------------------------------------------------------- degenerate dims

TEST(DegenerateShapes, SingleSliceMode) {
  // A mode of length 1 collapses that level of the CSF tree.
  SparseTensor t({1, 20, 30});
  Rng rng(1);
  for (int k = 0; k < 100; ++k) {
    const idx_t c[] = {0, rng.next_index(20), rng.next_index(30)};
    t.push_back(c, 1.0 + rng.next_double());
  }
  const DenseTensor dense = DenseTensor::from_coo(t);
  std::vector<la::Matrix> factors;
  Rng frng(2);
  for (int m = 0; m < 3; ++m) {
    factors.push_back(la::Matrix::random(t.dim(m), 4, frng));
  }
  SparseTensor sorted = t;
  const CsfSet set(sorted, CsfPolicy::kTwoMode, 2);
  MttkrpOptions mo;
  mo.nthreads = 2;
  mo.force_locks = true;  // the locked sinks, whatever the default rule
  MttkrpWorkspace ws(mo, 4, 3);
  for (int mode = 0; mode < 3; ++mode) {
    la::Matrix out(t.dim(mode), 4);
    mttkrp(set, factors, mode, out, ws);
    la::Matrix expected(t.dim(mode), 4);
    dense.mttkrp(mode, factors, expected);
    EXPECT_LT(out.max_abs_diff(expected), 1e-9) << "mode " << mode;
  }
}

TEST(DegenerateShapes, MoreThreadsThanSlices) {
  SparseTensor t({3, 3, 3});
  Rng rng(3);
  for (idx_t i = 0; i < 3; ++i) {
    for (idx_t j = 0; j < 3; ++j) {
      const idx_t c[] = {i, j, rng.next_index(3)};
      t.push_back(c, 1.0);
    }
  }
  CpalsOptions opts;
  opts.rank = 2;
  opts.max_iterations = 3;
  opts.tolerance = 0.0;
  opts.nthreads = 16;  // vastly oversubscribed relative to 3 slices
  opts.force_locks = true;  // the locked sinks, whatever the default rule
  const CpalsResult r = cp_als(t, opts);
  EXPECT_TRUE(std::isfinite(r.fit_history.back()));
}

TEST(DegenerateShapes, RankLargerThanEveryMode) {
  SparseTensor t = generate_synthetic(
      {.dims = {6, 7, 8}, .nnz = 80, .seed = 4});
  CpalsOptions opts;
  opts.rank = 16;  // > all mode lengths: V is rank-deficient by
                   // construction; regularized solve must cope
  opts.max_iterations = 4;
  opts.tolerance = 0.0;
  const CpalsResult r = cp_als(t, opts);
  EXPECT_TRUE(std::isfinite(r.fit_history.back()));
}

TEST(DegenerateShapes, OrderTwoCpalsIsMatrixFactorization) {
  SparseTensor t = generate_full_low_rank({20, 15}, 3, 0.0, 5);
  CpalsOptions opts;
  opts.rank = 3;
  opts.max_iterations = 40;
  opts.tolerance = 0.0;
  const CpalsResult r = cp_als(t, opts);
  EXPECT_GT(r.fit_history.back(), 0.999);
}

TEST(DegenerateShapes, SingleNonzeroDecomposes) {
  SparseTensor t({5, 5, 5});
  const idx_t c[] = {2, 3, 4};
  t.push_back(c, 7.0);
  CpalsOptions opts;
  opts.rank = 1;
  opts.max_iterations = 5;
  opts.tolerance = 0.0;
  const CpalsResult r = cp_als(t, opts);
  // A single entry is a rank-1 tensor: perfect fit.
  EXPECT_GT(r.fit_history.back(), 0.9999);
}

TEST(DegenerateShapes, AllValuesEqual) {
  SparseTensor t({10, 10});
  for (idx_t i = 0; i < 10; ++i) {
    for (idx_t j = 0; j < 10; ++j) {
      const idx_t c[] = {i, j};
      t.push_back(c, 2.5);
    }
  }
  CpalsOptions opts;
  opts.rank = 1;
  opts.max_iterations = 10;
  opts.tolerance = 0.0;
  const CpalsResult r = cp_als(t, opts);
  // Constant matrix is exactly rank 1.
  EXPECT_GT(r.fit_history.back(), 0.9999);
}

// --------------------------------------------------------------- sorting

TEST(SortEdge, AllNonzerosInOneSlice) {
  SparseTensor t({10, 50, 50});
  Rng rng(6);
  for (int k = 0; k < 1000; ++k) {
    const idx_t c[] = {7, rng.next_index(50), rng.next_index(50)};
    t.push_back(c, 1.0);
  }
  sort_tensor(t, 0, 4);
  EXPECT_TRUE(is_sorted(t, 0));
}

TEST(SortEdge, ReverseSortedInput) {
  SparseTensor t({100, 2});
  for (idx_t i = 100; i-- > 0;) {
    const idx_t c[] = {i, i % 2};
    t.push_back(c, static_cast<val_t>(i));
  }
  sort_tensor(t, 0, 2);
  EXPECT_TRUE(is_sorted(t, 0));
  EXPECT_EQ(t.ind(0)[0], 0u);
  EXPECT_EQ(t.vals()[0], 0.0);
}

// ------------------------------------------------------------ completion

TEST(CompletionEdge, HigherOrderTensor) {
  const SparseTensor full =
      generate_low_rank({10, 9, 8, 7}, 2, 1200, 0.0, 7);
  const auto [train, test] = split_train_test(full, 0.2, 8);
  CompletionOptions opts;
  opts.rank = 2;
  opts.max_iterations = 15;
  opts.regularization = 1e-3;
  opts.tolerance = 0.0;
  opts.nthreads = 2;
  const CompletionResult r = complete_tensor(train, &test, opts);
  EXPECT_LT(r.val_rmse.back(), 0.1);
}

// ----------------------------------------------------------------- eigen

TEST(EigenEdge, OneByOne) {
  la::Matrix a(1, 1);
  a(0, 0) = 4.0;
  std::vector<val_t> evals(1);
  la::Matrix evecs(1, 1);
  la::symmetric_eigen(a, evals, evecs);
  EXPECT_DOUBLE_EQ(evals[0], 4.0);
  EXPECT_DOUBLE_EQ(evecs(0, 0), 1.0);
}

TEST(EigenEdge, RepeatedEigenvalues) {
  // 2*I has eigenvalue 2 twice; any orthonormal basis is valid.
  la::Matrix a = la::Matrix::identity(4);
  for (idx_t i = 0; i < 4; ++i) {
    a(i, i) = 2.0;
  }
  std::vector<val_t> evals(4);
  la::Matrix evecs(4, 4);
  la::symmetric_eigen(a, evals, evecs);
  for (const val_t e : evals) {
    EXPECT_NEAR(e, 2.0, 1e-12);
  }
}

TEST(EigenEdge, ZeroMatrix) {
  la::Matrix a(3, 3, 0.0);
  std::vector<val_t> evals(3);
  la::Matrix evecs(3, 3);
  la::symmetric_eigen(a, evals, evecs);
  for (const val_t e : evals) {
    EXPECT_EQ(e, 0.0);
  }
}

// ----------------------------------------------------------- csf corner

TEST(CsfEdge, EveryNonzeroItsOwnFiber) {
  // Diagonal tensor: no prefix sharing at all.
  SparseTensor t({20, 20, 20});
  for (idx_t i = 0; i < 20; ++i) {
    const idx_t c[] = {i, i, i};
    t.push_back(c, static_cast<val_t>(i + 1));
  }
  const auto order = csf_mode_order(t.dims(), 0);
  sort_tensor_perm(t, order, 1);
  const CsfTensor csf(t, order);
  EXPECT_EQ(csf.nfibers(0), 20u);
  EXPECT_EQ(csf.nfibers(1), 20u);
  EXPECT_EQ(csf.nnz(), 20u);
  const SparseTensor back = csf.to_coo();
  EXPECT_EQ(back.nnz(), 20u);
}

TEST(CsfEdge, FullyDenseTensor) {
  SparseTensor t({4, 4, 4});
  for (idx_t i = 0; i < 4; ++i) {
    for (idx_t j = 0; j < 4; ++j) {
      for (idx_t k = 0; k < 4; ++k) {
        const idx_t c[] = {i, j, k};
        t.push_back(c, 1.0);
      }
    }
  }
  const auto order = csf_mode_order(t.dims(), 0);
  sort_tensor_perm(t, order, 1);
  const CsfTensor csf(t, order);
  EXPECT_EQ(csf.nfibers(0), 4u);
  EXPECT_EQ(csf.nfibers(1), 16u);
  EXPECT_EQ(csf.nnz(), 64u);
}

}  // namespace
}  // namespace sptd
