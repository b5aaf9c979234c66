// Tests for the rank-specialized SIMD kernel layer (la/kernels.hpp and
// the MTTKRP kernel table): the compile-time-R path must agree with the
// generic runtime-rank path within 1e-12 across ranks (specialized and
// fallback), modes, and sync strategies; every (precision, width, index
// pair) must freeze its table row and match the COO oracle; and the
// register-blocked dense kernels must match their naive reference loops.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "csf/csf.hpp"
#include "la/blas.hpp"
#include "la/kernels.hpp"
#include "mttkrp/mttkrp.hpp"
#include "mttkrp/plan.hpp"
#include "sort/sort.hpp"
#include "tensor/synthetic.hpp"

namespace sptd {
namespace {

constexpr double kTol = 1e-12;

// The rank axis: exact widths {4, 8, 16, 32, 40, 64}, padded-promotion
// ranks {3 -> 8, 35 -> 40 (the paper's default)}, and {17}, whose padded
// width (24) has no instantiation and must take the generic fallback.
const idx_t kRanks[] = {3, 4, 8, 16, 17, 32, 35, 40, 64};

std::vector<la::Matrix> make_factors(const SparseTensor& t, idx_t rank,
                                     std::uint64_t seed) {
  Rng rng(seed);
  std::vector<la::Matrix> factors;
  for (int m = 0; m < t.order(); ++m) {
    factors.push_back(la::Matrix::random(t.dim(m), rank, rng));
  }
  return factors;
}

// ------------------------------------------------- width selection map

TEST(KernelWidth, DispatchTable) {
  MttkrpOptions opts;  // pointer access, fixed kernels on
  EXPECT_EQ(selected_kernel_width(4, opts), 4u);
  EXPECT_EQ(selected_kernel_width(8, opts), 8u);
  EXPECT_EQ(selected_kernel_width(16, opts), 16u);
  EXPECT_EQ(selected_kernel_width(32, opts), 32u);
  EXPECT_EQ(selected_kernel_width(40, opts), 40u);
  EXPECT_EQ(selected_kernel_width(64, opts), 64u);
  // Ranks whose padded row stride has an instantiation run it over the
  // zero-filled padding lanes; rank 35 is the paper's default.
  EXPECT_EQ(selected_kernel_width(3, opts), 8u);
  EXPECT_EQ(selected_kernel_width(33, opts), 40u);
  EXPECT_EQ(selected_kernel_width(35, opts), 40u);
  // Ranks padding to an uninstantiated width (24, 48) fall back to the
  // generic loops.
  EXPECT_EQ(selected_kernel_width(17, opts), 0u);
  EXPECT_EQ(selected_kernel_width(41, opts), 0u);
  // Disabled or non-pointer access always falls back.
  opts.use_fixed_kernels = false;
  EXPECT_EQ(selected_kernel_width(16, opts), 0u);
  opts.use_fixed_kernels = true;
  opts.row_access = RowAccess::kSlice;
  EXPECT_EQ(selected_kernel_width(16, opts), 0u);
}

TEST(KernelWidth, PaddedColsIsCacheLineMultiple) {
  for (idx_t c = 1; c <= 130; ++c) {
    const idx_t ld = la::kern::padded_cols(c);
    EXPECT_GE(ld, c);
    EXPECT_EQ(ld % la::kern::kValsPerLine, 0u);
    EXPECT_LT(ld - c, la::kern::kValsPerLine);
  }
}

TEST(KernelWidth, PlanFreezesWidth) {
  SparseTensor x = generate_synthetic(
      {.dims = {15, 11, 9}, .nnz = 200, .seed = 5, .zipf_exponent = 0.4});
  const CsfSet set(x, CsfPolicy::kTwoMode, 2);
  MttkrpOptions opts;
  opts.nthreads = 2;
  EXPECT_EQ(MttkrpPlan(set, 16, opts).kernel_width(), 16u);
  EXPECT_EQ(MttkrpPlan(set, 17, opts).kernel_width(), 0u);
  // The paper's default rank rides the padded R=40 instantiation.
  EXPECT_EQ(MttkrpPlan(set, 35, opts).kernel_width(), 40u);
  opts.use_fixed_kernels = false;
  EXPECT_EQ(MttkrpPlan(set, 16, opts).kernel_width(), 0u);
  EXPECT_EQ(MttkrpPlan(set, 35, opts).kernel_width(), 0u);
}

// ------------------------------- specialized vs generic MTTKRP outputs

struct StrategyCase {
  SyncStrategy strategy;
  int nthreads;
};

/// Runs the mode-\p mode MTTKRP over \p csf through a one-shot mode plan
/// with its strategy forced to \p sc, on the fixed-width kernels or the
/// generic loops.
la::Matrix run_exec(const CsfTensor& csf,
                    const std::vector<la::Matrix>& factors, int mode,
                    idx_t rank, const StrategyCase& sc, bool fixed) {
  MttkrpOptions opts;
  opts.nthreads = sc.nthreads;
  opts.use_fixed_kernels = fixed;
  MttkrpWorkspace ws(opts, rank, csf.order());
  MttkrpModePlan mp = plan_mode(csf, mode, rank, opts);
  mp.strategy = sc.strategy;
  la::Matrix out(csf.dims()[static_cast<std::size_t>(mode)], rank);
  mttkrp_csf_exec(mp, factors, out, ws);
  return out;
}

TEST(KernelEquivalence, SpecializedMatchesGenericEverywhere) {
  SparseTensor coo = generate_synthetic(
      {.dims = {13, 9, 11}, .nnz = 350, .seed = 300, .zipf_exponent = 0.5});

  for (const idx_t rank : kRanks) {
    const auto factors = make_factors(coo, rank, 77);
    MttkrpOptions probe;
    const idx_t width = selected_kernel_width(rank, probe);

    for (int root = 0; root < 3; ++root) {
      const auto mode_order = csf_mode_order(coo.dims(), root);
      SparseTensor sorted = coo;
      sort_tensor_perm(sorted, mode_order, 2);
      const CsfTensor csf(sorted, mode_order);

      for (int mode = 0; mode < 3; ++mode) {
        for (const StrategyCase& sc : {StrategyCase{SyncStrategy::kNone, 1},
                                       StrategyCase{SyncStrategy::kLock, 4},
                                       StrategyCase{SyncStrategy::kPrivatize,
                                                    4}}) {
          const la::Matrix generic =
              run_exec(csf, factors, mode, rank, sc, false);
          const la::Matrix specialized =
              run_exec(csf, factors, mode, rank, sc, true);
          EXPECT_LT(specialized.max_abs_diff(generic), kTol)
              << "rank " << rank << " width " << width << " root " << root
              << " mode " << mode << " strategy "
              << sync_strategy_name(sc.strategy) << " threads "
              << sc.nthreads;
        }
      }
    }
  }
}

TEST(KernelEquivalence, PlanDispatchMatchesPlanless) {
  // The planned path (which freezes kernel_width) and the planless path
  // must agree for specialized and fallback ranks alike.
  SparseTensor coo = generate_synthetic(
      {.dims = {17, 12, 10}, .nnz = 400, .seed = 9, .zipf_exponent = 0.4});
  for (const idx_t rank : {idx_t{8}, idx_t{17}}) {
    const auto factors = make_factors(coo, rank, 31);
    SparseTensor sorted = coo;
    const CsfSet set(sorted, CsfPolicy::kTwoMode, 2);
    MttkrpOptions opts;
    opts.nthreads = 2;
    opts.force_locks = true;  // the locked sinks, whatever the default rule
    MttkrpPlan plan(set, rank, opts);
    MttkrpWorkspace ws(opts, rank, 3);
    for (int mode = 0; mode < 3; ++mode) {
      la::Matrix planned(coo.dim(mode), rank);
      plan.execute(factors, mode, planned);
      la::Matrix planless(coo.dim(mode), rank);
      mttkrp(set, factors, mode, planless, ws);
      EXPECT_LT(planned.max_abs_diff(planless), kTol)
          << "rank " << rank << " mode " << mode;
    }
  }
}

// ------------------------------------------------ kernel table coverage

/// A tensor shape whose leaf dim and nnz land the compressed layout on one
/// (leaf fid, deepest fptr) byte-width pair.
struct IndexPairCase {
  dims_t dims;
  nnz_t nnz;
  CsfLayout layout;
  int fid_width;
  int ptr_width;
};

/// Whether \p precision's bundle at kernel \p width has a typed view for
/// the index pair: (u16, u32), (u32, u32) and (u32, u64), on f64 and on
/// the mixed fixed-width bundles only. Every other case runs erased.
bool has_typed_view(Precision precision, idx_t width, int fid, int ptr) {
  const bool typed_bundle =
      precision == Precision::kF64 ||
      (precision == Precision::kMixed && width != 0);
  const bool typed_pair = (fid == 2 && ptr == 4) ||
                          (fid == 4 && ptr == 4) || (fid == 4 && ptr == 8);
  return typed_bundle && typed_pair;
}

TEST(KernelTable, EveryPrecisionWidthAndIndexPairFreezesItsRow) {
  // Leaf dims 255/256/65535/65536 straddle the u8/u16/u32 fid cutoffs;
  // nnz 3000 vs 70000 puts the deepest fptr on either side of 65535.
  // (1, 2), (2, 2), (1, 4) and (4, 2) are pairs no typed view covers.
  const IndexPairCase cases[] = {
      {{20, 30, 255}, 3000, CsfLayout::kCompressed, 1, 2},
      {{20, 30, 256}, 3000, CsfLayout::kCompressed, 2, 2},
      {{20, 30, 65535}, 70000, CsfLayout::kCompressed, 2, 4},
      {{20, 30, 65536}, 70000, CsfLayout::kCompressed, 4, 4},
      {{20, 30, 256}, 3000, CsfLayout::kWide, 4, 8},
      {{20, 30, 255}, 70000, CsfLayout::kCompressed, 1, 4},
      {{20, 30, 65536}, 3000, CsfLayout::kCompressed, 4, 2},
  };
  const std::vector<int> mode_order = {0, 1, 2};
  // Rank 17 pads to 24, which has no instantiation: the generic tier.
  const idx_t ranks[] = {17, 4, 8, 16, 32, 40, 64};
  const std::pair<Precision, double> precisions[] = {
      {Precision::kF64, 1e-12},
      {Precision::kMixed, 1e-6},
      {Precision::kF32, 1e-3}};

  for (const IndexPairCase& pc : cases) {
    SparseTensor t = generate_synthetic(
        {.dims = pc.dims, .nnz = pc.nnz, .seed = 61, .zipf_exponent = 0.3});
    sort_tensor_perm(t, mode_order, 2);
    const CsfTensor csf(t, mode_order, pc.layout);
    ASSERT_EQ(csf.fid_width(2), pc.fid_width);
    ASSERT_EQ(csf.ptr_width(1), pc.ptr_width);

    for (const idx_t rank : ranks) {
      const idx_t width = la::kern::fixed_width_for(rank);
      const auto factors = make_factors(t, rank, 5);
      for (int mode = 0; mode < 3; ++mode) {
        la::Matrix want(t.dim(mode), rank);
        mttkrp_coo(t, factors, mode, want, MttkrpOptions{});
        double scale = 1.0;
        for (const val_t v : want.values()) {
          scale = std::max(scale, std::abs(v));
        }
        for (const auto& [precision, tol] : precisions) {
          // One thread: this pins each row's resolution and arithmetic;
          // the lock/privatize sinks per view are covered by the
          // compressed-vs-wide suites in test_csf_compressed.cpp.
          MttkrpOptions opts;
          opts.nthreads = 1;
          opts.precision = precision;
          MttkrpWorkspace ws(opts, rank, 3);
          const MttkrpModePlan mp = plan_mode(csf, mode, rank, opts);
          const bool typed =
              has_typed_view(precision, width, pc.fid_width, pc.ptr_width);
          const MttkrpKernelKey expect{precision, width,
                                       typed ? pc.fid_width : 0,
                                       typed ? pc.ptr_width : 0};
          const std::string what =
              std::string(precision_name(precision)) + " rank " +
              std::to_string(rank) + " pair (" +
              std::to_string(pc.fid_width) + ", " +
              std::to_string(pc.ptr_width) + ") mode " +
              std::to_string(mode);
          EXPECT_TRUE(mp.key == expect)
              << what << ": frozen row (" << mp.key.leaf_fid_width << ", "
              << mp.key.deep_ptr_width << ") width " << mp.key.width;
          la::Matrix out(t.dim(mode), rank);
          mttkrp_csf_exec(mp, factors, out, ws);
          EXPECT_LE(out.max_abs_diff(want), tol * scale) << what;
        }
      }
    }
  }
}

// ------------------------------------- dense kernels vs reference loops

/// Naive O(I R^2) reference for A^T A.
la::Matrix ata_reference(const la::Matrix& a) {
  la::Matrix out(a.cols(), a.cols());
  for (idx_t i = 0; i < a.rows(); ++i) {
    for (idx_t j = 0; j < a.cols(); ++j) {
      for (idx_t k = 0; k < a.cols(); ++k) {
        out(j, k) += a(i, j) * a(i, k);
      }
    }
  }
  return out;
}

/// Naive reference for A^T B.
la::Matrix at_b_reference(const la::Matrix& a, const la::Matrix& b) {
  la::Matrix out(a.cols(), b.cols());
  for (idx_t i = 0; i < a.rows(); ++i) {
    for (idx_t k = 0; k < a.cols(); ++k) {
      for (idx_t j = 0; j < b.cols(); ++j) {
        out(k, j) += a(i, k) * b(i, j);
      }
    }
  }
  return out;
}

/// Naive reference for A * B.
la::Matrix matmul_reference(const la::Matrix& a, const la::Matrix& b) {
  la::Matrix out(a.rows(), b.cols());
  for (idx_t i = 0; i < a.rows(); ++i) {
    for (idx_t k = 0; k < a.cols(); ++k) {
      for (idx_t j = 0; j < b.cols(); ++j) {
        out(i, j) += a(i, k) * b(k, j);
      }
    }
  }
  return out;
}

TEST(RegisterBlockedDense, AtaMatchesReference) {
  Rng rng(11);
  for (const idx_t rank : kRanks) {
    // Row counts around the 4-row panel boundary exercise the remainder.
    for (const idx_t rows : {idx_t{1}, idx_t{4}, idx_t{7}, idx_t{64},
                             idx_t{103}}) {
      const la::Matrix a = la::Matrix::random(rows, rank, rng);
      la::Matrix out(rank, rank);
      for (const int nthreads : {1, 3}) {
        la::ata(a, out, nthreads);
        EXPECT_LT(out.max_abs_diff(ata_reference(a)), kTol)
            << "rank " << rank << " rows " << rows << " threads "
            << nthreads;
      }
    }
  }
}

TEST(RegisterBlockedDense, MatmulAtBMatchesReference) {
  Rng rng(13);
  for (const idx_t rank : kRanks) {
    for (const idx_t rows : {idx_t{1}, idx_t{5}, idx_t{8}, idx_t{97}}) {
      const la::Matrix a = la::Matrix::random(rows, rank, rng);
      const la::Matrix b = la::Matrix::random(rows, rank + 2, rng);
      la::Matrix out(rank, rank + 2);
      la::matmul_at_b(a, b, out);
      EXPECT_LT(out.max_abs_diff(at_b_reference(a, b)), kTol)
          << "rank " << rank << " rows " << rows;
    }
  }
}

TEST(RegisterBlockedDense, MatmulMatchesReference) {
  Rng rng(17);
  for (const idx_t inner : {idx_t{1}, idx_t{3}, idx_t{4}, idx_t{9},
                            idx_t{33}}) {
    const la::Matrix a = la::Matrix::random(12, inner, rng);
    const la::Matrix b = la::Matrix::random(inner, 7, rng);
    la::Matrix out(12, 7);
    la::matmul(a, b, out);
    EXPECT_LT(out.max_abs_diff(matmul_reference(a, b)), kTol)
        << "inner " << inner;
  }
}

// ----------------------------------------------- primitive-level checks

TEST(Primitives, FixedMatchesGeneric) {
  // One matrix per operand keeps every row 64-byte aligned.
  Rng rng(23);
  const la::Matrix operands = la::Matrix::random(3, 64, rng);
  la::Matrix fixed_dst(1, 64), generic_dst(1, 64);

  const val_t* a = operands.row_ptr(0);
  const val_t* b = operands.row_ptr(1);

  auto check = [&](idx_t r) {
    EXPECT_LT(fixed_dst.max_abs_diff(generic_dst), kTol) << "rank " << r;
  };

  // axpy
  fixed_dst.fill(1.0);
  generic_dst.fill(1.0);
  la::kern::axpy_r<16>(fixed_dst.row_ptr(0), a, 0.37);
  la::kern::axpy(generic_dst.row_ptr(0), a, 0.37, 16);
  check(16);

  // hadamard accumulate
  la::kern::hadamard_accum_r<32>(fixed_dst.row_ptr(0), a, b);
  la::kern::hadamard_accum(generic_dst.row_ptr(0), a, b, 32);
  check(32);

  // scale
  la::kern::scale_r<8>(fixed_dst.row_ptr(0), b, 2.5);
  la::kern::scale(generic_dst.row_ptr(0), b, 2.5, 8);
  check(8);

  // dot
  EXPECT_NEAR(static_cast<double>(la::kern::dot_r<64>(a, b)),
              static_cast<double>(la::kern::dot(a, b, 64)), kTol);
}

}  // namespace
}  // namespace sptd
