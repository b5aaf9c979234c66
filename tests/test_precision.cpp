// Tests for the value-stream precision axis (--precision f64|f32|mixed):
// equivalence ladders for MTTKRP, CP-ALS, Tucker, and completion, the
// value-byte accounting, and the degenerate-conditioning fixture where
// mixed's fp64 accumulation and masters must beat pure f32.
//
// Per-precision accuracy contracts (documented in common/precision.hpp,
// next to the standing 1e-12 fixed-vs-generic kernel contract): mixed
// tracks the f64 CP-ALS fit within 1e-6, f32 within 1e-3.

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>
#include <utility>

#include "common/rng.hpp"
#include "completion/completion.hpp"
#include "cpd/cpals.hpp"
#include "cpd/kruskal.hpp"
#include "csf/csf.hpp"
#include "la/matrix.hpp"
#include "mttkrp/mttkrp.hpp"
#include "mttkrp/plan.hpp"
#include "tensor/synthetic.hpp"
#include "tucker/tucker.hpp"

namespace sptd {
namespace {

constexpr double kMixedFitTol = 1e-6;
constexpr double kF32FitTol = 1e-3;

// Sanitizer builds compile at -O1 and reduce in a different order, so
// fit gaps recorded on the optimized build do not carry over to them.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kOptimizedArithmetic = false;
#else
constexpr bool kOptimizedArithmetic = true;
#endif

double final_fit(SparseTensor x, const CpalsOptions& opts) {
  const CpalsResult r = cp_als(x, opts);
  return r.fit_history.back();
}

// ------------------------------------------------------ MTTKRP outputs

TEST(PrecisionMttkrp, MixedTracksF64PerModeAcrossRanks) {
  SparseTensor x = generate_synthetic(
      {.dims = {30, 26, 22}, .nnz = 4000, .seed = 91});
  CsfSet set(x, CsfPolicy::kTwoMode, 2, nullptr, SortVariant::kAllOpts,
             CsfLayout::kCompressed);
  for (const int rank_i : {3, 8, 16, 35}) {
    const auto rank = static_cast<idx_t>(rank_i);
    Rng rng(7);
    std::vector<la::Matrix> factors;
    for (int m = 0; m < x.order(); ++m) {
      factors.push_back(la::Matrix::random(x.dim(m), rank, rng));
    }
    MttkrpOptions mo;
    mo.nthreads = 2;
    mo.precision = Precision::kF64;
    MttkrpPlan plan64(set, rank, mo);
    mo.precision = Precision::kMixed;
    MttkrpPlan planmx(set, rank, mo);
    for (int m = 0; m < x.order(); ++m) {
      la::Matrix out64(x.dim(m), rank);
      la::Matrix outmx(x.dim(m), rank);
      plan64.execute(factors, m, out64);
      planmx.execute(factors, m, outmx);
      double scale = 0.0;
      for (const val_t v : out64.values()) {
        scale = std::max(scale, std::abs(static_cast<double>(v)));
      }
      // Each deposited product carries two fp32 input roundings (~1e-7
      // relative each) but accumulates in fp64; a 1e-5 relative band is
      // loose against that while still catching a broken stream.
      EXPECT_LE(out64.max_abs_diff(outmx), 1e-5 * std::max(1.0, scale))
          << "rank " << rank << " mode " << m;
    }
  }
}

// ---------------------------------- CP-ALS fit ladder across the matrix

class PrecisionLadderTest
    : public ::testing::TestWithParam<std::tuple<int, SchedulePolicy, bool>> {
};

TEST_P(PrecisionLadderTest, CpalsFitTracksF64) {
  const auto [rank, schedule, force_locks] = GetParam();
  const SparseTensor x = generate_synthetic(
      {.dims = {40, 32, 24}, .nnz = 5000, .seed = 77});
  CpalsOptions opts;
  opts.rank = static_cast<idx_t>(rank);
  opts.max_iterations = 8;
  opts.tolerance = 0.0;
  opts.nthreads = 2;
  opts.schedule = schedule;
  opts.force_locks = force_locks;

  opts.precision = Precision::kF64;
  const double f64 = final_fit(x, opts);
  opts.precision = Precision::kMixed;
  const double mixed = final_fit(x, opts);
  opts.precision = Precision::kF32;
  const double f32 = final_fit(x, opts);

  EXPECT_NEAR(mixed, f64, kMixedFitTol);
  EXPECT_NEAR(f32, f64, kF32FitTol);
}

INSTANTIATE_TEST_SUITE_P(
    Precision, PrecisionLadderTest,
    ::testing::Combine(
        ::testing::Values(3, 8, 16, 35),
        ::testing::Values(SchedulePolicy::kWeighted,
                          SchedulePolicy::kWorkStealing),
        ::testing::Bool()));

// ---------------------------------------------------------------- Tucker

TEST(PrecisionTucker, HooiFitLadder) {
  const SparseTensor x = generate_synthetic(
      {.dims = {25, 20, 15}, .nnz = 3000, .seed = 33});
  TuckerOptions opts;
  opts.core_dims = {4, 4, 4};
  opts.max_iterations = 10;
  opts.tolerance = 0.0;
  opts.nthreads = 2;

  opts.precision = Precision::kF64;
  const double f64 = tucker_hooi(x, opts).fit_history.back();
  opts.precision = Precision::kMixed;
  const double mixed = tucker_hooi(x, opts).fit_history.back();
  opts.precision = Precision::kF32;
  const double f32 = tucker_hooi(x, opts).fit_history.back();

  EXPECT_NEAR(mixed, f64, kMixedFitTol);
  EXPECT_NEAR(f32, f64, kF32FitTol);
}

// ------------------------------------------------------------ completion

class PrecisionCompletionTest
    : public ::testing::TestWithParam<CompletionAlgorithm> {};

TEST_P(PrecisionCompletionTest, TrainRmseTracksF64) {
  const SparseTensor x = generate_synthetic(
      {.dims = {30, 30, 30}, .nnz = 6000, .seed = 55});
  CompletionOptions opts;
  opts.algorithm = GetParam();
  opts.rank = 8;
  opts.max_iterations = 8;
  opts.tolerance = 0.0;
  opts.nthreads = 2;

  opts.precision = Precision::kF64;
  const double f64 =
      complete_tensor(x, nullptr, opts).train_rmse.back();
  opts.precision = Precision::kMixed;
  const double mixed =
      complete_tensor(x, nullptr, opts).train_rmse.back();
  opts.precision = Precision::kF32;
  const double f32 =
      complete_tensor(x, nullptr, opts).train_rmse.back();

  EXPECT_NEAR(mixed, f64, kMixedFitTol);
  EXPECT_NEAR(f32, f64, kF32FitTol);
}

INSTANTIATE_TEST_SUITE_P(Precision, PrecisionCompletionTest,
                         ::testing::Values(CompletionAlgorithm::kAls,
                                           CompletionAlgorithm::kSgd,
                                           CompletionAlgorithm::kCcd));

// ------------------------------------------------------- byte accounting

TEST(PrecisionBytes, NarrowStreamsHalveValueBytes) {
  SparseTensor x = generate_synthetic(
      {.dims = {20, 20, 20}, .nnz = 2000, .seed = 9});
  SparseTensor work = x;
  const CsfSet set(work, CsfPolicy::kTwoMode, 1, nullptr,
                   SortVariant::kAllOpts, CsfLayout::kCompressed);
  EXPECT_GT(set.value_bytes(Precision::kF64), 0u);
  EXPECT_EQ(set.value_bytes(Precision::kF32),
            set.value_bytes(Precision::kMixed));
  EXPECT_EQ(set.value_bytes(Precision::kF64),
            2 * set.value_bytes(Precision::kMixed));

  CpalsOptions opts;
  opts.rank = 5;
  opts.max_iterations = 2;
  opts.tolerance = 0.0;
  opts.precision = Precision::kMixed;
  SparseTensor trial = x;
  const CpalsResult r = cp_als(trial, opts);
  EXPECT_EQ(r.value_bytes, set.value_bytes(Precision::kMixed));
  EXPECT_GT(r.csf_bytes, 0u);
}

TEST(PrecisionBytes, SmokeTensorBytesWidthsAndFitGaps) {
  // The precision ablation's smoke (yelp @ 0.002, seed 42, rank 8, five
  // iterations, two threads). Value-stream bytes and kernel widths are
  // exact. Each narrow fit stays within 4x of the gap from f64 that smoke
  // recorded on the optimized build (mixed 5.05e-10, f32 2.81e-10); a
  // sanitizer build holds the precision ladder instead.
  const SparseTensor x =
      generate_synthetic(find_preset("yelp").scaled(0.002, 42));
  struct Expected {
    Precision precision;
    std::uint64_t value_bytes;
    double max_fit_gap;
  };
  const Expected expected[] = {
      {Precision::kF64, 256000, 0.0},
      {Precision::kMixed, 128000, kOptimizedArithmetic ? 2.0e-9 : kMixedFitTol},
      {Precision::kF32, 128000, kOptimizedArithmetic ? 1.1e-9 : kF32FitTol},
  };
  CpalsOptions opts;
  opts.rank = 8;
  opts.max_iterations = 5;
  opts.tolerance = 0.0;
  opts.nthreads = 2;
  double f64_fit = 0.0;
  for (const Expected& e : expected) {
    opts.precision = e.precision;
    SparseTensor work = x;
    const CpalsResult r = cp_als(work, opts);
    const char* what = precision_name(e.precision);
    EXPECT_EQ(r.csf_bytes, 322469u) << what;
    EXPECT_EQ(r.value_bytes, e.value_bytes) << what;
    if (e.precision == Precision::kF64) {
      f64_fit = r.fit_history.back();
    }
    EXPECT_LE(std::abs(r.fit_history.back() - f64_fit), e.max_fit_gap)
        << what;
    // The widths the smoke's ranks select: rank 35 pads to 40.
    MttkrpOptions mo;
    mo.precision = e.precision;
    for (const auto [rank, width] :
         {std::pair{35u, 40u}, std::pair{16u, 16u}, std::pair{8u, 8u}}) {
      EXPECT_EQ(selected_kernel_width(rank, mo), width)
          << what << " rank " << rank;
    }
  }
}

// ------------------------------------------- degenerate conditioning

/// Degenerate-conditioning fixture: a fully dense all-positive low-rank
/// tensor with one long mode. The short modes' MTTKRP rows each reduce
/// 2048·8 = 16384 same-sign products, and the fit identity
/// residual² = |X|² + |X̂|² − 2⟨X,X̂⟩ consumes the last mode's MTTKRP
/// output directly — so pure f32's fp32 accumulation error lands in the
/// residual first-order, on top of rounding the factor masters through
/// fp32 every iteration. Mixed streams the same fp32 values but
/// accumulates and keeps masters in fp64, so it must land orders of
/// magnitude closer to the f64 fit (empirically ~1e-7 vs ~1e-5 here;
/// the gap holds across seeds with ≥ 10x margin). The asserted contract
/// is that margin plus a loose absolute bound — NOT the standard
/// kMixedFitTol ladder: on this adversarial fixture the absolute error
/// tracks the compiler's reduction order (an -O1 sanitizer build sums
/// serially instead of with vectorized multi-accumulators and lands
/// ~2x past 1e-6), while the realistic-tensor ladder tests above hold
/// 1e-6 at every optimization level.
TEST(PrecisionDegenerate, MixedBeatsF32OnLongSameSignAccumulation) {
  const SparseTensor x =
      generate_full_low_rank({2048, 8, 8}, /*rank=*/3, /*noise=*/1e-4,
                             /*seed=*/99);
  CpalsOptions opts;
  opts.rank = 3;
  opts.max_iterations = 25;
  opts.tolerance = 0.0;
  opts.nthreads = 2;

  opts.precision = Precision::kF64;
  const double f64 = final_fit(x, opts);
  opts.precision = Precision::kMixed;
  const double err_mixed = std::abs(final_fit(x, opts) - f64);
  opts.precision = Precision::kF32;
  const double err_f32 = std::abs(final_fit(x, opts) - f64);

  EXPECT_LT(err_mixed * 10.0, err_f32);
  EXPECT_LT(err_mixed, 1e-5);
}

}  // namespace
}  // namespace sptd
