// Tests for the adaptive-width compressed CSF layer: per-level width
// selection (including the u8/u16 and u16/u32 boundary dims), typed level
// views, byte accounting, and compressed-vs-wide equivalence of MTTKRP,
// CP-ALS, and Tucker across ranks, schedules, and sync strategies.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "cpd/cpals.hpp"
#include "csf/csf.hpp"
#include "mttkrp/mttkrp.hpp"
#include "sort/sort.hpp"
#include "tensor/stats.hpp"
#include "tensor/synthetic.hpp"
#include "tucker/tucker.hpp"

namespace sptd {
namespace {

constexpr double kTol = 1e-12;

void expect_matrix_near(const la::Matrix& a, const la::Matrix& b,
                        double tol, const std::string& what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  // Relative 1e-12: locked multi-thread deposits land in nondeterministic
  // order, so entries that accumulate many contributions differ by
  // round-off at their own magnitude even between two runs of the SAME
  // layout.
  double worst = 0.0;
  for (idx_t i = 0; i < a.rows(); ++i) {
    for (idx_t j = 0; j < a.cols(); ++j) {
      const double denom =
          std::max(1.0, std::max(std::abs(a(i, j)), std::abs(b(i, j))));
      worst = std::max(worst, std::abs(a(i, j) - b(i, j)) / denom);
    }
  }
  EXPECT_LE(worst, tol) << what;
}

SparseTensor make_tensor(dims_t dims, nnz_t nnz, std::uint64_t seed,
                         double zipf = 0.5) {
  return generate_synthetic(
      {.dims = dims, .nnz = nnz, .seed = seed, .zipf_exponent = zipf});
}

// ------------------------------------------------------- width selection

TEST(CsfLayoutParse, RoundTrips) {
  for (const auto l : {CsfLayout::kCompressed, CsfLayout::kWide}) {
    EXPECT_EQ(parse_csf_layout(csf_layout_name(l)), l);
  }
  EXPECT_THROW(parse_csf_layout("narrow"), Error);
}

TEST(CsfWidthRule, FidBoundaries) {
  const auto c = CsfLayout::kCompressed;
  EXPECT_EQ(csf_fid_width_for(1, c), 1);
  EXPECT_EQ(csf_fid_width_for(255, c), 1);
  EXPECT_EQ(csf_fid_width_for(256, c), 2);
  EXPECT_EQ(csf_fid_width_for(65535, c), 2);
  EXPECT_EQ(csf_fid_width_for(65536, c), 4);
  EXPECT_EQ(csf_fid_width_for(255, CsfLayout::kWide),
            static_cast<int>(sizeof(idx_t)));
}

TEST(CsfWidthRule, PtrBoundaries) {
  const auto c = CsfLayout::kCompressed;
  EXPECT_EQ(csf_ptr_width_for(0, c), 2);
  EXPECT_EQ(csf_ptr_width_for(65535, c), 2);
  EXPECT_EQ(csf_ptr_width_for(65536, c), 4);
  EXPECT_EQ(csf_ptr_width_for((1ull << 32) - 1, c), 4);
  EXPECT_EQ(csf_ptr_width_for(1ull << 32, c), 8);
  EXPECT_EQ(csf_ptr_width_for(100, CsfLayout::kWide),
            static_cast<int>(sizeof(nnz_t)));
}

TEST(CsfCompressed, PerLevelWidthsFollowModeDims) {
  // Dims straddle both fid cutoffs: 255 -> u8, 256 -> u16, 65536 -> u32.
  SparseTensor t = make_tensor({255, 256, 65536}, 3000, 11);
  const auto order = csf_mode_order(t.dims(), -1);  // {0, 1, 2}
  sort_tensor_perm(t, order, 1);
  const CsfTensor csf(t, order);
  EXPECT_EQ(csf.layout(), CsfLayout::kCompressed);
  EXPECT_EQ(csf.fid_width(0), 1);
  EXPECT_EQ(csf.fid_width(1), 2);
  EXPECT_EQ(csf.fid_width(2), 4);
  // 3000 nonzeros: every child count fits u16.
  EXPECT_EQ(csf.ptr_width(0), 2);
  EXPECT_EQ(csf.ptr_width(1), 2);

  SparseTensor tw = t;
  const CsfTensor wide(tw, order, CsfLayout::kWide);
  for (int l = 0; l < 3; ++l) {
    EXPECT_EQ(wide.fid_width(l), static_cast<int>(sizeof(idx_t)));
  }
  EXPECT_EQ(wide.ptr_width(0), static_cast<int>(sizeof(nnz_t)));
  EXPECT_LT(csf.memory_bytes(), wide.memory_bytes());
  EXPECT_LT(csf.index_bytes(), wide.index_bytes());
}

TEST(CsfCompressed, Dim65535StaysU16) {
  SparseTensor t = make_tensor({50, 60, 65535}, 1000, 12);
  const auto order = csf_mode_order(t.dims(), -1);
  sort_tensor_perm(t, order, 1);
  const CsfTensor csf(t, order);
  EXPECT_EQ(csf.fid_width(csf.order() - 1), 2);
}

TEST(CsfCompressed, PtrWidthCrossesU16AtLargeNnz) {
  // 70000 nonzeros: the deepest fptr must index past 65535.
  SparseTensor t = make_tensor({30, 100, 500}, 70000, 13);
  const auto order = csf_mode_order(t.dims(), -1);
  sort_tensor_perm(t, order, 1);
  const CsfTensor csf(t, order);
  EXPECT_EQ(csf.ptr_width(csf.order() - 2), 4);
}

TEST(CsfCompressed, ToCooRoundTripsAcrossBoundaryDims) {
  SparseTensor t = make_tensor({255, 256, 65536}, 2500, 14);
  const auto order = csf_mode_order(t.dims(), -1);
  sort_tensor_perm(t, order, 1);
  const CsfTensor csf(t, order);
  const SparseTensor back = csf.to_coo();
  ASSERT_EQ(back.nnz(), t.nnz());
  for (nnz_t x = 0; x < t.nnz(); ++x) {
    for (int m = 0; m < t.order(); ++m) {
      EXPECT_EQ(back.ind(m)[x], t.ind(m)[x]);
    }
    EXPECT_DOUBLE_EQ(back.vals()[x], t.vals()[x]);
  }
}

TEST(CsfCompressed, TypedStreamBasesMatchErasedAccessors) {
  SparseTensor t = make_tensor({100, 300, 50000}, 2000, 15);
  const auto order = csf_mode_order(t.dims(), -1);  // {0, 1, 2}
  sort_tensor_perm(t, order, 1);
  const CsfTensor csf(t, order);
  const FidStreamRef fids = csf.fid_stream(0);
  const PtrStreamRef fptr = csf.ptr_stream(0);
  ASSERT_EQ(fids.width, 1);
  ASSERT_EQ(fptr.width, 2);
  // The kernels' typed views cast the bases to the stored types.
  const auto* typed_fids = static_cast<const std::uint8_t*>(fids.base);
  const auto* typed_fptr = static_cast<const std::uint16_t*>(fptr.base);
  for (nnz_t f = 0; f < csf.nfibers(0); ++f) {
    EXPECT_EQ(static_cast<idx_t>(typed_fids[f]), csf.fid(0, f));
    EXPECT_EQ(static_cast<nnz_t>(typed_fptr[f]), csf.ptr(0, f));
  }
  EXPECT_EQ(static_cast<nnz_t>(typed_fptr[csf.nfibers(0)]),
            csf.ptr(0, csf.nfibers(0)));
}

TEST(CsfCompressed, SetReportsLayoutAndShrinks) {
  SparseTensor tc = make_tensor({80, 200, 900}, 6000, 16);
  SparseTensor tw = tc;
  const CsfSet comp(tc, CsfPolicy::kTwoMode, 2, nullptr,
                    SortVariant::kAllOpts, CsfLayout::kCompressed);
  const CsfSet wide(tw, CsfPolicy::kTwoMode, 2, nullptr,
                    SortVariant::kAllOpts, CsfLayout::kWide);
  EXPECT_EQ(comp.layout(), CsfLayout::kCompressed);
  EXPECT_EQ(wide.layout(), CsfLayout::kWide);
  EXPECT_LT(comp.memory_bytes(), wide.memory_bytes());

  // The bench smoke's tensor (yelp @ 0.002, seed 42): both footprints are
  // exact, so a change that re-widens one index stream fails here.
  const auto cfg = find_preset("yelp").scaled(0.002, 42);
  SparseTensor yc = generate_synthetic(cfg);
  SparseTensor yw = yc;
  const CsfSet ycomp(yc, CsfPolicy::kTwoMode, 2, nullptr,
                     SortVariant::kAllOpts, CsfLayout::kCompressed);
  const CsfSet ywide(yw, CsfPolicy::kTwoMode, 2, nullptr,
                     SortVariant::kAllOpts, CsfLayout::kWide);
  EXPECT_EQ(ycomp.memory_bytes(), 322469u);
  EXPECT_EQ(ywide.memory_bytes(), 516692u);
}

TEST(CsfCompressed, StatsReportPerLevelWidthsAndBytes) {
  SparseTensor t = make_tensor({255, 256, 65536}, 3000, 17);
  const CsfSet set(t, CsfPolicy::kOneMode, 1);
  const CsfSetStats stats = compute_csf_stats(set);
  EXPECT_EQ(stats.layout, CsfLayout::kCompressed);
  ASSERT_EQ(stats.reps.size(), 1u);
  const CsfRepStats& rep = stats.reps.front();
  ASSERT_EQ(rep.levels.size(), 3u);
  EXPECT_EQ(rep.levels[0].fid_width, 1);
  EXPECT_EQ(rep.levels[1].fid_width, 2);
  EXPECT_EQ(rep.levels[2].fid_width, 4);
  EXPECT_EQ(rep.levels[2].ptr_width, 0);  // leaf has no fptr
  EXPECT_EQ(stats.total_bytes, set.memory_bytes());
  std::uint64_t level_bytes = 0;
  for (const auto& ls : rep.levels) {
    level_bytes += ls.fid_bytes + ls.ptr_bytes;
  }
  EXPECT_EQ(level_bytes, rep.index_bytes);
}

// --------------------------------------------- MTTKRP equivalence sweeps

/// Runs the mode-m MTTKRP over both layouts of the same tensor and
/// expects agreement within kTol.
void expect_layout_equivalence(const SparseTensor& base, idx_t rank,
                               const MttkrpOptions& opts,
                               const std::string& what,
                               CsfPolicy policy = CsfPolicy::kOneMode) {
  // One-mode policy by default so the sweep exercises all three kernel
  // levels (root, internal, leaf).
  SparseTensor tc = base;
  SparseTensor tw = base;
  const CsfSet comp(tc, policy, opts.nthreads, nullptr,
                    SortVariant::kAllOpts, CsfLayout::kCompressed);
  const CsfSet wide(tw, policy, opts.nthreads, nullptr,
                    SortVariant::kAllOpts, CsfLayout::kWide);
  Rng rng(99);
  std::vector<la::Matrix> factors;
  for (int m = 0; m < base.order(); ++m) {
    factors.push_back(la::Matrix::random(base.dim(m), rank, rng));
  }
  MttkrpWorkspace ws_c(opts, rank, base.order());
  MttkrpWorkspace ws_w(opts, rank, base.order());
  for (int m = 0; m < base.order(); ++m) {
    la::Matrix out_c(base.dim(m), rank);
    la::Matrix out_w(base.dim(m), rank);
    mttkrp(comp, factors, m, out_c, ws_c);
    mttkrp(wide, factors, m, out_w, ws_w);
    EXPECT_EQ(ws_c.last_strategy, ws_w.last_strategy) << what;
    expect_matrix_near(out_c, out_w, kTol,
                       what + " mode " + std::to_string(m));
  }
}

struct SyncConfig {
  const char* name;
  void (*apply)(MttkrpOptions&);
};

const SyncConfig kSyncConfigs[] = {
    {"default", [](MttkrpOptions&) {}},
    {"locks", [](MttkrpOptions& o) { o.force_locks = true; }},
    {"privatize",
     [](MttkrpOptions& o) { o.privatization_threshold = 1e18; }},
};

TEST(CsfCompressedMttkrp, MatchesWideAcrossRanksSchedulesSyncs) {
  // Ranks cover the kernel-dispatch tiers: 17 = generic runtime-rank
  // loops (it pads to 24, a width with no instantiation), 8/16 = exact
  // fixed-width instantiations, 35 = the paper's default riding its
  // padded width (40).
  const SparseTensor base = make_tensor({40, 300, 500}, 4000, 21, 0.7);
  for (const idx_t rank : {17u, 8u, 16u, 35u}) {
    for (const auto schedule :
         {SchedulePolicy::kWeighted, SchedulePolicy::kWorkStealing}) {
      for (const SyncConfig& sync : kSyncConfigs) {
        MttkrpOptions opts;
        opts.nthreads = 3;
        opts.schedule = schedule;
        sync.apply(opts);
        expect_layout_equivalence(
            base, rank, opts,
            std::string("rank ") + std::to_string(rank) + " " +
                schedule_policy_name(schedule) + " " + sync.name);
      }
    }
  }
}

TEST(CsfCompressedMttkrp, MatchesWideUnderGenericRowAccess) {
  // The slice/2d ablation bundles run the width-erased view on
  // compressed tensors; they must still agree with wide exactly.
  const SparseTensor base = make_tensor({40, 300, 500}, 4000, 22, 0.7);
  for (const auto ra :
       {RowAccess::kSlice, RowAccess::kIndex2D, RowAccess::kPointer}) {
    MttkrpOptions opts;
    opts.nthreads = 2;
    opts.row_access = ra;
    opts.use_fixed_kernels = false;
    opts.force_locks = true;  // the locked sinks, whatever the default rule
    expect_layout_equivalence(base, 8, opts,
                              std::string("row access ") +
                                  row_access_name(ra));
  }
}

TEST(CsfCompressedMttkrp, MatchesWideOnBoundaryWidthTensors) {
  // Straddles every fid cutoff; small nnz keeps the deepest fptr at u16,
  // so the erased-view fallback is what executes for compressed.
  const SparseTensor boundary = make_tensor({255, 256, 65536}, 3000, 23);
  // Large-nnz tensor: leaf fids u16, deepest fptr u32 — the typed
  // (u16, u32) fast path.
  const SparseTensor tall = make_tensor({30, 100, 500}, 70000, 24);
  // Large-dim + large-nnz: leaf fids u32, deepest fptr u32 — the typed
  // (u32, u32) fast path.
  const SparseTensor huge = make_tensor({20, 50, 70000}, 70000, 25);
  // Each typed view under the default plan and under pinned locks.
  for (const SparseTensor* t : {&boundary, &tall, &huge}) {
    for (const idx_t rank : {8u, 16u}) {
      for (const bool locks : {false, true}) {
        MttkrpOptions opts;
        opts.nthreads = 3;
        opts.schedule = SchedulePolicy::kWeighted;
        opts.force_locks = locks;
        expect_layout_equivalence(*t, rank, opts, "boundary tensor");
      }
    }
  }
}

TEST(CsfCompressedMttkrp, MatchesWideUnderTwoAndAllModePolicies) {
  const SparseTensor base = make_tensor({40, 300, 500}, 4000, 27, 0.7);
  for (const auto policy : {CsfPolicy::kTwoMode, CsfPolicy::kAllMode}) {
    MttkrpOptions opts;
    opts.nthreads = 3;
    opts.force_locks = true;  // the locked sinks, whatever the default rule
    expect_layout_equivalence(base, 16, opts, "policy sweep", policy);
  }
}

TEST(CsfCompressedMttkrp, MatchesWideOnOrder2And4) {
  for (const auto& dims : {dims_t{300, 500}, dims_t{20, 30, 40, 50}}) {
    MttkrpOptions opts;
    opts.nthreads = 2;
    opts.force_locks = true;  // the locked sinks, whatever the default rule
    expect_layout_equivalence(make_tensor(dims, 2500, 26), 8, opts,
                              "order " + std::to_string(dims.size()));
  }
}

// ----------------------------------------------- CP-ALS / Tucker parity

TEST(CsfCompressedCpals, FitAndFactorsMatchWide) {
  const SparseTensor base = make_tensor({60, 150, 220}, 5000, 31, 0.6);
  CpalsOptions opts;
  opts.rank = 8;
  opts.max_iterations = 5;
  opts.tolerance = 0.0;
  opts.nthreads = 2;
  opts.force_locks = true;  // the locked sinks, whatever the default rule
  SparseTensor tc = base;
  SparseTensor tw = base;
  opts.csf_layout = CsfLayout::kCompressed;
  const CpalsResult rc = cp_als(tc, opts);
  opts.csf_layout = CsfLayout::kWide;
  const CpalsResult rw = cp_als(tw, opts);
  ASSERT_EQ(rc.fit_history.size(), rw.fit_history.size());
  for (std::size_t i = 0; i < rc.fit_history.size(); ++i) {
    EXPECT_NEAR(rc.fit_history[i], rw.fit_history[i], kTol);
  }
  for (int m = 0; m < base.order(); ++m) {
    expect_matrix_near(rc.model.factors[static_cast<std::size_t>(m)],
                       rw.model.factors[static_cast<std::size_t>(m)], kTol,
                       "cpals factor " + std::to_string(m));
  }
  EXPECT_LT(rc.csf_bytes, rw.csf_bytes);
}

TEST(CsfCompressedTucker, FitMatchesWide) {
  const SparseTensor base = make_tensor({40, 60, 90}, 3000, 32, 0.4);
  TuckerOptions opts;
  opts.core_dims = {3, 3, 3};
  opts.max_iterations = 4;
  opts.tolerance = 0.0;
  opts.nthreads = 2;
  opts.csf_layout = CsfLayout::kCompressed;
  const TuckerResult rc = tucker_hooi(base, opts);
  opts.csf_layout = CsfLayout::kWide;
  const TuckerResult rw = tucker_hooi(base, opts);
  ASSERT_EQ(rc.fit_history.size(), rw.fit_history.size());
  for (std::size_t i = 0; i < rc.fit_history.size(); ++i) {
    EXPECT_NEAR(rc.fit_history[i], rw.fit_history[i], kTol);
  }
  for (std::size_t i = 0; i < rc.model.core.size(); ++i) {
    EXPECT_NEAR(rc.model.core[i], rw.model.core[i], 1e-9);
  }
}

}  // namespace
}  // namespace sptd
