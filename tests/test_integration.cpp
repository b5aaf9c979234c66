// End-to-end integration tests: file I/O -> sort -> CSF -> CP-ALS across
// module boundaries, plus cross-implementation numerical equivalence.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <string>
#include <utility>

#include "cpd/cpals.hpp"
#include "csf/csf.hpp"
#include "mttkrp/mttkrp.hpp"
#include "parallel/backend.hpp"
#include "tensor/io.hpp"
#include "tensor/stats.hpp"
#include "tensor/synthetic.hpp"

namespace sptd {
namespace {

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(Integration, DecomposeFromTnsFile) {
  // generate -> write .tns -> read -> decompose; the fit must match a
  // decomposition of the in-memory tensor exactly (same seed).
  SparseTensor original = generate_low_rank({25, 20, 15}, 3, 2000, 0.01,
                                            2000);
  const std::string path = temp_path("sptd_integration.tns");
  write_tns_file(original, path);
  SparseTensor loaded = read_tns_file(path);
  std::remove(path.c_str());

  CpalsOptions opts;
  opts.rank = 4;
  opts.max_iterations = 8;
  opts.tolerance = 0.0;
  opts.nthreads = 2;
  const CpalsResult from_memory = cp_als(original, opts);
  const CpalsResult from_file = cp_als(loaded, opts);
  ASSERT_EQ(from_memory.fit_history.size(), from_file.fit_history.size());
  // Text round-trip preserves full double precision.
  EXPECT_EQ(from_memory.fit_history.back(), from_file.fit_history.back());
}

TEST(Integration, BinaryAndTextPathsAgree) {
  SparseTensor t = generate_synthetic(
      {.dims = {30, 30, 30}, .nnz = 3000, .seed = 2001});
  const std::string tns = temp_path("sptd_integration2.tns");
  const std::string bin = temp_path("sptd_integration2.bin");
  write_tns_file(t, tns);
  write_bin_file(t, bin);
  SparseTensor from_tns = read_tns_file(tns);
  SparseTensor from_bin = read_bin_file(bin);
  std::remove(tns.c_str());
  std::remove(bin.c_str());

  CpalsOptions opts;
  opts.rank = 3;
  opts.max_iterations = 4;
  opts.tolerance = 0.0;
  const CpalsResult a = cp_als(from_tns, opts);
  const CpalsResult b = cp_als(from_bin, opts);
  EXPECT_EQ(a.fit_history.back(), b.fit_history.back());
}

TEST(Integration, CsfPoliciesGiveSameDecomposition) {
  // One-mode, two-mode and all-mode storage must not change the math.
  const SparseTensor base = generate_synthetic(
      {.dims = {35, 18, 27}, .nnz = 2500, .seed = 2002});
  std::vector<double> fits;
  for (const auto policy : {CsfPolicy::kOneMode, CsfPolicy::kTwoMode,
                            CsfPolicy::kAllMode}) {
    SparseTensor t = base;
    CpalsOptions opts;
    opts.rank = 4;
    opts.max_iterations = 5;
    opts.tolerance = 0.0;
    opts.csf_policy = policy;
    fits.push_back(cp_als(t, opts).fit_history.back());
  }
  // Different storage policies traverse nonzeros in different orders, so
  // agreement is only up to floating-point reassociation.
  EXPECT_NEAR(fits[0], fits[1], 1e-9);
  EXPECT_NEAR(fits[0], fits[2], 1e-9);
}

TEST(Integration, ThreadCountDoesNotChangeConvergence) {
  const SparseTensor base = generate_full_low_rank({16, 14, 15}, 4, 0.0,
                                                   2003);
  std::vector<double> fits;
  for (const int nthreads : {1, 2, 4, 8}) {
    SparseTensor t = base;
    CpalsOptions opts;
    opts.rank = 4;
    opts.max_iterations = 20;
    opts.tolerance = 0.0;
    opts.nthreads = nthreads;
    fits.push_back(cp_als(t, opts).fit_history.back());
  }
  for (std::size_t i = 1; i < fits.size(); ++i) {
    EXPECT_NEAR(fits[i], fits[0], 1e-6);
  }
  // Thread invariance is the point here; 20 iterations lands short of
  // full convergence but must already fit well.
  EXPECT_GT(fits[0], 0.95);
}

TEST(Integration, PresetPipelineSmallScale) {
  // The bench pipeline end-to-end at the bench smoke's scale and seed:
  // preset -> synthesize -> stats -> decompose with each implementation
  // variant.
  const auto cfg = find_preset("yelp").scaled(0.002, 42);
  SparseTensor t = generate_synthetic(cfg);
  const TensorStats stats = compute_stats(t);
  EXPECT_EQ(stats.nnz, cfg.nnz);

  for (const auto& variant : impl_variants()) {
    SparseTensor work = t;
    CpalsOptions opts;
    opts.rank = 4;
    opts.max_iterations = 2;
    opts.tolerance = 0.0;
    opts.nthreads = 2;
    apply_impl_variant(variant, opts);
    const CpalsResult r = cp_als(work, opts);
    EXPECT_EQ(r.iterations, 2) << variant.name;
    EXPECT_TRUE(std::isfinite(r.fit_history.back())) << variant.name;
  }

  // The Figure 5 smoke's configurations (rank 35, 2 iterations, 2
  // threads). Backend, implementation and CSF layout change how a sweep
  // runs, never its arithmetic: every fit is bitwise the first one's,
  // and the reported CSF footprint is the layout's exact byte count.
  const ParallelBackendKind prior = parallel_backend();
  std::optional<double> reference_fit;
  for (const auto backend :
       {ParallelBackendKind::kOmp, ParallelBackendKind::kPool}) {
    for (const char* impl : {"c", "chapel-optimize"}) {
      for (const auto [layout, csf_bytes] :
           {std::pair{CsfLayout::kCompressed, std::uint64_t{322469}},
            std::pair{CsfLayout::kWide, std::uint64_t{516692}}}) {
        SparseTensor work = t;
        CpalsOptions opts;
        opts.rank = 35;
        opts.max_iterations = 2;
        opts.tolerance = 0.0;
        opts.nthreads = 2;
        apply_impl_variant(find_impl_variant(impl), opts);
        opts.csf_layout = layout;
        opts.backend = backend;
        const CpalsResult r = cp_als(work, opts);
        const std::string what = std::string(parallel_backend_name(backend)) +
                                 "/" + impl + "/" + csf_layout_name(layout);
        EXPECT_EQ(r.csf_bytes, csf_bytes) << what;
        if (!reference_fit) {
          reference_fit = r.fit_history.back();
        }
        EXPECT_EQ(r.fit_history.back(), *reference_fit) << what;
      }
    }
  }
  set_parallel_backend(prior);
}

TEST(Integration, RemoveEmptySlicesThenDecompose) {
  // Sparse generation at tiny nnz leaves empty slices; compaction must
  // produce a decomposable tensor.
  SparseTensor t = generate_synthetic(
      {.dims = {500, 400, 300}, .nnz = 1000, .seed = 2004,
       .zipf_exponent = 0.8});
  t.remove_empty_slices();
  for (int m = 0; m < 3; ++m) {
    EXPECT_LE(t.dim(m), 500u);
  }
  CpalsOptions opts;
  opts.rank = 3;
  opts.max_iterations = 3;
  opts.tolerance = 0.0;
  const CpalsResult r = cp_als(t, opts);
  EXPECT_TRUE(std::isfinite(r.fit_history.back()));
}

TEST(Integration, MttkrpAgreesBetweenCooAndCsf) {
  SparseTensor t = generate_synthetic(
      {.dims = {40, 32, 24}, .nnz = 5000, .seed = 2005,
       .zipf_exponent = 0.6});
  Rng rng(77);
  std::vector<la::Matrix> factors;
  for (int m = 0; m < 3; ++m) {
    factors.push_back(la::Matrix::random(t.dim(m), 6, rng));
  }
  SparseTensor sorted = t;
  const CsfSet set(sorted, CsfPolicy::kTwoMode, 2);
  MttkrpOptions mo;
  mo.nthreads = 2;
  MttkrpWorkspace ws(mo, 6, 3);
  for (int mode = 0; mode < 3; ++mode) {
    la::Matrix via_csf(t.dim(mode), 6);
    mttkrp(set, factors, mode, via_csf, ws);
    la::Matrix via_coo(t.dim(mode), 6);
    mttkrp_coo(t, factors, mode, via_coo, mo);
    EXPECT_LT(via_csf.max_abs_diff(via_coo), 1e-9) << "mode " << mode;
  }
}

}  // namespace
}  // namespace sptd
