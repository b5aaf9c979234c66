#pragma once
/// \file tucker.hpp
/// \brief Sparse Tucker decomposition via HOOI — the other factorization
///        in SPLATT's toolbox (the paper cites Smith & Karypis's
///        CSF-based Tucker as part of what SPLATT provides).
///
/// Tucker models X ≈ G ×_0 U(0) ×_1 U(1) ... with a small dense core G
/// (dimensions = core_dims) and column-orthonormal factors U(m)
/// (I_m x core_dims[m]). HOOI (higher-order orthogonal iteration)
/// alternates, for each mode:
///   1. TTMc: W = X ×_{n != m} U(n)^T, matricized to I_m x K where
///      K = prod_{n != m} core_dims[n]  (sparse kernel, one pass/nonzero);
///   2. U(m) <- leading core_dims[m] left singular vectors of W, via the
///      eigendecomposition of the small K x K Gram matrix W^T W.
/// The core is G_(last) = U(last)^T W from the final mode's TTMc, and the
/// fit follows from ||X - X̂||² = ||X||² - ||G||² (orthonormal factors).

#include <vector>

#include "common/timer.hpp"
#include "common/types.hpp"
#include "csf/csf.hpp"
#include "la/matrix.hpp"
#include "parallel/backend.hpp"
#include "parallel/schedule.hpp"
#include "resilience/resilience.hpp"
#include "tensor/coo.hpp"

namespace sptd {

/// Tucker model: core tensor (dense, linearized last-mode-fastest with
/// respect to core_dims) plus orthonormal factor matrices.
struct TuckerModel {
  dims_t core_dims;
  std::vector<val_t> core;          ///< prod(core_dims) values
  std::vector<la::Matrix> factors;  ///< I_m x core_dims[m]

  [[nodiscard]] int order() const {
    return static_cast<int>(factors.size());
  }

  /// ||G||_F^2 (equals ||X̂||_F^2 when factors are orthonormal).
  [[nodiscard]] val_t core_norm_sq() const;

  /// Model value at one coordinate (O(prod core_dims) per call).
  [[nodiscard]] val_t value_at(std::span<const idx_t> coords) const;
};

/// HOOI options.
struct TuckerOptions {
  dims_t core_dims;        ///< one rank per mode
  int max_iterations = 50;
  double tolerance = 1e-5; ///< fit-improvement stop (0 = run all)
  std::uint64_t seed = 17;
  int nthreads = 1;
  /// Slice scheduling for the CSF TTMc kernels (weighted |
  /// workstealing); one schedule per mode is built before the HOOI loop
  /// and reused across all iterations (reset() per launch reseeds the
  /// work-stealing deques).
  SchedulePolicy schedule = SchedulePolicy::kWeighted;
  /// Index-stream widths of the all-mode CSF set the TTMc walks
  /// (compressed = per-level narrowest, wide = u32/u64 baseline).
  CsfLayout csf_layout = CsfLayout::kCompressed;
  /// Value-stream precision for the CSF TTMc (common/precision.hpp):
  /// f32/mixed stream fp32 factor shadows + fp32 CSF values with fp64
  /// Kronecker accumulation; f32 additionally rounds each updated factor
  /// through fp32 per HOOI sweep. All dense linear algebra (Gram, eigen,
  /// core) always runs fp64.
  Precision precision = Precision::kF64;
  /// Parallel backend (parallel/backend.hpp): omp (default) or pool.
  /// tucker_hooi applies this process-wide via set_parallel_backend()
  /// before building the CSF set; defaults from SPTD_BACKEND.
  ParallelBackendKind backend = default_parallel_backend();

  /// Checkpoint/restart, numeric-health guards, and fault injection
  /// (inert by default). Resume requires at least one HOOI iteration left
  /// to run — the core is regenerated from the final mode's TTMc.
  ResilienceOptions resilience;
};

/// HOOI result.
struct TuckerResult {
  TuckerModel model;
  std::vector<double> fit_history;  ///< fit after each iteration
  int iterations = 0;
  /// Checkpoint/recovery activity observed during the run.
  ResilienceCounters resilience;
};

/// Sparse TTMc with one mode skipped: out(c_m, :) += X(c) *
/// ⊗_{n != m} U(n)(c_n, :), where ⊗ is the Kronecker product of rows
/// taken in *descending* mode order (n = N-1 ... 0), giving out K columns
/// with K = prod_{n != m} cols(U(n)). Parallel over nonzero blocks with
/// per-thread accumulation into privatized buffers (out rows conflict).
void ttmc(const SparseTensor& x, const std::vector<la::Matrix>& factors,
          int mode, la::Matrix& out, int nthreads);

/// Runs HOOI. core_dims.size() must equal x.order(); each core dim must
/// be >= 1 and <= the mode length.
TuckerResult tucker_hooi(const SparseTensor& x,
                         const TuckerOptions& options);

/// CSF-based TTMc for the representation's ROOT mode — the algorithmic
/// contribution of SPLATT's Tucker work (Smith & Karypis, Euro-Par 2017):
/// nonzeros sharing fiber prefixes share the partial Kronecker products
/// computed up the tree, so each distinct fiber multiplies its factor row
/// once instead of once per nonzero. Output columns use the same
/// canonical layout as ttmc() (mode 0 fastest); results are identical.
/// \p factors are indexed by original mode id; out must be
/// dims[root] x prod_{n != root} cols. \p slices, when given, is a
/// prebuilt root-slice schedule (tucker_hooi builds one per mode before
/// the HOOI loop); null re-derives SPLATT's weighted blocking per call.
/// Under f32/mixed \p precision the walk streams fp32 factor shadows and
/// the CSF's fp32 value copy, accumulating Kronecker products in fp64;
/// f64 is the exact pre-precision path.
void ttmc_csf(const CsfTensor& csf,
              const std::vector<la::Matrix>& factors, la::Matrix& out,
              int nthreads, const SliceSchedule* slices = nullptr,
              Precision precision = Precision::kF64);

}  // namespace sptd
