#pragma once
/// \file cpals.hpp
/// \brief CP-ALS (Algorithm 1 of the paper): rank-R canonical polyadic
///        decomposition of a sparse tensor by alternating least squares,
///        with the per-routine timing breakdown the paper reports.

#include <optional>
#include <string>
#include <vector>

#include "common/timer.hpp"
#include "cpd/kruskal.hpp"
#include "csf/csf.hpp"
#include "mttkrp/mttkrp.hpp"
#include "resilience/resilience.hpp"
#include "sort/sort.hpp"
#include "tensor/coo.hpp"

namespace sptd {

/// All knobs of a CP-ALS run. Defaults match SPLATT's defaults and the
/// reference implementation's code paths.
struct CpalsOptions {
  idx_t rank = 10;
  int max_iterations = 50;
  /// Stop when the fit improves by less than this between iterations.
  /// Set to 0 to always run max_iterations (the paper runs a fixed 20).
  double tolerance = 1e-5;
  std::uint64_t seed = 23;  ///< factor initialization seed
  int nthreads = 1;

  CsfPolicy csf_policy = CsfPolicy::kTwoMode;
  /// CSF index-stream widths (compressed = narrowest per level; wide =
  /// the fixed u32/u64 ablation baseline).
  CsfLayout csf_layout = CsfLayout::kCompressed;
  SortVariant sort_variant = SortVariant::kAllOpts;
  RowAccess row_access = RowAccess::kPointer;
  LockKind lock_kind = LockKind::kOmp;
  /// Slice scheduling policy for the MTTKRP execution plan
  /// (weighted | workstealing).
  SchedulePolicy schedule = SchedulePolicy::kWeighted;
  /// Workstealing claims-per-thread target
  /// (MttkrpOptions::chunk_target).
  int chunk_target = 16;
  /// Lock-vs-privatize rule (MttkrpOptions::privatization_threshold):
  /// unset picks by the CSF's fiber counts; set applies SPLATT's
  /// dims[m] * nthreads <= threshold * nnz.
  std::optional<double> privatization_threshold;
  bool force_locks = false;
  bool allow_privatization = true;
  /// Rank-specialized SIMD kernels (MttkrpOptions::use_fixed_kernels);
  /// disable to benchmark the generic runtime-rank loops.
  bool use_fixed_kernels = true;
  /// Value-stream precision (common/precision.hpp). f64 is the exact
  /// pre-precision pipeline; mixed streams fp32 factor shadows + fp32 CSF
  /// values through the MTTKRP with fp64 accumulation (factor masters
  /// stay fp64 — fits match f64 within 1e-6 on the smoke fixtures); f32
  /// additionally accumulates in fp32 and rounds each updated factor
  /// through fp32 (fits within 1e-3). Solves, norms, Grams, and the fit
  /// always run fp64.
  Precision precision = Precision::kF64;
  /// Parallel backend (parallel/backend.hpp): omp (default) or pool.
  /// cp_als applies this process-wide via set_parallel_backend() before
  /// building CSF/plan state; defaults from SPTD_BACKEND.
  ParallelBackendKind backend = default_parallel_backend();

  /// Non-negative CP (SPLATT's constrained CP): after each least-squares
  /// solve, project the factor onto the non-negative orthant before
  /// normalization. With non-negative data this yields parts-based,
  /// interpretable components.
  bool nonnegative = false;

  /// Checkpoint/restart, numeric-health guards, and fault injection.
  /// Defaults are inert (no checkpoints, no injection, guards that only
  /// observe), so f64 runs stay bit-identical.
  ResilienceOptions resilience;
};

/// Result of a CP-ALS run.
struct CpalsResult {
  KruskalModel model;
  std::vector<double> fit_history;  ///< fit after each iteration
  int iterations = 0;               ///< iterations actually performed
  RoutineTimers timers;             ///< the paper's six routine timings
  std::uint64_t csf_bytes = 0;      ///< CSF memory footprint
  /// Bytes of tensor values streamed per MTTKRP launch under the run's
  /// precision: nnz * value width, summed over the CSF set's
  /// representations (8 B/value for f64, 4 B for f32/mixed).
  std::uint64_t value_bytes = 0;
  /// Checkpoint/recovery activity observed during the run.
  ResilienceCounters resilience;
};

/// Named implementation presets matching the paper's legend entries:
/// how the reference C code, the initial Chapel port, and the optimized
/// Chapel port differ in this reproduction.
struct ImplVariant {
  std::string name;
  RowAccess row_access;
  LockKind lock_kind;
  SortVariant sort_variant;
};

/// "c" (pointer/omp/all-opts), "chapel-initial" (slice/sync/initial),
/// "chapel-optimize" (pointer/atomic/all-opts).
const std::vector<ImplVariant>& impl_variants();

/// Finds a variant by name; throws sptd::Error if unknown.
const ImplVariant& find_impl_variant(const std::string& name);

/// Applies a variant's fields onto \p opts.
void apply_impl_variant(const ImplVariant& variant, CpalsOptions& opts);

/// Runs CP-ALS. \p tensor is re-sorted in place during CSF construction
/// (the paper's "Sort" routine, charged to the timers).
CpalsResult cp_als(SparseTensor& tensor, const CpalsOptions& options);

/// Runs CP-ALS on a pre-built CSF set (skips the sort/build; its timers
/// then cover only the iteration routines).
CpalsResult cp_als_csf(const CsfSet& csf_set, val_t tensor_norm_sq,
                       const CpalsOptions& options);

namespace detail {

/// Fit helpers of the ALS iteration core (cpd/als_loop.hpp) that both
/// cp_als and the distributed driver run; exposed so a replay of the loop
/// can reproduce its fit bitwise. \p partials is caller-owned scratch of
/// at least rank values per thread, allocated once per ALS run instead of
/// per iteration; only the first rank values of each buffer are used.
val_t fit_inner_product(const la::Matrix& mttkrp_out, const la::Matrix& a,
                        std::span<const val_t> lambda, int nthreads,
                        PrivateBuffers& partials);
val_t model_norm_sq(const std::vector<la::Matrix>& grams,
                    std::span<const val_t> lambda);

}  // namespace detail

}  // namespace sptd
