#pragma once
/// \file workspace.hpp
/// \brief Shared per-run state for the completion solvers.
///
/// Every completion solver walks "all observed entries whose mode-m
/// coordinate is i" and distributes that walk over a thread team. The
/// workspace builds this once per run — per-mode slice views with cached
/// `SliceSchedule`s from the execution-plan layer — plus the
/// solver-specific state that must outlive an epoch: the SGD stratum grid
/// (built from the same weighted partition machinery, so no two threads
/// ever touch the same factor rows) and the CCD++ residual array. Solvers
/// hold a reference to one workspace and carry no state of their own
/// beyond scalars.

#include <memory>
#include <span>
#include <vector>

#include "common/aligned.hpp"
#include "common/types.hpp"
#include "completion/completion.hpp"
#include "la/matrix.hpp"
#include "parallel/schedule.hpp"
#include "tensor/coo.hpp"

namespace sptd {

/// Observed entries grouped by slice of one mode: a CSR-like view used to
/// walk "all nonzeros whose mode-m coordinate is i" during a row/column
/// update, with the row distribution over the team cached alongside it.
/// Built by a stable counting sort on the single mode coordinate, which
/// also yields `canon` — the permutation back to the training tensor's
/// original nonzero order — so per-nonzero state shared across modes (the
/// CCD++ residual) can live in one canonical array.
struct ModeSlices {
  SparseTensor grouped;          ///< copy grouped by mode-m coordinate
  std::vector<nnz_t> slice_ptr;  ///< per-slice extents (dims[m]+1)
  std::vector<nnz_t> canon;      ///< grouped position -> original nnz id
  SliceSchedule schedule;        ///< row distribution over the team
  /// fp32 copy of grouped.vals(), built only under f32/mixed precision
  /// (empty under f64): the value stream the ALS row passes read.
  aligned_vector<float> vals_f32;
};

/// The SGD stratum grid: each mode's index space is cut into S blocks by
/// the weighted nnz partition, a cell is one block per mode, and nonzeros
/// are bucketed by cell in CSR form.
/// In sub-epoch (s_1..s_{N-1}) thread t owns cell
/// (t, (t+s_1) mod S, ..., (t+s_{N-1}) mod S): any two threads differ in
/// EVERY mode's block, so no factor row is ever shared, and over the
/// S^(N-1) sub-epochs of an epoch every cell is visited exactly once.
struct StratumGrid {
  int side = 0;                   ///< S: blocks per mode (<= nthreads)
  std::vector<std::vector<nnz_t>> mode_bounds;  ///< per mode, S+1 bounds
  std::vector<nnz_t> cell_ptr;    ///< CSR extents, length S^order + 1
  std::vector<nnz_t> cell_ids;    ///< original nnz ids, bucketed by cell
  [[nodiscard]] nnz_t cells() const {
    return cell_ptr.empty() ? 0 : static_cast<nnz_t>(cell_ptr.size()) - 1;
  }
};

/// Everything the solvers share across epochs for one training tensor.
class CompletionWorkspace {
 public:
  /// Builds the per-mode slice views and schedules; the SGD/CCD state is
  /// built only when \p options.algorithm needs it.
  CompletionWorkspace(const SparseTensor& train,
                      const CompletionOptions& options);

  [[nodiscard]] const SparseTensor& train() const { return *train_; }
  [[nodiscard]] const CompletionOptions& options() const {
    return *options_;
  }
  [[nodiscard]] int order() const { return train_->order(); }
  [[nodiscard]] int nthreads() const { return options_->nthreads; }

  /// The kernel width the run's rank and --kernels flag select
  /// (0 = generic runtime-length loops).
  [[nodiscard]] idx_t kernel_width() const { return kernel_width_; }

  [[nodiscard]] const ModeSlices& mode_slices(int m) const {
    return slices_[static_cast<std::size_t>(m)];
  }

  /// Distribution of [0, nnz) over the team under the run's policy, for
  /// whole-nonzero passes (CCD++ residual initialization).
  [[nodiscard]] const SliceSchedule& nnz_schedule() const {
    return nnz_schedule_;
  }

  /// fp32 copy of the training values in canonical (original) nonzero
  /// order, built only under f32/mixed precision — the value stream of
  /// the passes that index original nnz ids (SGD updates, the CCD++
  /// residual initialization).
  [[nodiscard]] std::span<const float> train_vals_f32() const {
    return train_vals_f32_;
  }

  /// SGD stratum grid (empty unless algorithm == kSgd).
  [[nodiscard]] StratumGrid& strata() { return strata_; }
  [[nodiscard]] const StratumGrid& strata() const { return strata_; }

  /// CCD++ residual, canonical nonzero order (empty unless kCcd).
  [[nodiscard]] aligned_vector<val_t>& residual() { return residual_; }

  /// Per-thread aligned scratch rows (ld()-padded, padding lanes zero):
  /// thread \p tid gets its own matrix, sized by the solver's needs at
  /// construction, so hot passes never allocate.
  [[nodiscard]] la::Matrix& scratch(int tid) {
    return scratch_[static_cast<std::size_t>(tid)];
  }

  /// Per-thread spill buffer for slice-length temporaries (CCD++ caches
  /// the "other factors" products of a slice between its two passes).
  [[nodiscard]] aligned_vector<val_t>& slice_buffer(int tid) {
    return slice_buffers_[static_cast<std::size_t>(tid)];
  }

 private:
  const SparseTensor* train_;
  const CompletionOptions* options_;
  idx_t kernel_width_ = 0;
  std::vector<ModeSlices> slices_;
  SliceSchedule nnz_schedule_;
  aligned_vector<float> train_vals_f32_;
  StratumGrid strata_;
  aligned_vector<val_t> residual_;
  std::vector<la::Matrix> scratch_;
  std::vector<aligned_vector<val_t>> slice_buffers_;
};

}  // namespace sptd
