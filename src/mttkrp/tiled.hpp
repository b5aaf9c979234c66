#pragma once
/// \file tiled.hpp
/// \brief Mode-tiled MTTKRP: the lock-free alternative to mutex pools and
///        privatization.
///
/// SPLATT's optional tensor tiling (the feature the paper's port omits,
/// Section V-A) rearranges nonzeros so that concurrent writers never touch
/// the same output rows. This module implements the 1-D form of that idea:
/// the output mode's index space is split into `ntiles` contiguous row
/// blocks, nonzeros are bucketed by their output-row block, and thread t
/// processes bucket t — every write lands in rows owned exclusively by the
/// writer, so the kernel needs neither locks nor per-thread replicas.
///
/// Trade-offs mirror SPLATT's: zero synchronization and no reduction
/// memory, but load balance now depends on how evenly the nonzeros spread
/// across output-row blocks (skewed tensors tile badly) and the layout is
/// fixed per (mode, ntiles). The ablation bench quantifies exactly this
/// against locks and privatization. This is the repo's only tiling
/// ablation, and it stays outside the CSF MTTKRP dispatch.

#include <vector>

#include "la/matrix.hpp"
#include "parallel/schedule.hpp"
#include "tensor/coo.hpp"

namespace sptd {

/// Nonzeros of a tensor bucketed by output-row block of one mode.
class TiledTensor {
 public:
  /// Buckets \p t's nonzeros by mode-\p mode row blocks into \p ntiles
  /// tiles. Under the default (weighted) policy tile boundaries are
  /// balanced by *nonzero count* (weighted partition over slice
  /// histograms), which keeps skewed tensors usable; the static policy
  /// uses equal row ranges (the ablation's "uniform tiles" baseline).
  /// Tiling is a fixed ownership structure, so the runtime policies
  /// (dynamic, workstealing) cannot apply: requesting one logs a one-time
  /// warning and runs weighted — effective_policy() reports what actually
  /// shaped the tiles (benches record it instead of the request).
  TiledTensor(const SparseTensor& t, int mode, int ntiles,
              SchedulePolicy policy = SchedulePolicy::kWeighted);

  [[nodiscard]] int mode() const { return mode_; }
  [[nodiscard]] int ntiles() const { return ntiles_; }

  /// The policy that actually shaped the tile boundaries: the request,
  /// except dynamic/workstealing which coerce to weighted.
  [[nodiscard]] SchedulePolicy effective_policy() const {
    return effective_policy_;
  }
  [[nodiscard]] nnz_t nnz() const { return tensor_.nnz(); }
  [[nodiscard]] const SparseTensor& tensor() const { return tensor_; }

  /// Nonzero extent of tile \p tile.
  [[nodiscard]] std::pair<nnz_t, nnz_t> tile_extent(int tile) const {
    return {tile_ptr_[static_cast<std::size_t>(tile)],
            tile_ptr_[static_cast<std::size_t>(tile) + 1]};
  }

  /// First output row owned by each tile (ntiles+1 boundaries).
  [[nodiscard]] const std::vector<idx_t>& row_bounds() const {
    return row_bounds_;
  }

 private:
  int mode_;
  int ntiles_;
  SchedulePolicy effective_policy_;
  SparseTensor tensor_;            ///< nonzeros permuted tile-contiguously
  std::vector<nnz_t> tile_ptr_;    ///< tile extents into tensor_
  std::vector<idx_t> row_bounds_;  ///< output-row ownership boundaries
};

/// Lock-free MTTKRP over a tiled tensor: thread t processes tile t.
/// \p out is zeroed first. Uses exactly \p tiled.ntiles() threads.
void mttkrp_tiled(const TiledTensor& tiled,
                  const std::vector<la::Matrix>& factors, la::Matrix& out);

}  // namespace sptd
