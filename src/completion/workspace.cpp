#include "completion/workspace.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "la/kernels.hpp"
#include "parallel/partition.hpp"

namespace sptd {

namespace {

/// Stable counting sort of \p t's nonzeros by their mode-\p mode
/// coordinate: O(nnz), no comparison sort needed (solvers only require
/// slice grouping, not lexicographic order), and the permutation it runs
/// through is exactly the canon map the CCD++ residual needs.
ModeSlices build_mode_slices(const SparseTensor& t, int mode,
                             const CompletionOptions& options) {
  const idx_t dim = t.dim(mode);
  const nnz_t nnz = t.nnz();
  ModeSlices ms;
  ms.slice_ptr = slice_nnz_prefix(t.ind(mode), dim);
  ms.canon.resize(nnz);
  {
    std::vector<nnz_t> cursor(ms.slice_ptr.begin(),
                              ms.slice_ptr.end() - 1);
    const auto ids = t.ind(mode);
    for (nnz_t x = 0; x < nnz; ++x) {
      ms.canon[cursor[ids[x]]++] = x;
    }
  }
  SparseTensor grouped(t.dims());
  grouped.resize_nnz(nnz);
  for (int m = 0; m < t.order(); ++m) {
    const auto src = t.ind(m);
    const auto dst = grouped.ind(m);
    for (nnz_t p = 0; p < nnz; ++p) {
      dst[p] = src[ms.canon[p]];
    }
  }
  {
    const auto src = t.vals();
    const auto dst = grouped.vals();
    for (nnz_t p = 0; p < nnz; ++p) {
      dst[p] = src[ms.canon[p]];
    }
  }
  ms.grouped = std::move(grouped);
  if (options.precision != Precision::kF64) {
    const auto vals = ms.grouped.vals();
    ms.vals_f32.resize(nnz);
    for (nnz_t p = 0; p < nnz; ++p) {
      ms.vals_f32[p] = static_cast<float>(vals[p]);
    }
  }
  ms.schedule = SliceSchedule(options.schedule, dim, ms.slice_ptr,
                              options.nthreads,
                              static_cast<nnz_t>(options.chunk_target));
  return ms;
}

/// Builds the SGD stratum grid. Each mode is cut by the weighted nnz
/// partition of its slices under every policy: stratum ownership cannot
/// move at run time, so workstealing keeps its weighted seed here.
StratumGrid build_strata(const SparseTensor& t,
                         const std::vector<ModeSlices>& slices,
                         const CompletionOptions& options) {
  const int order = t.order();
  const nnz_t nnz = t.nnz();
  StratumGrid grid;

  // Side length: one block row per thread, capped so the cell table stays
  // O(nnz) even for high orders / large teams (extra threads beyond the
  // side simply idle during SGD sub-epochs).
  const nnz_t cell_limit = std::max<nnz_t>(4 * nnz, 4096);
  const auto cells_for = [&](int side) {
    nnz_t c = 1;
    for (int m = 0; m < order; ++m) {
      c *= static_cast<nnz_t>(side);
      if (c > cell_limit) {
        return cell_limit + 1;
      }
    }
    return c;
  };
  int side = std::max(1, options.nthreads);
  while (side > 1 && cells_for(side) > cell_limit) {
    --side;
  }
  grid.side = side;

  grid.mode_bounds.reserve(static_cast<std::size_t>(order));
  for (int m = 0; m < order; ++m) {
    grid.mode_bounds.push_back(weighted_partition(
        slices[static_cast<std::size_t>(m)].slice_ptr, side));
  }

  // Bucket nonzeros by cell (mode-major cell id), CSR form, stable in the
  // original nonzero order so the grid is deterministic.
  const nnz_t cells = cells_for(side);
  std::vector<nnz_t> cell_of(nnz);
  for (nnz_t x = 0; x < nnz; ++x) {
    nnz_t cell = 0;
    for (int m = 0; m < order; ++m) {
      const auto& bounds = grid.mode_bounds[static_cast<std::size_t>(m)];
      const auto it = std::upper_bound(
          bounds.begin(), bounds.end(),
          static_cast<nnz_t>(t.ind(m)[x]));
      const auto block =
          static_cast<nnz_t>(it - bounds.begin()) - 1;
      cell = cell * static_cast<nnz_t>(side) + block;
    }
    cell_of[x] = cell;
  }
  grid.cell_ptr.assign(static_cast<std::size_t>(cells) + 1, 0);
  for (nnz_t x = 0; x < nnz; ++x) {
    ++grid.cell_ptr[static_cast<std::size_t>(cell_of[x]) + 1];
  }
  for (std::size_t c = 1; c < grid.cell_ptr.size(); ++c) {
    grid.cell_ptr[c] += grid.cell_ptr[c - 1];
  }
  grid.cell_ids.resize(nnz);
  {
    std::vector<nnz_t> cursor(grid.cell_ptr.begin(),
                              grid.cell_ptr.end() - 1);
    for (nnz_t x = 0; x < nnz; ++x) {
      grid.cell_ids[cursor[static_cast<std::size_t>(cell_of[x])]++] = x;
    }
  }
  return grid;
}

/// Scratch rows each solver's per-thread workspace needs (see the row
/// layouts in solver_sgd.cpp / solver_als.cpp; 2 covers the Hadamard
/// ping-pong every prediction loop uses).
idx_t scratch_rows_for(CompletionAlgorithm alg, int order) {
  switch (alg) {
    case CompletionAlgorithm::kSgd:
      return static_cast<idx_t>(3 * order + 3);
    case CompletionAlgorithm::kAls:
    case CompletionAlgorithm::kCcd:
      return 3;
  }
  return 3;
}

}  // namespace

CompletionWorkspace::CompletionWorkspace(const SparseTensor& train,
                                         const CompletionOptions& options)
    : train_(&train), options_(&options) {
  SPTD_CHECK(train.nnz() > 0, "CompletionWorkspace: empty training set");
  kernel_width_ = options.use_fixed_kernels
                      ? la::kern::fixed_width_for(options.rank)
                      : 0;
  const int order = train.order();
  slices_.reserve(static_cast<std::size_t>(order));
  for (int m = 0; m < order; ++m) {
    slices_.push_back(build_mode_slices(train, m, options));
  }
  nnz_schedule_ = SliceSchedule(options.schedule, train.nnz(), {},
                                options.nthreads,
                                static_cast<nnz_t>(options.chunk_target));
  if (options.precision != Precision::kF64) {
    const auto vals = train.vals();
    train_vals_f32_.resize(train.nnz());
    for (nnz_t x = 0; x < train.nnz(); ++x) {
      train_vals_f32_[x] = static_cast<float>(vals[x]);
    }
  }
  if (options.algorithm == CompletionAlgorithm::kSgd) {
    strata_ = build_strata(train, slices_, options);
  }
  if (options.algorithm == CompletionAlgorithm::kCcd) {
    residual_.resize(train.nnz());
    slice_buffers_.resize(static_cast<std::size_t>(options.nthreads));
  }
  const idx_t rows = scratch_rows_for(options.algorithm, order);
  scratch_.reserve(static_cast<std::size_t>(options.nthreads));
  for (int t = 0; t < options.nthreads; ++t) {
    scratch_.emplace_back(rows, options.rank);
  }
}

}  // namespace sptd
