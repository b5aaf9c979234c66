#pragma once
/// \file partition.hpp
/// \brief Static work partitioning used by the MTTKRP/sort kernels.
///
/// The paper notes (Section IV-B) that Chapel lacks a direct analogue of
/// `omp for` nested inside `omp parallel`, so the port computes loop bounds
/// per task manually. These helpers are that manual computation, shared by
/// both the reference path and the ported path.

#include <cstddef>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"

namespace sptd {

/// Half-open range [begin, end).
struct Range {
  nnz_t begin = 0;
  nnz_t end = 0;
  [[nodiscard]] nnz_t size() const { return end - begin; }
  bool operator==(const Range&) const = default;
};

/// Contiguous block partition of [0, total) into \p nparts pieces whose
/// sizes differ by at most one (the first `total % nparts` parts get the
/// extra element). Exactly OpenMP's `schedule(static)` blocking.
Range block_partition(nnz_t total, int nparts, int part);

/// Partitions [0, n_items) so every part has approximately equal total
/// weight, where \p weight_prefix is the exclusive prefix sum of item
/// weights (length n_items + 1, weight_prefix[0] == 0). Returns nparts+1
/// boundaries. Used to balance MTTKRP trees by nonzero count, like
/// SPLATT's csf partitioning.
std::vector<nnz_t> weighted_partition(std::span<const nnz_t> weight_prefix,
                                      int nparts);

/// Process-wide count of weighted_partition() calls (monotonic, relaxed).
/// Partitioning is plan-construction work: tests assert hot loops perform
/// none of it after their execution plan is built.
std::uint64_t weighted_partition_calls();

/// Per-slice occurrence prefix of an index array: out[i] = number of
/// entries of \p ids with value < i, length \p dim + 1. This is the
/// weight_prefix every slice-balanced partition (completion row updates,
/// distributed blocks) feeds to weighted_partition.
std::vector<nnz_t> slice_nnz_prefix(std::span<const idx_t> ids, idx_t dim);

/// Same, over a generic index stream (ids[i] -> slice id for i < count):
/// the form the width-adaptive CSF streams feed it in.
template <typename Ids>
std::vector<nnz_t> slice_nnz_prefix(Ids ids, nnz_t count, idx_t dim) {
  std::vector<nnz_t> prefix(static_cast<std::size_t>(dim) + 1, 0);
  for (nnz_t x = 0; x < count; ++x) {
    const idx_t id = ids[x];
    SPTD_DCHECK(id < dim, "slice_nnz_prefix: id out of range");
    ++prefix[static_cast<std::size_t>(id) + 1];
  }
  for (idx_t i = 0; i < dim; ++i) {
    prefix[static_cast<std::size_t>(i) + 1] +=
        prefix[static_cast<std::size_t>(i)];
  }
  return prefix;
}

/// Exclusive prefix sum computed in parallel with \p nthreads workers.
/// out[0] = 0, out[i] = sum of in[0..i). out may not alias in.
void parallel_prefix_sum(std::span<const nnz_t> in, std::span<nnz_t> out,
                         int nthreads);

}  // namespace sptd
