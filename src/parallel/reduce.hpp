#pragma once
/// \file reduce.hpp
/// \brief Per-thread privatized accumulation buffers with parallel reduction.
///
/// SPLATT avoids locks in the MTTKRP when the output matrix is small enough
/// to replicate per thread: each worker accumulates into a private copy and
/// the copies are summed afterwards. This is the "no-lock" path the paper's
/// NELL-2 runs always take (Section V-D2). The privatize-or-lock decision
/// itself lives in mttkrp/ (see choose_sync_strategy).
///
/// Backend note: clear() and reduce_into() launch their strided passes
/// through parallel_region, so they route through whichever backend
/// (parallel/backend.hpp) is active — no backend-specific code here. The
/// reduction itself is order-deterministic regardless of backend: each
/// destination element sums its per-thread contributions t = 0..n-1 in
/// fixed index order, which is what makes privatized runs bitwise
/// comparable across omp and pool at a fixed team size.

#include <algorithm>
#include <cstring>
#include <span>
#include <vector>

#include "common/aligned.hpp"
#include "common/error.hpp"
#include "common/types.hpp"
#include "parallel/partition.hpp"
#include "parallel/team.hpp"

namespace sptd {

/// A bank of per-thread scratch buffers of uniform length, plus a parallel
/// tree-free strided reduction into a destination buffer.
class PrivateBuffers {
 public:
  /// Allocates \p nthreads buffers of \p length values each, zeroed.
  PrivateBuffers(int nthreads, nnz_t length)
      : nthreads_(nthreads), length_(length),
        storage_(static_cast<std::size_t>(nthreads) * length, val_t{0}) {
    SPTD_CHECK(nthreads >= 1, "PrivateBuffers: nthreads must be >= 1");
  }

  /// Thread \p tid's private buffer.
  [[nodiscard]] std::span<val_t> buffer(int tid) {
    SPTD_DCHECK(tid >= 0 && tid < nthreads_, "buffer: tid out of range");
    return {storage_.data() + static_cast<std::size_t>(tid) * length_,
            static_cast<std::size_t>(length_)};
  }

  [[nodiscard]] std::span<const val_t> buffer(int tid) const {
    SPTD_DCHECK(tid >= 0 && tid < nthreads_, "buffer: tid out of range");
    return {storage_.data() + static_cast<std::size_t>(tid) * length_,
            static_cast<std::size_t>(length_)};
  }

  /// Zeroes the first \p used values of every buffer (parallel): the
  /// prefix a caller writes and reduces when it serves a shorter output
  /// than the bank was sized for. Values past the prefix are left as is.
  void clear(nnz_t used, int nthreads) {
    SPTD_CHECK(used <= length_, "clear: prefix longer than buffers");
    // One index space over the nthreads_ prefixes, cut into team blocks;
    // a block may span the end of one prefix and the start of the next.
    const nnz_t total = static_cast<nnz_t>(nthreads_) * used;
    parallel_region(nthreads, [&](int tid, int nt) {
      const Range r = block_partition(total, nt, tid);
      for (nnz_t i = r.begin; i < r.end;) {
        const nnz_t offset = i % used;
        const nnz_t n = std::min(r.end - i, used - offset);
        std::memset(storage_.data() + (i / used) * length_ + offset, 0,
                    static_cast<std::size_t>(n) * sizeof(val_t));
        i += n;
      }
    });
  }

  /// dst[i] += sum over threads of buffer(t)[i] for i < dst.size(),
  /// parallelized by blocking the index space. \p dst may be a prefix of
  /// the buffer length (callers reuse one bank for differently-sized
  /// outputs).
  void reduce_into(std::span<val_t> dst, int nthreads) const {
    SPTD_CHECK(dst.size() <= length_, "reduce_into: dst longer than buffers");
    parallel_region(nthreads, [&](int tid, int nt) {
      const Range r = block_partition(dst.size(), nt, tid);
      for (int t = 0; t < nthreads_; ++t) {
        const val_t* src =
            storage_.data() + static_cast<std::size_t>(t) * length_;
        for (nnz_t i = r.begin; i < r.end; ++i) {
          dst[i] += src[i];
        }
      }
    });
  }

  [[nodiscard]] int nthreads() const { return nthreads_; }
  [[nodiscard]] nnz_t length() const { return length_; }

 private:
  int nthreads_;
  nnz_t length_;
  // Cache-line aligned so per-thread MTTKRP replicas laid out at the
  // padded rank stride keep 64-byte-aligned rows (la/kernels.hpp).
  aligned_vector<val_t> storage_;
};

}  // namespace sptd
