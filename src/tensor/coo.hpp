#pragma once
/// \file coo.hpp
/// \brief Coordinate-format sparse tensor, the interchange format every
///        other subsystem consumes (file I/O produces it, sort permutes it,
///        CSF construction compresses it).
///
/// Layout matches SPLATT's `sptensor_t`: one index array per mode
/// (ind[m][x] is the mode-m coordinate of nonzero x) plus a value array.
/// The struct-of-arrays layout is what makes the paper's sorting
/// optimizations (Section V-C) meaningful: reassigning "sub-arrays" of the
/// index set is pointer swapping in C but a deep copy in naive Chapel.

#include <array>
#include <span>
#include <vector>

#include "common/aligned.hpp"
#include "common/error.hpp"
#include "common/types.hpp"

namespace sptd {

/// Sparse tensor in coordinate (COO) format.
class SparseTensor {
 public:
  /// Empty tensor of the given mode lengths. Order is dims.size().
  explicit SparseTensor(dims_t dims);

  /// Empty 0-order tensor (placeholder; fill via move assignment).
  SparseTensor() = default;

  /// Number of modes.
  [[nodiscard]] int order() const { return static_cast<int>(dims_.size()); }

  /// Mode lengths.
  [[nodiscard]] const dims_t& dims() const { return dims_; }

  /// Length of mode \p m.
  [[nodiscard]] idx_t dim(int m) const {
    SPTD_DCHECK(m >= 0 && m < order(), "dim: mode out of range");
    return dims_[static_cast<std::size_t>(m)];
  }

  /// Number of stored nonzeros.
  [[nodiscard]] nnz_t nnz() const { return vals_.size(); }

  /// Mode-\p m index array (length nnz).
  [[nodiscard]] std::span<idx_t> ind(int m) {
    SPTD_DCHECK(m >= 0 && m < order(), "ind: mode out of range");
    return inds_[static_cast<std::size_t>(m)];
  }
  [[nodiscard]] std::span<const idx_t> ind(int m) const {
    SPTD_DCHECK(m >= 0 && m < order(), "ind: mode out of range");
    return inds_[static_cast<std::size_t>(m)];
  }

  /// Value array (length nnz).
  [[nodiscard]] std::span<val_t> vals() { return vals_; }
  [[nodiscard]] std::span<const val_t> vals() const { return vals_; }

  /// Appends one nonzero. \p coords must have order() entries in range.
  void push_back(std::span<const idx_t> coords, val_t v);

  /// Pre-allocates capacity for \p n nonzeros.
  void reserve(nnz_t n);

  /// Resizes the nonzero arrays. Entries past the old nnz are unspecified
  /// (neither zeroed nor touched): every caller — the sort's scratch,
  /// read_bin_file, the completion copy — overwrites each one before it
  /// is read.
  void resize_nnz(nnz_t n);

  /// Coordinates of nonzero \p x as a fixed buffer (first order() valid).
  [[nodiscard]] std::array<idx_t, kMaxOrder> coord(nnz_t x) const;

  /// Throws sptd::Error if any index is out of its mode's range or any
  /// value is non-finite.
  void validate() const;

  /// Sum of squared values — the tensor Frobenius norm squared, needed by
  /// the CPD fit.
  [[nodiscard]] val_t norm_sq() const;

  /// Relabels each mode so that empty slices disappear (SPLATT's
  /// tt_remove_empty). Returns per-mode old-index -> new-index maps and
  /// shrinks dims() accordingly.
  std::vector<std::vector<idx_t>> remove_empty_slices();

  /// True if nonzero \p a sorts lexicographically before \p b under the
  /// mode permutation \p perm (perm[0] is the most significant mode).
  [[nodiscard]] bool coord_less(nnz_t a, nnz_t b,
                                std::span<const int> perm) const;

  /// Swaps nonzeros \p a and \p b across all index arrays and values.
  void swap_nonzeros(nnz_t a, nnz_t b);

  /// O(1) exchange of the internal index/value buffers with externally
  /// built ones — the C pointer-swap reassignment idiom the paper's
  /// Slices-opt restores (Section V-C). \p inds must have order() arrays,
  /// all lengths equal to vals.size().
  void swap_storage(std::vector<uninit_vector<idx_t>>& inds,
                    uninit_vector<val_t>& vals);

 private:
  dims_t dims_;
  std::vector<uninit_vector<idx_t>> inds_;
  uninit_vector<val_t> vals_;
};

}  // namespace sptd
