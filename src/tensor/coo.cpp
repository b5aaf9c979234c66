#include "tensor/coo.hpp"

#include <cmath>
#include <utility>

namespace sptd {

SparseTensor::SparseTensor(dims_t dims) : dims_(std::move(dims)) {
  SPTD_CHECK(!dims_.empty(), "SparseTensor: order must be >= 1");
  SPTD_CHECK(static_cast<int>(dims_.size()) <= kMaxOrder,
             "SparseTensor: order exceeds kMaxOrder");
  for (const idx_t d : dims_) {
    SPTD_CHECK(d > 0, "SparseTensor: zero-length mode");
  }
  inds_.resize(dims_.size());
}

void SparseTensor::push_back(std::span<const idx_t> coords, val_t v) {
  SPTD_DCHECK(coords.size() == dims_.size(), "push_back: wrong order");
  for (std::size_t m = 0; m < dims_.size(); ++m) {
    SPTD_DCHECK(coords[m] < dims_[m], "push_back: index out of range");
    inds_[m].push_back(coords[m]);
  }
  vals_.push_back(v);
}

void SparseTensor::reserve(nnz_t n) {
  for (auto& v : inds_) {
    v.reserve(n);
  }
  vals_.reserve(n);
}

void SparseTensor::resize_nnz(nnz_t n) {
  for (auto& v : inds_) {
    v.resize(n);
  }
  vals_.resize(n);
}

std::array<idx_t, kMaxOrder> SparseTensor::coord(nnz_t x) const {
  SPTD_DCHECK(x < nnz(), "coord: nonzero index out of range");
  std::array<idx_t, kMaxOrder> c{};
  for (std::size_t m = 0; m < dims_.size(); ++m) {
    c[m] = inds_[m][x];
  }
  return c;
}

void SparseTensor::validate() const {
  for (std::size_t m = 0; m < dims_.size(); ++m) {
    SPTD_CHECK(inds_[m].size() == vals_.size(),
               "validate: index/value length mismatch");
    for (const idx_t i : inds_[m]) {
      SPTD_CHECK(i < dims_[m], "validate: index out of mode range");
    }
  }
  for (const val_t v : vals_) {
    SPTD_CHECK(std::isfinite(v), "validate: non-finite value");
  }
}

val_t SparseTensor::norm_sq() const {
  val_t acc = 0;
  for (const val_t v : vals_) {
    acc += v * v;
  }
  return acc;
}

std::vector<std::vector<idx_t>> SparseTensor::remove_empty_slices() {
  const auto order_sz = dims_.size();
  std::vector<std::vector<idx_t>> maps(order_sz);
  for (std::size_t m = 0; m < order_sz; ++m) {
    std::vector<char> seen(dims_[m], 0);
    for (const idx_t i : inds_[m]) {
      seen[i] = 1;
    }
    std::vector<idx_t>& map = maps[m];
    map.assign(dims_[m], kIdxMax);
    idx_t next = 0;
    for (idx_t i = 0; i < dims_[m]; ++i) {
      if (seen[i]) {
        map[i] = next++;
      }
    }
    if (next != dims_[m]) {
      for (idx_t& i : inds_[m]) {
        i = map[i];
      }
      dims_[m] = (next == 0) ? 1 : next;
    }
  }
  return maps;
}

bool SparseTensor::coord_less(nnz_t a, nnz_t b,
                              std::span<const int> perm) const {
  for (const int m : perm) {
    const idx_t ia = inds_[static_cast<std::size_t>(m)][a];
    const idx_t ib = inds_[static_cast<std::size_t>(m)][b];
    if (ia != ib) {
      return ia < ib;
    }
  }
  return false;
}

void SparseTensor::swap_storage(std::vector<uninit_vector<idx_t>>& inds,
                                uninit_vector<val_t>& vals) {
  SPTD_CHECK(inds.size() == inds_.size(), "swap_storage: order mismatch");
  for (const auto& mode : inds) {
    SPTD_CHECK(mode.size() == vals.size(),
               "swap_storage: buffer length mismatch");
  }
  inds_.swap(inds);
  vals_.swap(vals);
}

void SparseTensor::swap_nonzeros(nnz_t a, nnz_t b) {
  for (auto& mode : inds_) {
    std::swap(mode[a], mode[b]);
  }
  std::swap(vals_[a], vals_[b]);
}

}  // namespace sptd
