#include "sort/sort.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "parallel/partition.hpp"
#include "parallel/team.hpp"

namespace sptd {

namespace {
std::atomic<std::uint64_t> g_sort_fastpath_hits{0};
}  // namespace

std::uint64_t sort_fastpath_hits() {
  return g_sort_fastpath_hits.load(std::memory_order_relaxed);
}

SortVariant parse_sort_variant(const std::string& name) {
  if (name == "initial") return SortVariant::kInitial;
  if (name == "array-opt") return SortVariant::kArrayOpt;
  if (name == "slices-opt") return SortVariant::kSlicesOpt;
  if (name == "all-opts") return SortVariant::kAllOpts;
  throw Error("unknown sort variant '" + name +
              "' (expected initial|array-opt|slices-opt|all-opts)");
}

const char* sort_variant_name(SortVariant variant) {
  switch (variant) {
    case SortVariant::kInitial:   return "initial";
    case SortVariant::kArrayOpt:  return "array-opt";
    case SortVariant::kSlicesOpt: return "slices-opt";
    case SortVariant::kAllOpts:   return "all-opts";
  }
  return "?";
}

std::vector<int> sort_mode_order(int order, int primary_mode) {
  std::vector<int> perm(static_cast<std::size_t>(order));
  for (int m = 0; m < order; ++m) {
    perm[static_cast<std::size_t>(m)] = (primary_mode + m) % order;
  }
  return perm;
}

namespace {

/// Per-element copy through emulated Chapel array views: both sides are
/// accessed via a heap-allocated descriptor with a strided, bounds-checked
/// address computation per element — the cost profile of the initial
/// port's slice-based sub-array reassignment. The descriptor fields are
/// reloaded through a pointer each iteration (Chapel's view indirection),
/// which also keeps the loop from collapsing into a memcpy.
template <typename T>
void chapel_slice_copy(T* dst_base, const T* src_base, nnz_t n) {
  struct View {
    nnz_t lo;
    nnz_t hi;  // inclusive
    nnz_t stride;
  };
  if (n == 0) return;
  const auto dst_view = std::make_unique<View>(View{0, n - 1, 1});
  const auto src_view = std::make_unique<View>(View{0, n - 1, 1});
  for (nnz_t i = 0; i < n; ++i) {
    const nnz_t si = src_view->lo + i;
    const nnz_t di = dst_view->lo + i;
    SPTD_CHECK(si <= src_view->hi && di <= dst_view->hi,
               "slice copy out of bounds");
    dst_base[di * dst_view->stride] = src_base[si * src_view->stride];
  }
}

/// Sorter over the secondary keys of one primary-mode slice. Works directly
/// on the tensor's struct-of-arrays storage (index arrays + values swapped
/// together), like SPLATT's p_tt_quicksort.
class SliceSorter {
 public:
  SliceSorter(SparseTensor& t, std::span<const int> secondary_modes,
              bool heap_pivot)
      : t_(t), modes_(secondary_modes), heap_pivot_(heap_pivot) {}

  void sort(nnz_t lo, nnz_t hi) { quicksort(lo, hi); }

 private:
  // SPLATT's MIN_QUICKSORT_SIZE: partitions recurse down to this size,
  // which is what makes the per-call pivot allocation of the initial port
  // visible (46M calls on full NELL-2, ~10% of sort time).
  static constexpr nnz_t kInsertionThreshold = 8;

  [[nodiscard]] bool less(nnz_t a, nnz_t b) const {
    for (const int m : modes_) {
      const auto ind = t_.ind(m);
      if (ind[a] != ind[b]) return ind[a] < ind[b];
    }
    return false;
  }

  /// nonzero a < pivot key held in \p pivot (one idx per secondary mode).
  [[nodiscard]] bool less_than_pivot(nnz_t a, const idx_t* pivot) const {
    for (std::size_t k = 0; k < modes_.size(); ++k) {
      const idx_t ia = t_.ind(modes_[k])[a];
      if (ia != pivot[k]) return ia < pivot[k];
    }
    return false;
  }

  [[nodiscard]] bool greater_than_pivot(nnz_t a, const idx_t* pivot) const {
    for (std::size_t k = 0; k < modes_.size(); ++k) {
      const idx_t ia = t_.ind(modes_[k])[a];
      if (ia != pivot[k]) return ia > pivot[k];
    }
    return false;
  }

  void load_pivot(nnz_t p, idx_t* pivot) const {
    for (std::size_t k = 0; k < modes_.size(); ++k) {
      pivot[k] = t_.ind(modes_[k])[p];
    }
  }

  void insertion_sort(nnz_t lo, nnz_t hi) {
    for (nnz_t i = lo + 1; i < hi; ++i) {
      nnz_t j = i;
      while (j > lo && less(j, j - 1)) {
        t_.swap_nonzeros(j, j - 1);
        --j;
      }
    }
  }

  void quicksort(nnz_t lo, nnz_t hi) {
    while (hi - lo > kInsertionThreshold) {
      // Median-of-3 pivot: move it to lo, partition around its key.
      const nnz_t mid = lo + (hi - lo) / 2;
      if (less(mid, lo)) t_.swap_nonzeros(mid, lo);
      if (less(hi - 1, lo)) t_.swap_nonzeros(hi - 1, lo);
      if (less(hi - 1, mid)) t_.swap_nonzeros(hi - 1, mid);
      t_.swap_nonzeros(lo, mid);

      nnz_t cut;
      if (heap_pivot_) {
        // The paper's *initial* Chapel code: a local array declared inside
        // the recursive routine — one heap allocation per call (46M calls
        // on NELL-2). Reproduced with a real heap-allocated vector.
        std::vector<idx_t> pivot(modes_.size());
        load_pivot(lo, pivot.data());
        cut = partition(lo, hi, pivot.data());
      } else {
        // Array-opt: plain scalar locals (fixed-size stack buffer).
        idx_t pivot[kMaxOrder];
        load_pivot(lo, pivot);
        cut = partition(lo, hi, pivot);
      }

      // Recurse on the smaller side, iterate on the larger (O(log n) depth).
      if (cut - lo < hi - cut) {
        quicksort(lo, cut);
        lo = cut;
      } else {
        quicksort(cut, hi);
        hi = cut;
      }
    }
    insertion_sort(lo, hi);
  }

  /// Hoare-style partition around the pivot key; returns the split point.
  /// Elements equal to the pivot may land on either side, which is fine
  /// for sorting.
  nnz_t partition(nnz_t lo, nnz_t hi, const idx_t* pivot) {
    nnz_t i = lo;
    nnz_t j = hi;
    while (true) {
      do {
        ++i;
      } while (i < hi && less_than_pivot(i, pivot));
      do {
        --j;
      } while (j > lo && greater_than_pivot(j, pivot));
      if (i >= j) break;
      t_.swap_nonzeros(i, j);
    }
    // Place the pivot (at lo) into its final slot j.
    t_.swap_nonzeros(lo, j);
    // Everything in [lo, j) is <= pivot, [j+1, hi) is >= pivot. Return a
    // cut that always shrinks: skip the pivot element itself.
    return (j == lo) ? j + 1 : j;
  }

  SparseTensor& t_;
  std::span<const int> modes_;
  bool heap_pivot_;
};

/// Checks \p perm against \p t, then reports whether there is nothing to
/// sort: at most one nonzero, or the nonzeros already in \p perm order.
/// The latter is one comparison pass (cheap next to the sort it skips);
/// building a CSF representation over a COO that a previous build already
/// ordered the same way exits here and counts a fast-path hit.
bool already_sorted(const SparseTensor& t, std::span<const int> perm) {
  SPTD_CHECK(static_cast<int>(perm.size()) == t.order(),
             "sort_tensor_perm: permutation length mismatch");
  for (const int m : perm) {
    SPTD_CHECK(m >= 0 && m < t.order(), "sort_tensor_perm: mode out of range");
  }
  if (t.nnz() <= 1) return true;
  if (!is_sorted_perm(t, perm)) return false;
  g_sort_fastpath_hits.fetch_add(1, std::memory_order_relaxed);
  return true;
}

}  // namespace

void stable_counting_pass(const SparseTensor& src, SparseTensor& dst,
                          int key_mode, int nthreads) {
  SPTD_CHECK(key_mode >= 0 && key_mode < src.order(),
             "stable_counting_pass: key mode out of range");
  SPTD_CHECK(&src != &dst, "stable_counting_pass: src and dst alias");
  SPTD_CHECK(nthreads >= 1, "stable_counting_pass: nthreads must be >= 1");
  const nnz_t nnz = src.nnz();
  if (dst.dims() != src.dims() || dst.nnz() != nnz) {
    dst = SparseTensor(src.dims());
    dst.resize_nnz(nnz);
  }
  const int order = src.order();
  const auto nslices = static_cast<std::size_t>(src.dim(key_mode));
  const idx_t* key = src.ind(key_mode).data();

  // Row tid holds block tid's count per slice, then its scatter cursors.
  // Rows of tids the team does not reach stay zero.
  std::vector<nnz_t> cursor(static_cast<std::size_t>(nthreads) * nslices, 0);
  parallel_region(nthreads, [&](int tid, int nt) {
    nnz_t* mine = cursor.data() + static_cast<std::size_t>(tid) * nslices;
    const Range r = block_partition(nnz, nt, tid);
    for (nnz_t x = r.begin; x < r.end; ++x) {
      ++mine[key[x]];
    }
  });
  nnz_t next = 0;
  for (std::size_t s = 0; s < nslices; ++s) {
    for (int tid = 0; tid < nthreads; ++tid) {
      nnz_t& c = cursor[static_cast<std::size_t>(tid) * nslices + s];
      const nnz_t count = c;
      c = next;
      next += count;
    }
  }

  // Scatter a chunk at a time: destinations first, then one array after
  // another, so each inner loop streams one input array.
  const auto scatter = [](const auto* in, auto* out, const nnz_t* pos,
                          nnz_t n) {
    for (nnz_t i = 0; i < n; ++i) out[pos[i]] = in[i];
  };
  parallel_region(nthreads, [&](int tid, int nt) {
    constexpr nnz_t kChunk = 2048;
    std::array<nnz_t, kChunk> pos{};
    nnz_t* mine = cursor.data() + static_cast<std::size_t>(tid) * nslices;
    const Range r = block_partition(nnz, nt, tid);
    for (nnz_t lo = r.begin; lo < r.end; lo += kChunk) {
      const nnz_t n = std::min(kChunk, r.end - lo);
      for (nnz_t i = 0; i < n; ++i) pos[i] = mine[key[lo + i]]++;
      for (int m = 0; m < order; ++m) {
        scatter(src.ind(m).data() + lo, dst.ind(m).data(), pos.data(), n);
      }
      scatter(src.vals().data() + lo, dst.vals().data(), pos.data(), n);
    }
  });
}

void stable_sort_perm(SparseTensor& t, std::span<const int> perm,
                      int nthreads, SparseTensor& scratch) {
  SPTD_CHECK(nthreads >= 1, "stable_sort_perm: nthreads must be >= 1");
  if (already_sorted(t, perm)) return;
  for (auto m = perm.rbegin(); m != perm.rend(); ++m) {
    if (t.dim(*m) <= 1) continue;  // a one-slice key moves nothing
    stable_counting_pass(t, scratch, *m, nthreads);
    std::swap(t, scratch);
  }
}

void stable_sort_perm(SparseTensor& t, std::span<const int> perm,
                      int nthreads) {
  SparseTensor scratch;
  stable_sort_perm(t, perm, nthreads, scratch);
}

void sort_tensor(SparseTensor& t, int primary_mode, int nthreads,
                 SortVariant variant) {
  SPTD_CHECK(primary_mode >= 0 && primary_mode < t.order(),
             "sort_tensor: primary mode out of range");
  const std::vector<int> perm = sort_mode_order(t.order(), primary_mode);
  sort_tensor_perm(t, perm, nthreads, variant);
}

void sort_tensor_perm(SparseTensor& t, std::span<const int> perm,
                      int nthreads, SortVariant variant) {
  SPTD_CHECK(nthreads >= 1, "sort_tensor: nthreads must be >= 1");
  if (already_sorted(t, perm)) return;

  const nnz_t nnz = t.nnz();
  const int order = t.order();
  const int primary_mode = perm[0];
  const idx_t nslices = t.dim(primary_mode);
  const bool heap_pivot = (variant == SortVariant::kInitial ||
                           variant == SortVariant::kSlicesOpt);
  const bool copy_reassign = (variant == SortVariant::kInitial ||
                              variant == SortVariant::kArrayOpt);

  // ---- Phase 1: stable parallel counting sort on the primary mode. ----
  SparseTensor scratch;
  stable_counting_pass(t, scratch, primary_mode, nthreads);

  // ---- Phase 2: reassign scratch back into the tensor. ----
  if (copy_reassign) {
    // Initial Chapel behaviour (Section V-C): the port stored the index
    // set as a 2D matrix and reassigned each nnz-length sub-array by
    // *slicing*, so every element moved through an array-view descriptor
    // (strided address computation + bounds check) instead of a flat
    // memcpy. Reproduced with the same descriptor-mediated element copy.
    for (int m = 0; m < order; ++m) {
      chapel_slice_copy(t.ind(m).data(), scratch.ind(m).data(), nnz);
    }
    chapel_slice_copy(t.vals().data(), scratch.vals().data(), nnz);
  } else {
    // Reference/optimized behaviour: O(1) pointer swap (the port's c_ptrTo
    // fix) — the permuted buffers become the tensor's storage.
    std::swap(t, scratch);
  }
  const std::vector<nnz_t> slice_start =
      slice_nnz_prefix(t.ind(primary_mode), nslices);

  // ---- Phase 3: per-slice quicksort on the secondary modes. ----
  const std::vector<int> secondary(perm.begin() + 1, perm.end());

  // Balance slices across threads by nonzero weight.
  const std::vector<nnz_t> bounds =
      weighted_partition(slice_start, nthreads);
  parallel_region(nthreads, [&](int tid, int) {
    SliceSorter sorter(t, secondary, heap_pivot);
    const auto s_begin = static_cast<idx_t>(bounds[
        static_cast<std::size_t>(tid)]);
    const auto s_end = static_cast<idx_t>(bounds[
        static_cast<std::size_t>(tid) + 1]);
    for (idx_t s = s_begin; s < s_end; ++s) {
      const nnz_t lo = slice_start[s];
      const nnz_t hi = slice_start[s + 1];
      if (hi - lo > 1) {
        sorter.sort(lo, hi);
      }
    }
  });
}

bool is_sorted(const SparseTensor& t, int primary_mode) {
  const std::vector<int> perm = sort_mode_order(t.order(), primary_mode);
  return is_sorted_perm(t, perm);
}

bool is_sorted_perm(const SparseTensor& t, std::span<const int> perm) {
  for (nnz_t x = 1; x < t.nnz(); ++x) {
    if (t.coord_less(x, x - 1, perm)) {
      return false;
    }
  }
  return true;
}

}  // namespace sptd
