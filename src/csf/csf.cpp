#include "csf/csf.hpp"

#include <algorithm>
#include <numeric>
#include <type_traits>
#include <utility>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "parallel/partition.hpp"
#include "parallel/team.hpp"
#include "sort/sort.hpp"

namespace sptd {

CsfLayout parse_csf_layout(const std::string& name) {
  if (name == "compressed") return CsfLayout::kCompressed;
  if (name == "wide") return CsfLayout::kWide;
  throw Error("unknown CSF layout '" + name +
              "' (expected compressed|wide)");
}

const char* csf_layout_name(CsfLayout layout) {
  switch (layout) {
    case CsfLayout::kCompressed: return "compressed";
    case CsfLayout::kWide:       return "wide";
  }
  return "?";
}

int csf_fid_width_for(idx_t dim, CsfLayout layout) {
  if (layout == CsfLayout::kWide) return sizeof(idx_t);
  if (dim <= 0xFFu) return 1;
  if (dim <= 0xFFFFu) return 2;
  return 4;
}

int csf_ptr_width_for(nnz_t children, CsfLayout layout) {
  if (layout == CsfLayout::kWide) return sizeof(nnz_t);
  if (children <= 0xFFFFull) return 2;
  if (children <= 0xFFFFFFFFull) return 4;
  return 8;
}

namespace {

/// Stores \p v at entry \p i of a stream \p width bytes wide; \p v must
/// fit (the widths are chosen from each stream's largest value).
void put(void* bytes, int width, nnz_t i, std::uint64_t v) {
  switch (width) {
    case 1:
      static_cast<std::uint8_t*>(bytes)[i] = static_cast<std::uint8_t>(v);
      break;
    case 2:
      static_cast<std::uint16_t*>(bytes)[i] = static_cast<std::uint16_t>(v);
      break;
    case 4:
      static_cast<std::uint32_t*>(bytes)[i] = static_cast<std::uint32_t>(v);
      break;
    default:
      static_cast<std::uint64_t*>(bytes)[i] = v;
      break;
  }
}

/// Narrows entries [begin, end) of \p in into the fid stream \p bytes of
/// \p width bytes (1, 2 or 4), resolving the width once.
void put_fids(void* bytes, int width, const idx_t* in, nnz_t begin,
              nnz_t end) {
  const auto narrow = [&](auto* out) {
    using T = std::remove_pointer_t<decltype(out)>;
    for (nnz_t x = begin; x < end; ++x) out[x] = static_cast<T>(in[x]);
  };
  switch (width) {
    case 1: narrow(static_cast<std::uint8_t*>(bytes)); break;
    case 2: narrow(static_cast<std::uint16_t*>(bytes)); break;
    default: narrow(static_cast<std::uint32_t*>(bytes)); break;
  }
}

}  // namespace

CsfTensor::CsfTensor(const SparseTensor& coo, std::vector<int> mode_order,
                     CsfLayout layout, int nthreads)
    : dims_(coo.dims()), mode_order_(std::move(mode_order)),
      layout_(layout) {
  const int order = coo.order();
  SPTD_CHECK(static_cast<int>(mode_order_.size()) == order,
             "CsfTensor: mode order length mismatch");
  SPTD_CHECK(order >= 2, "CsfTensor: order must be >= 2");
  SPTD_CHECK(nthreads >= 1, "CsfTensor: nthreads must be >= 1");
  {
    std::vector<int> check = mode_order_;
    std::sort(check.begin(), check.end());
    for (int m = 0; m < order; ++m) {
      SPTD_CHECK(check[static_cast<std::size_t>(m)] == m,
                 "CsfTensor: mode order is not a permutation");
    }
  }
  SPTD_DCHECK(is_sorted_perm(coo, mode_order_),
              "CsfTensor: tensor must be sorted by mode_order");

  const nnz_t nnz = coo.nnz();
  const int leaf = order - 1;
  const auto lorder = static_cast<std::size_t>(order);
  std::array<const idx_t*, kMaxOrder> ind{};
  for (int l = 0; l < order; ++l) {
    ind[static_cast<std::size_t>(l)] = coo.ind(mode_at_level(l)).data();
  }

  // Block b is nonzeros [cut[b], cut[b + 1]): block_partition's cuts,
  // each moved forward to the next change of the root index, so every
  // block holds whole root slices and no fiber crosses a cut. The blocks
  // are fixed here, whatever team size a region runs with.
  const auto nblocks = static_cast<std::size_t>(nthreads);
  std::vector<nnz_t> cut(nblocks + 1, nnz);
  cut[0] = 0;
  const idx_t* root = ind[0];
  for (std::size_t b = 1; b < nblocks; ++b) {
    nnz_t c = std::max(
        block_partition(nnz, nthreads, static_cast<int>(b)).begin,
        cut[b - 1]);
    if (c > 0 && c < nnz && root[c] == root[c - 1]) {
      c = static_cast<nnz_t>(
          std::upper_bound(root + c, root + nnz, root[c - 1]) - root);
    }
    cut[b] = c;
  }

  // Nonzero x opens a new fiber at every level from the shallowest one at
  // which it differs from nonzero x-1 down to the leaf (a block's first
  // nonzero opens one at every level; a nonzero that differs only at the
  // leaf, or a duplicate, opens only its leaf).
  const auto first_new_level = [&](nnz_t x, nnz_t begin) {
    if (x == begin) return 0;
    int l = 0;
    while (l < leaf && ind[static_cast<std::size_t>(l)][x] ==
                           ind[static_cast<std::size_t>(l)][x - 1]) {
      ++l;
    }
    return l;
  };

  // Region 1: each block counts the fibers it opens per level. Row b of
  // `first` holds block b's counts, then (after the scan) its first fiber
  // index per level.
  std::vector<nnz_t> first(nblocks * lorder, 0);
  parallel_region(nthreads, [&](int tid, int nt) {
    for (auto b = static_cast<std::size_t>(tid); b < nblocks;
         b += static_cast<std::size_t>(nt)) {
      std::array<nnz_t, kMaxOrder> count{};
      for (nnz_t x = cut[b]; x < cut[b + 1]; ++x) {
        ++count[static_cast<std::size_t>(first_new_level(x, cut[b]))];
      }
      for (std::size_t l = 1; l < lorder; ++l) count[l] += count[l - 1];
      std::copy_n(count.begin(), lorder, first.begin() + b * lorder);
    }
  });
  // The totals fix every stream's length and its fptr width (the largest
  // fptr entry at level l is the fiber count of level l+1).
  std::array<nnz_t, kMaxOrder> nfib{};
  for (std::size_t b = 0; b < nblocks; ++b) {
    for (std::size_t l = 0; l < lorder; ++l) {
      const nnz_t count = first[b * lorder + l];
      first[b * lorder + l] = nfib[l];
      nfib[l] += count;
    }
  }
  const auto make_stream = [](nnz_t size, int width) {
    return Stream{std::unique_ptr<void, FreeBytes>(::operator new(
                      static_cast<std::size_t>(size) *
                      static_cast<std::size_t>(width))),
                  size, static_cast<std::uint8_t>(width)};
  };
  fids_.reserve(lorder);
  fptrs_.reserve(static_cast<std::size_t>(leaf));
  for (int l = 0; l < order; ++l) {
    const auto lz = static_cast<std::size_t>(l);
    const idx_t dim = dims_[static_cast<std::size_t>(mode_at_level(l))];
    fids_.push_back(make_stream(nfib[lz], csf_fid_width_for(dim, layout)));
    if (l < leaf) {
      fptrs_.push_back(make_stream(
          nfib[lz] + 1, csf_ptr_width_for(nfib[lz + 1], layout)));
    }
  }
  root_nnz_prefix_.resize(static_cast<std::size_t>(nfib[0]) + 1);
  vals_.resize(nnz);

  // Region 2: each block writes its fibers' fid and fptr entries, its
  // root prefix entries, its leaf fids and its values, each stream once
  // at its width. pos[l] is the next fiber index at level l; at the leaf
  // it is the nonzero itself.
  const auto leafz = static_cast<std::size_t>(leaf);
  const val_t* vals = coo.vals().data();
  parallel_region(nthreads, [&](int tid, int nt) {
    for (auto b = static_cast<std::size_t>(tid); b < nblocks;
         b += static_cast<std::size_t>(nt)) {
      std::array<nnz_t, kMaxOrder> pos{};
      std::copy_n(first.data() + b * lorder, lorder, pos.begin());
      for (nnz_t x = cut[b]; x < cut[b + 1]; ++x) {
        pos[leafz] = x;
        const int d = first_new_level(x, cut[b]);
        if (d == 0) root_nnz_prefix_[static_cast<std::size_t>(pos[0])] = x;
        for (int l = d; l < leaf; ++l) {
          const auto lz = static_cast<std::size_t>(l);
          put(fptrs_[lz].bytes.get(), fptrs_[lz].width, pos[lz],
              pos[lz + 1]);
          put(fids_[lz].bytes.get(), fids_[lz].width, pos[lz], ind[lz][x]);
          ++pos[lz];
        }
      }
      put_fids(fids_[leafz].bytes.get(), fids_[leafz].width, ind[leafz],
               cut[b], cut[b + 1]);
      std::copy(vals + cut[b], vals + cut[b + 1], vals_.data() + cut[b]);
    }
  });
  for (int l = 0; l < leaf; ++l) {
    const auto lz = static_cast<std::size_t>(l);
    put(fptrs_[lz].bytes.get(), fptrs_[lz].width, nfib[lz], nfib[lz + 1]);
  }
  root_nnz_prefix_.back() = nnz;
}

CsfStreamRefs CsfTensor::stream_refs() const {
  CsfStreamRefs refs;
  const int n = order();
  for (int l = 0; l < n; ++l) {
    refs.fids[static_cast<std::size_t>(l)] = fid_stream(l);
  }
  for (int l = 0; l < n - 1; ++l) {
    refs.fptr[static_cast<std::size_t>(l)] = ptr_stream(l);
  }
  return refs;
}

int CsfTensor::level_of_mode(int mode) const {
  for (int l = 0; l < order(); ++l) {
    if (mode_order_[static_cast<std::size_t>(l)] == mode) {
      return l;
    }
  }
  throw Error("level_of_mode: mode not in CSF");
}

SparseTensor CsfTensor::to_coo() const {
  SparseTensor out(dims_);
  out.reserve(nnz());
  const int n = order();
  std::array<idx_t, kMaxOrder> coords{};

  // DFS over the forest, materializing coordinates.
  // walk[l] is the current fiber index at level l.
  std::vector<nnz_t> walk(static_cast<std::size_t>(n), 0);
  std::array<idx_t, kMaxOrder> by_level{};

  // Width-erased stream handles resolved once for the whole walk.
  const CsfStreamRefs refs = stream_refs();
  const auto& fid_at = refs.fids;
  const auto& ptr_at = refs.fptr;

  // Recursive expansion via explicit iteration over leaf positions:
  // for each leaf x, find its ancestor fiber at each level by advancing
  // walk pointers (leaves arrive in order, so ancestors only move forward).
  for (nnz_t x = 0; x < nnz(); ++x) {
    // Advance ancestors so that x falls inside their child ranges.
    // Level n-2 fiber must satisfy fptr[n-2][f] <= x < fptr[n-2][f+1];
    // walk upward from the leaf.
    nnz_t child = x;
    for (int l = n - 2; l >= 0; --l) {
      auto& f = walk[static_cast<std::size_t>(l)];
      const auto& fp = ptr_at[static_cast<std::size_t>(l)];
      while (fp[f + 1] <= child) {
        ++f;
      }
      by_level[static_cast<std::size_t>(l)] =
          fid_at[static_cast<std::size_t>(l)][f];
      child = f;
    }
    by_level[static_cast<std::size_t>(n - 1)] =
        fid_at[static_cast<std::size_t>(n - 1)][x];
    for (int l = 0; l < n; ++l) {
      coords[static_cast<std::size_t>(mode_order_[
          static_cast<std::size_t>(l)])] =
          by_level[static_cast<std::size_t>(l)];
    }
    out.push_back({coords.data(), static_cast<std::size_t>(n)}, vals_[x]);
  }
  return out;
}

std::uint64_t CsfTensor::index_bytes() const {
  std::uint64_t bytes = 0;
  for (const auto* streams : {&fids_, &fptrs_}) {
    for (const Stream& s : *streams) {
      bytes += static_cast<std::uint64_t>(s.size) * s.width;
    }
  }
  return bytes;
}

std::uint64_t CsfTensor::memory_bytes() const {
  std::uint64_t bytes = vals_.size() * sizeof(val_t);
  bytes += index_bytes();
  bytes += root_nnz_prefix_.size() * sizeof(nnz_t);
  return bytes;
}

std::span<const float> CsfTensor::vals_f32() const {
  if (vals_f32_.size() != vals_.size()) {
    vals_f32_.resize(vals_.size());
    for (std::size_t x = 0; x < vals_.size(); ++x) {
      vals_f32_[x] = static_cast<float>(vals_[x]);
    }
  }
  return vals_f32_;
}

CsfPolicy parse_csf_policy(const std::string& name) {
  if (name == "one") return CsfPolicy::kOneMode;
  if (name == "two") return CsfPolicy::kTwoMode;
  if (name == "all") return CsfPolicy::kAllMode;
  throw Error("unknown CSF policy '" + name + "' (expected one|two|all)");
}

const char* csf_policy_name(CsfPolicy policy) {
  switch (policy) {
    case CsfPolicy::kOneMode: return "one";
    case CsfPolicy::kTwoMode: return "two";
    case CsfPolicy::kAllMode: return "all";
  }
  return "?";
}

std::vector<int> csf_mode_order(const dims_t& dims, int root) {
  const int order = static_cast<int>(dims.size());
  std::vector<int> modes(static_cast<std::size_t>(order));
  std::iota(modes.begin(), modes.end(), 0);
  // Ascending mode length, ties by mode id (stable ordering).
  std::stable_sort(modes.begin(), modes.end(), [&](int a, int b) {
    return dims[static_cast<std::size_t>(a)] <
           dims[static_cast<std::size_t>(b)];
  });
  if (root >= 0) {
    const auto it = std::find(modes.begin(), modes.end(), root);
    SPTD_CHECK(it != modes.end(), "csf_mode_order: root mode out of range");
    modes.erase(it);
    modes.insert(modes.begin(), root);
  }
  return modes;
}

CsfSet::CsfSet(SparseTensor& coo, CsfPolicy policy, int nthreads,
               double* sort_seconds, SortVariant sort_variant,
               CsfLayout layout)
    : policy_(policy), layout_(layout) {
  std::vector<std::vector<int>> orders;
  const dims_t& dims = coo.dims();
  switch (policy) {
    case CsfPolicy::kOneMode:
      orders.push_back(csf_mode_order(dims, -1));
      break;
    case CsfPolicy::kTwoMode: {
      orders.push_back(csf_mode_order(dims, -1));
      // Second representation rooted at the *longest* mode.
      const int longest = static_cast<int>(
          std::max_element(dims.begin(), dims.end()) - dims.begin());
      // Skip the duplicate if the tensor has a single distinct length.
      if (orders.front().front() != longest) {
        orders.push_back(csf_mode_order(dims, longest));
      }
      break;
    }
    case CsfPolicy::kAllMode:
      for (int m = 0; m < coo.order(); ++m) {
        orders.push_back(csf_mode_order(dims, m));
      }
      break;
  }

  csfs_.reserve(orders.size());
  const auto charge = [sort_seconds](auto&& sort) {
    WallTimer sort_timer;
    sort_timer.start();
    sort();
    sort_timer.stop();
    if (sort_seconds != nullptr) {
      *sort_seconds += sort_timer.seconds();
    }
  };
  if (sort_variant != SortVariant::kAllOpts) {
    // Figure 1 ablation: every representation re-sorted by the variant.
    for (const auto& ord : orders) {
      charge([&] { sort_tensor_perm(coo, ord, nthreads, sort_variant); });
      csfs_.emplace_back(coo, ord, layout, nthreads);
    }
    return;
  }

  // Production path. Every csf_mode_order(dims, r) is r followed by the
  // ascending order, so one stable pass keyed on r over the ascending-
  // sorted COO gives it. Each root is derived from the ascending order,
  // never from the previous root (chaining b then c would give (c,b,a)).
  // The last representation's pass lands in coo, per the contract above.
  // The scratch lives until no later pass needs it (see the header), so
  // peak memory stays at coo + one scratch copy + the CSFs.
  const std::vector<int> ascending = csf_mode_order(dims, -1);
  SparseTensor scratch;
  charge([&] { stable_sort_perm(coo, ascending, nthreads, scratch); });
  for (std::size_t i = 0; i < orders.size(); ++i) {
    const std::vector<int>& ord = orders[i];
    const bool last = i + 1 == orders.size();
    if (ord != ascending) {
      charge([&] {
        stable_counting_pass(coo, scratch, ord.front(), nthreads);
      });
      if (last) std::swap(coo, scratch);
    }
    const bool from_coo = ord == ascending || last;
    const bool pass_later = std::any_of(
        orders.begin() + static_cast<std::ptrdiff_t>(i) + 1, orders.end(),
        [&](const std::vector<int>& o) { return o != ascending; });
    if (from_coo && !pass_later) scratch = SparseTensor();
    csfs_.emplace_back(from_coo ? coo : scratch, ord, layout, nthreads);
  }
}

const CsfTensor& CsfSet::csf_for_mode(int mode, int& level) const {
  // Prefer a representation where the mode is the root; otherwise fall
  // back to the first (SPLATT dispatch).
  for (const auto& csf : csfs_) {
    if (csf.mode_at_level(0) == mode) {
      level = 0;
      return csf;
    }
  }
  level = csfs_.front().level_of_mode(mode);
  return csfs_.front();
}

std::uint64_t CsfSet::memory_bytes() const {
  std::uint64_t bytes = 0;
  for (const auto& csf : csfs_) {
    bytes += csf.memory_bytes();
  }
  return bytes;
}

std::uint64_t CsfSet::value_bytes(Precision p) const {
  std::uint64_t bytes = 0;
  for (const auto& csf : csfs_) {
    bytes += csf.value_bytes(p);
  }
  return bytes;
}

}  // namespace sptd
