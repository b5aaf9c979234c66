#include "csf/csf.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "common/error.hpp"
#include "common/timer.hpp"
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

template <typename Narrow, typename Wide>
std::vector<Narrow> narrow_copy(const std::vector<Wide>& wide) {
  std::vector<Narrow> out(wide.size());
  for (std::size_t i = 0; i < wide.size(); ++i) {
    out[i] = static_cast<Narrow>(wide[i]);
  }
  return out;
}

}  // namespace

CsfTensor::CsfTensor(const SparseTensor& coo, std::vector<int> mode_order,
                     CsfLayout layout)
    : dims_(coo.dims()), mode_order_(std::move(mode_order)),
      layout_(layout) {
  const int order = coo.order();
  SPTD_CHECK(static_cast<int>(mode_order_.size()) == order,
             "CsfTensor: mode order length mismatch");
  SPTD_CHECK(order >= 2, "CsfTensor: order must be >= 2");
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
  const auto order_sz = static_cast<std::size_t>(order);
  vals_.assign(coo.vals().begin(), coo.vals().end());

  // Build the levels wide first (the construction algorithm is
  // width-oblivious), then narrow each stream to its selected store. The
  // transient wide arrays cost one extra pass; construction is dominated
  // by the sort that precedes it.
  std::vector<std::vector<nnz_t>> wide_fptrs(order_sz - 1);
  std::vector<std::vector<idx_t>> wide_fids(order_sz);

  // Leaf level: one entry per nonzero.
  const auto leaf_mode = mode_order_[order_sz - 1];
  wide_fids[order_sz - 1].assign(coo.ind(leaf_mode).begin(),
                                 coo.ind(leaf_mode).end());

  // Upper levels, leaf-exclusive: a new fiber starts at nonzero x when any
  // coordinate at this level or above differs from nonzero x-1.
  // Build top-down so each level's fptr indexes the level below.
  //
  // First compute, for every nonzero, the shallowest level at which it
  // differs from its predecessor (order = no new fiber anywhere).
  std::vector<int> first_diff(nnz == 0 ? 0 : static_cast<std::size_t>(nnz));
  if (nnz > 0) {
    first_diff[0] = 0;
    for (nnz_t x = 1; x < nnz; ++x) {
      int lvl = order - 1;  // differs only at leaf (or not at all)
      for (int l = 0; l < order - 1; ++l) {
        const auto ind = coo.ind(mode_order_[static_cast<std::size_t>(l)]);
        if (ind[x] != ind[x - 1]) {
          lvl = l;
          break;
        }
      }
      first_diff[x] = lvl;
    }
  }

  // Count fibers per level: a fiber starts at level l whenever
  // first_diff[x] <= l (x = 0 starts a fiber at every level).
  for (int l = 0; l < order - 1; ++l) {
    auto& fid = wide_fids[static_cast<std::size_t>(l)];
    auto& fp = wide_fptrs[static_cast<std::size_t>(l)];
    const auto ind = coo.ind(mode_order_[static_cast<std::size_t>(l)]);
    fid.clear();
    fp.clear();
    fp.push_back(0);
    nnz_t children = 0;  // fibers seen so far at level l+1
    for (nnz_t x = 0; x < nnz; ++x) {
      const bool new_here = first_diff[x] <= l;
      const bool new_child = first_diff[x] <= l + 1;
      if (new_here) {
        if (!fid.empty()) {
          fp.push_back(children);
        }
        fid.push_back(ind[x]);
      }
      if (new_child || l + 1 == order - 1) {
        // At the deepest non-leaf level every nonzero is a child.
        ++children;
      }
    }
    if (!fid.empty()) {
      fp.push_back(children);
    }
  }

  // Root nnz prefix for thread balancing: compose fptr chains down to the
  // leaf level.
  const nnz_t nroots = wide_fids[0].size();
  root_nnz_prefix_.assign(static_cast<std::size_t>(nroots) + 1, 0);
  for (nnz_t s = 0; s <= nroots; ++s) {
    nnz_t f = s;
    for (int l = 0; l < order - 1; ++l) {
      f = wide_fptrs[static_cast<std::size_t>(l)][f];
    }
    root_nnz_prefix_[s] = f;
  }
  SPTD_CHECK(root_nnz_prefix_.back() == nnz,
             "CsfTensor: fiber pointers do not cover all nonzeros");

  // Narrow every stream to the width the layout selects: fids from the
  // level's mode length, fptr from the level's child-fiber count (its
  // largest stored value).
  fids_.reserve(order_sz);
  fptrs_.reserve(order_sz - 1);
  for (int l = 0; l < order; ++l) {
    auto& wide = wide_fids[static_cast<std::size_t>(l)];
    const idx_t dim = dims_[static_cast<std::size_t>(mode_at_level(l))];
    switch (csf_fid_width_for(dim, layout)) {
      case 1:
        fids_.emplace_back(narrow_copy<std::uint8_t>(wide));
        break;
      case 2:
        fids_.emplace_back(narrow_copy<std::uint16_t>(wide));
        break;
      default:
        fids_.emplace_back(std::move(wide));
        break;
    }
    wide = {};
  }
  for (int l = 0; l < order - 1; ++l) {
    auto& wide = wide_fptrs[static_cast<std::size_t>(l)];
    const nnz_t children = wide.empty() ? 0 : wide.back();
    switch (csf_ptr_width_for(children, layout)) {
      case 2:
        fptrs_.emplace_back(narrow_copy<std::uint16_t>(wide));
        break;
      case 4:
        fptrs_.emplace_back(narrow_copy<std::uint32_t>(wide));
        break;
      default:
        fptrs_.emplace_back(std::move(wide));
        break;
    }
    wide = {};
  }
}

nnz_t CsfTensor::nfibers(int level) const {
  return std::visit([](const auto& v) { return static_cast<nnz_t>(v.size()); },
                    fids_[static_cast<std::size_t>(level)]);
}

int CsfTensor::fid_width(int level) const {
  return std::visit(
      [](const auto& v) {
        return static_cast<int>(sizeof(typename std::decay_t<
                                       decltype(v)>::value_type));
      },
      fids_[static_cast<std::size_t>(level)]);
}

int CsfTensor::ptr_width(int level) const {
  return std::visit(
      [](const auto& v) {
        return static_cast<int>(sizeof(typename std::decay_t<
                                       decltype(v)>::value_type));
      },
      fptrs_[static_cast<std::size_t>(level)]);
}

idx_t CsfTensor::fid(int level, nnz_t f) const {
  return std::visit(
      [f](const auto& v) { return static_cast<idx_t>(v[f]); },
      fids_[static_cast<std::size_t>(level)]);
}

nnz_t CsfTensor::ptr(int level, nnz_t f) const {
  return std::visit(
      [f](const auto& v) { return static_cast<nnz_t>(v[f]); },
      fptrs_[static_cast<std::size_t>(level)]);
}

FidStreamRef CsfTensor::fid_stream(int level) const {
  return std::visit(
      [](const auto& v) {
        return FidStreamRef{
            v.data(),
            static_cast<std::uint8_t>(sizeof(typename std::decay_t<
                                             decltype(v)>::value_type))};
      },
      fids_[static_cast<std::size_t>(level)]);
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

PtrStreamRef CsfTensor::ptr_stream(int level) const {
  return std::visit(
      [](const auto& v) {
        return PtrStreamRef{
            v.data(),
            static_cast<std::uint8_t>(sizeof(typename std::decay_t<
                                             decltype(v)>::value_type))};
      },
      fptrs_[static_cast<std::size_t>(level)]);
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
  for (const auto& f : fids_) {
    bytes += std::visit(
        [](const auto& v) {
          return static_cast<std::uint64_t>(
              v.size() *
              sizeof(typename std::decay_t<decltype(v)>::value_type));
        },
        f);
  }
  for (const auto& f : fptrs_) {
    bytes += std::visit(
        [](const auto& v) {
          return static_cast<std::uint64_t>(
              v.size() *
              sizeof(typename std::decay_t<decltype(v)>::value_type));
        },
        f);
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
      csfs_.emplace_back(coo, ord, layout);
    }
    return;
  }

  // Production path. Every csf_mode_order(dims, r) is r followed by the
  // ascending order, so one stable pass keyed on r over the ascending-
  // sorted COO gives it. Each root is derived from the ascending order,
  // never from the previous root (chaining b then c would give (c,b,a)).
  // The last representation's pass lands in coo, per the contract above.
  // A build from coo frees the scratch first, so the build's own transient
  // arrays take its place and peak memory stays at coo + one scratch copy
  // + the CSFs.
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
    if (from_coo) scratch = SparseTensor();
    csfs_.emplace_back(from_coo ? coo : scratch, ord, layout);
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
