#pragma once
/// \file csf.hpp
/// \brief Compressed Sparse Fiber (CSF) tensor storage (Smith & Karypis),
///        the data structure SPLATT's MTTKRP is built on.
///
/// A CSF representation is a forest: one tree of coordinates per root-mode
/// slice, with shared prefixes compressed. Level l stores, fiber-by-fiber,
/// the coordinate of each fiber in mode `mode_order[l]` (fids) and the
/// extent of its children at level l+1 (fptr). Leaves align 1:1 with
/// nonzero values.
///
/// Index streams are width-adaptive: MTTKRP is memory-bandwidth-bound, so
/// under the default CsfLayout::kCompressed every level stores its fids in
/// the narrowest of u8/u16/u32 that covers the level's mode length, and
/// its fptr in the narrowest of u16/u32/u64 that covers the child-fiber
/// count (SPLATT ships the same idea as a compile-time IDX_TYPEWIDTH; here
/// it is picked per level at build time). CsfLayout::kWide keeps the
/// fixed u32/u64 streams as the ablation baseline. Hot kernels read the
/// streams through CsfLevelView / the *StreamRef accessors below;
/// mttkrp.cpp instantiates its inner loops per width pair so the hot loop
/// streams exactly the stored bytes.
///
/// SPLATT allocates one, two, or N representations per tensor (trading
/// memory for always-root MTTKRP kernels); `CsfSet` reproduces those
/// policies and the per-mode kernel dispatch.

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "common/aligned.hpp"
#include "common/error.hpp"
#include "common/precision.hpp"
#include "sort/sort.hpp"
#include "tensor/coo.hpp"

namespace sptd {

/// How CSF index streams are stored.
enum class CsfLayout : int {
  kCompressed = 0,  ///< narrowest per-level widths (default)
  kWide,            ///< fixed u32 fids / u64 fptr (ablation baseline)
};

/// Parses "compressed" / "wide".
CsfLayout parse_csf_layout(const std::string& name);

/// Name of a layout.
const char* csf_layout_name(CsfLayout layout);

/// Typed view of one CSF level: the fiber-id stream as FidT and the
/// child-extent stream as PtrT. Obtainable only when the stored widths
/// match (CsfTensor::level_view checks). The MTTKRP kernel table keys its
/// typed views on fid_width()/ptr_width() the same way.
template <typename FidT, typename PtrT>
struct CsfLevelView {
  const FidT* fids = nullptr;
  const PtrT* fptr = nullptr;  ///< null at the leaf level
  nnz_t nfibers = 0;
};

/// Width-erased accessor for one fid stream: a raw base pointer plus the
/// stored width. operator[] is a predictable 3-way switch — fine for
/// per-fiber / per-slice reads; per-nonzero loops should run a typed
/// instantiation instead.
struct FidStreamRef {
  const void* base = nullptr;
  std::uint8_t width = sizeof(idx_t);  ///< bytes: 1, 2 or 4

  idx_t operator[](nnz_t i) const {
    switch (width) {
      case 1:
        return static_cast<const std::uint8_t*>(base)[i];
      case 2:
        return static_cast<const std::uint16_t*>(base)[i];
      default:
        return static_cast<const std::uint32_t*>(base)[i];
    }
  }
};

/// Width-erased accessor for one fptr stream (bytes: 2, 4 or 8).
struct PtrStreamRef {
  const void* base = nullptr;
  std::uint8_t width = sizeof(nnz_t);

  nnz_t operator[](nnz_t i) const {
    switch (width) {
      case 2:
        return static_cast<const std::uint16_t*>(base)[i];
      case 4:
        return static_cast<const std::uint32_t*>(base)[i];
      default:
        return static_cast<const std::uint64_t*>(base)[i];
    }
  }
};

/// Every level's width-erased stream refs, resolved in one pass — what
/// the width-generic walks (MTTKRP's erased levels, to_coo, Tucker's
/// TTMc) index instead of re-visiting the variant stores per access.
struct CsfStreamRefs {
  std::array<FidStreamRef, kMaxOrder> fids{};  ///< levels 0..order-1
  std::array<PtrStreamRef, kMaxOrder> fptr{};  ///< levels 0..order-2
};

/// The fid width (bytes) the compressed layout selects for a mode of
/// length \p dim: u8 for dims up to 255, u16 up to 65535, else u32.
int csf_fid_width_for(idx_t dim, CsfLayout layout);

/// The fptr width (bytes) the compressed layout selects for a level whose
/// child-fiber count is \p children (the largest stored value): u16 up to
/// 65535, u32 up to 2^32-1, else u64.
int csf_ptr_width_for(nnz_t children, CsfLayout layout);

/// One CSF representation of a tensor.
class CsfTensor {
 public:
  /// Builds a CSF from \p coo, which MUST already be sorted
  /// lexicographically by \p mode_order (see sort_tensor_perm).
  /// \p mode_order[0] is the root mode; \p mode_order.back() the leaf.
  CsfTensor(const SparseTensor& coo, std::vector<int> mode_order,
            CsfLayout layout = CsfLayout::kCompressed);

  /// Number of modes.
  [[nodiscard]] int order() const {
    return static_cast<int>(mode_order_.size());
  }

  /// Mode lengths of the original tensor (original mode numbering).
  [[nodiscard]] const dims_t& dims() const { return dims_; }

  /// The storage layout the streams were built with.
  [[nodiscard]] CsfLayout layout() const { return layout_; }

  /// The mode stored at tree level \p level.
  [[nodiscard]] int mode_at_level(int level) const {
    return mode_order_[static_cast<std::size_t>(level)];
  }

  /// The tree level where \p mode lives (0 = root).
  [[nodiscard]] int level_of_mode(int mode) const;

  /// Full mode order (root first).
  [[nodiscard]] const std::vector<int>& mode_order() const {
    return mode_order_;
  }

  /// Number of nonzeros (== leaf count).
  [[nodiscard]] nnz_t nnz() const { return vals_.size(); }

  /// Number of fibers at \p level (level order()-1 has nnz() "fibers").
  [[nodiscard]] nnz_t nfibers(int level) const;

  /// Stored width in bytes of the fid stream at \p level (1, 2 or 4).
  [[nodiscard]] int fid_width(int level) const;

  /// Stored width in bytes of the fptr stream at \p level (2, 4 or 8).
  /// Defined for levels 0 .. order()-2.
  [[nodiscard]] int ptr_width(int level) const;

  /// Fiber coordinate of fiber \p f at \p level (width-erased read).
  [[nodiscard]] idx_t fid(int level, nnz_t f) const;

  /// Child-extent entry \p f of \p level (width-erased read): the children
  /// of fiber f at level l are [ptr(l, f), ptr(l, f+1)) at level l+1.
  /// The stream has nfibers(level)+1 entries; levels 0 .. order()-2.
  [[nodiscard]] nnz_t ptr(int level, nnz_t f) const;

  /// Width-erased stream accessors for kernel walking (resolved once,
  /// then indexed without std::visit).
  [[nodiscard]] FidStreamRef fid_stream(int level) const;
  [[nodiscard]] PtrStreamRef ptr_stream(int level) const;

  /// All levels' stream refs in one call.
  [[nodiscard]] CsfStreamRefs stream_refs() const;

  /// Typed view of one level. SPTD_CHECKs that the stored widths are
  /// exactly sizeof(FidT)/sizeof(PtrT); at the leaf the fptr pointer is
  /// null and PtrT is not checked.
  template <typename FidT, typename PtrT>
  [[nodiscard]] CsfLevelView<FidT, PtrT> level_view(int level) const;

  /// Leaf values, aligned with the leaf fid stream.
  [[nodiscard]] std::span<const val_t> vals() const { return vals_; }

  /// fp32 copy of the leaf values (the `--precision f32|mixed` stream),
  /// built lazily on first call and cached for the tensor's lifetime.
  /// The first call is NOT thread-safe — the MTTKRP dispatch resolves it
  /// on the orchestrating thread before entering any parallel region.
  [[nodiscard]] std::span<const float> vals_f32() const;

  /// Bytes the value stream occupies under \p p: nnz() times the
  /// precision's stored width. This is the "value_bytes" the stats table
  /// and bench JSON report next to index_bytes()/memory_bytes().
  [[nodiscard]] std::uint64_t value_bytes(Precision p) const {
    return static_cast<std::uint64_t>(nnz()) * precision_value_width(p);
  }

  /// Exclusive prefix of nonzeros under each root slice (length
  /// nfibers(0)+1) — the weights used to balance tree ranges over threads.
  [[nodiscard]] std::span<const nnz_t> root_nnz_prefix() const {
    return root_nnz_prefix_;
  }

  /// Expands back to COO (original mode numbering, sorted order).
  [[nodiscard]] SparseTensor to_coo() const;

  /// Approximate heap footprint in bytes (reflects the stored widths).
  [[nodiscard]] std::uint64_t memory_bytes() const;

  /// Index-stream bytes only (fids + fptr across levels): the part the
  /// compressed layout shrinks; vals and the root prefix are excluded.
  [[nodiscard]] std::uint64_t index_bytes() const;

 private:
  using FidStore = std::variant<std::vector<std::uint8_t>,
                                std::vector<std::uint16_t>,
                                std::vector<std::uint32_t>>;
  using PtrStore = std::variant<std::vector<std::uint16_t>,
                                std::vector<std::uint32_t>,
                                std::vector<std::uint64_t>>;

  dims_t dims_;
  std::vector<int> mode_order_;
  CsfLayout layout_;
  std::vector<PtrStore> fptrs_;  ///< levels 0..order-2
  std::vector<FidStore> fids_;   ///< levels 0..order-1
  aligned_vector<val_t> vals_;
  mutable aligned_vector<float> vals_f32_;  ///< lazy precision!=f64 stream
  std::vector<nnz_t> root_nnz_prefix_;
};

/// How many CSF representations to allocate (SPLATT's ALLOC_* options).
enum class CsfPolicy : int {
  kOneMode = 0,  ///< one CSF, smallest mode as root
  kTwoMode,      ///< + one rooted at the largest mode (SPLATT default)
  kAllMode,      ///< one CSF per mode, every MTTKRP uses a root kernel
};

/// Parses "one" / "two" / "all".
CsfPolicy parse_csf_policy(const std::string& name);

/// Name of a policy.
const char* csf_policy_name(CsfPolicy policy);

/// Root-first mode order for a CSF rooted at \p root: root, then the other
/// modes sorted by ascending mode length (ties by mode id). With
/// root == -1, picks the smallest mode as root (SPLATT's default order).
std::vector<int> csf_mode_order(const dims_t& dims, int root);

/// The set of CSF representations for a tensor under a policy, plus the
/// per-mode dispatch SPLATT performs.
class CsfSet {
 public:
  /// Sorts \p coo in place per representation and builds the set (its
  /// nonzero order on return is that of the last representation built).
  /// Under SortVariant::kAllOpts (production) \p coo is sorted once into
  /// the ascending order by stable_sort_perm, and every other
  /// representation costs one stable_counting_pass keyed on its root;
  /// duplicate coordinates keep their input order. The other variants are
  /// the paper's Figure 1 ablation and re-sort per representation with
  /// sort_tensor_perm. Both give the same CSFs on duplicate-free input.
  /// \p sort_seconds, if non-null, accumulates time spent sorting, every
  /// pass included (the paper's "Sort" routine). \p layout selects the
  /// index stream widths of every representation.
  CsfSet(SparseTensor& coo, CsfPolicy policy, int nthreads,
         double* sort_seconds = nullptr,
         SortVariant sort_variant = SortVariant::kAllOpts,
         CsfLayout layout = CsfLayout::kCompressed);

  [[nodiscard]] CsfPolicy policy() const { return policy_; }
  [[nodiscard]] CsfLayout layout() const { return layout_; }
  [[nodiscard]] int order() const { return csfs_.front().order(); }
  [[nodiscard]] const std::vector<CsfTensor>& csfs() const { return csfs_; }

  /// The representation SPLATT would use for an MTTKRP producing \p mode,
  /// and (out-param) the tree level of that mode in it: 0 selects the
  /// root kernel; order()-1 the leaf kernel; otherwise internal.
  [[nodiscard]] const CsfTensor& csf_for_mode(int mode, int& level) const;

  /// Total memory across representations.
  [[nodiscard]] std::uint64_t memory_bytes() const;

  /// Value-stream bytes across representations under \p p (what the hot
  /// loops stream; the fp64 masters stay resident regardless).
  [[nodiscard]] std::uint64_t value_bytes(Precision p) const;

 private:
  CsfPolicy policy_;
  CsfLayout layout_;
  std::vector<CsfTensor> csfs_;
};

template <typename FidT, typename PtrT>
CsfLevelView<FidT, PtrT> CsfTensor::level_view(int level) const {
  const auto l = static_cast<std::size_t>(level);
  CsfLevelView<FidT, PtrT> view;
  const auto* fids = std::get_if<std::vector<FidT>>(&fids_[l]);
  SPTD_CHECK(fids != nullptr,
             "CsfTensor::level_view: fid width mismatch at this level");
  view.fids = fids->data();
  view.nfibers = fids->size();
  if (level < order() - 1) {
    const auto* fptr = std::get_if<std::vector<PtrT>>(&fptrs_[l]);
    SPTD_CHECK(fptr != nullptr,
               "CsfTensor::level_view: fptr width mismatch at this level");
    view.fptr = fptr->data();
  }
  return view;
}

}  // namespace sptd
