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
/// fixed u32/u64 streams as the ablation baseline. Each stream is stored
/// once, as a byte buffer tagged with its width, and read through the
/// FidStreamRef / PtrStreamRef views below; mttkrp.cpp casts a view's base
/// to the stored integer type and instantiates its inner loops per width
/// pair, so the hot loop streams exactly the stored bytes.
///
/// The build makes two passes over the sorted nonzeros, each one parallel
/// region over the same blocks: block_partition's cuts moved forward to
/// the next root-index change, so every block holds whole root slices and
/// no fiber crosses a cut. Region 1 counts each block's fibers per level;
/// a serial scan turns the counts into each block's first fiber per level
/// and the totals into the stream lengths and fptr widths; region 2 writes
/// each block's entries of every stream at those offsets. The bytes
/// stored do not depend on the thread count.
///
/// SPLATT allocates one, two, or N representations per tensor (trading
/// memory for always-root MTTKRP kernels); `CsfSet` reproduces those
/// policies and the per-mode kernel dispatch.

#include <array>
#include <cstdint>
#include <memory>
#include <new>
#include <span>
#include <string>
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

/// Width-erased view of one fid stream: its base pointer plus the stored
/// width. operator[] is a predictable 3-way switch — fine for per-fiber /
/// per-slice reads; per-nonzero loops should cast base to the stored type
/// (std::uint8_t, std::uint16_t or std::uint32_t by width) instead.
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

/// Width-erased view of one fptr stream (bytes: 2, 4 or 8).
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

/// Every level's width-erased stream refs in one value — what the
/// width-generic walks (MTTKRP's erased levels, to_coo, Tucker's TTMc)
/// index.
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
  /// The build runs over \p nthreads blocks of whole root slices in two
  /// parallel regions (see the file comment); every thread count stores
  /// the same bytes.
  CsfTensor(const SparseTensor& coo, std::vector<int> mode_order,
            CsfLayout layout = CsfLayout::kCompressed, int nthreads = 1);

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
  [[nodiscard]] nnz_t nfibers(int level) const { return fids_at(level).size; }

  /// Stored width in bytes of the fid stream at \p level (1, 2 or 4).
  [[nodiscard]] int fid_width(int level) const {
    return fids_at(level).width;
  }

  /// Stored width in bytes of the fptr stream at \p level (2, 4 or 8).
  /// Defined for levels 0 .. order()-2.
  [[nodiscard]] int ptr_width(int level) const {
    return fptrs_at(level).width;
  }

  /// Fiber coordinate of fiber \p f at \p level (width-erased read).
  [[nodiscard]] idx_t fid(int level, nnz_t f) const {
    return fid_stream(level)[f];
  }

  /// Child-extent entry \p f of \p level (width-erased read): the children
  /// of fiber f at level l are [ptr(l, f), ptr(l, f+1)) at level l+1.
  /// The stream has nfibers(level)+1 entries; levels 0 .. order()-2.
  [[nodiscard]] nnz_t ptr(int level, nnz_t f) const {
    return ptr_stream(level)[f];
  }

  /// Width-erased views of one level's streams for kernel walking.
  [[nodiscard]] FidStreamRef fid_stream(int level) const {
    const Stream& s = fids_at(level);
    return {s.bytes.get(), s.width};
  }
  [[nodiscard]] PtrStreamRef ptr_stream(int level) const {
    const Stream& s = fptrs_at(level);
    return {s.bytes.get(), s.width};
  }

  /// All levels' stream refs in one call.
  [[nodiscard]] CsfStreamRefs stream_refs() const;

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
  /// Releases a stream's storage to ::operator delete.
  struct FreeBytes {
    void operator()(void* p) const { ::operator delete(p); }
  };

  /// One index stream: `size` entries of `width` bytes each. Storage from
  /// ::operator new implicitly creates the array of unsigned integers the
  /// stream holds, so the typed writes of the build and the typed reads
  /// through the refs' bases are well-defined at every width.
  struct Stream {
    std::unique_ptr<void, FreeBytes> bytes;
    nnz_t size = 0;
    std::uint8_t width = 0;
  };

  const Stream& fids_at(int level) const {
    return fids_[static_cast<std::size_t>(level)];
  }
  const Stream& fptrs_at(int level) const {
    return fptrs_[static_cast<std::size_t>(level)];
  }

  dims_t dims_;
  std::vector<int> mode_order_;
  CsfLayout layout_;
  std::vector<Stream> fptrs_;  ///< levels 0..order-2
  std::vector<Stream> fids_;   ///< levels 0..order-1
  /// Written in full by the build, so it grows without a fill.
  std::vector<val_t, DefaultInitAllocator<AlignedAllocator<val_t>>> vals_;
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
  /// index stream widths of every representation; every CSF is built on
  /// \p nthreads threads.
  ///
  /// Scratch lifetime (production path): the sort's scratch COO stays
  /// allocated until the last stable_counting_pass, so every pass after
  /// the sort writes into pages already faulted in. It is freed before a
  /// build only once no later pass needs it (kOneMode, or the last
  /// representation). The peak is unchanged by keeping it: coo + scratch
  /// + the CSFs built so far, reached during the last pass either way.
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

}  // namespace sptd
