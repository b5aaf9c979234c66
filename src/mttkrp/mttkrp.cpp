#include "mttkrp/mttkrp.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstring>
#include <span>
#include <type_traits>
#include <utility>

#include "common/aligned.hpp"
#include "parallel/partition.hpp"
#include "parallel/team.hpp"

namespace sptd {

namespace {
std::atomic<std::uint64_t> g_choose_sync_strategy_calls{0};
}  // namespace

std::uint64_t choose_sync_strategy_calls() {
  return g_choose_sync_strategy_calls.load(std::memory_order_relaxed);
}

const char* sync_strategy_name(SyncStrategy s) {
  switch (s) {
    case SyncStrategy::kNone:      return "none";
    case SyncStrategy::kLock:      return "lock";
    case SyncStrategy::kPrivatize: return "privatize";
  }
  return "?";
}

RowAccess parse_row_access(const std::string& name) {
  if (name == "slice") return RowAccess::kSlice;
  if (name == "2d" || name == "index2d") return RowAccess::kIndex2D;
  if (name == "pointer") return RowAccess::kPointer;
  throw Error("unknown row access '" + name + "' (expected slice|2d|pointer)");
}

const char* row_access_name(RowAccess ra) {
  switch (ra) {
    case RowAccess::kSlice:   return "slice";
    case RowAccess::kIndex2D: return "2d";
    case RowAccess::kPointer: return "pointer";
  }
  return "?";
}

idx_t selected_kernel_width(idx_t rank, const MttkrpOptions& opts) {
  if (!opts.use_fixed_kernels || opts.row_access != RowAccess::kPointer) {
    return 0;
  }
  return la::kern::fixed_width_for(rank);
}

SyncStrategy choose_sync_strategy(const dims_t& dims, int out_mode, int level,
                                  nnz_t nnz, nnz_t level_fibers,
                                  const MttkrpOptions& opts) {
  g_choose_sync_strategy_calls.fetch_add(1, std::memory_order_relaxed);
  if (level == 0 || opts.nthreads == 1) {
    return SyncStrategy::kNone;
  }
  if (opts.force_locks || !opts.allow_privatization) {
    return SyncStrategy::kLock;
  }
  const double rows =
      static_cast<double>(dims[static_cast<std::size_t>(out_mode)]);
  const double threads = static_cast<double>(opts.nthreads);
  const bool privatize =
      opts.privatization_threshold
          ? rows * threads <=
                *opts.privatization_threshold * static_cast<double>(nnz)
          : (threads + 1.0) * rows <=
                kPrivatizeFiberFactor * static_cast<double>(level_fibers);
  return privatize ? SyncStrategy::kPrivatize : SyncStrategy::kLock;
}

namespace {
/// Applies opts.backend process-wide and passes the options through: the
/// workspace's first member initializer, so the backend is active before
/// pool_ resolves its `omp` lock flavor.
const MttkrpOptions& with_backend_applied(const MttkrpOptions& opts) {
  set_parallel_backend(opts.backend);
  return opts;
}
}  // namespace

MttkrpWorkspace::MttkrpWorkspace(const MttkrpOptions& opts, idx_t rank,
                                 int order)
    : opts_(with_backend_applied(opts)),
      rank_(rank),
      order_(order),
      pool_(opts.lock_kind) {
  SPTD_CHECK(opts.nthreads >= 1, "MttkrpWorkspace: nthreads must be >= 1");
  SPTD_CHECK(rank >= 1, "MttkrpWorkspace: rank must be >= 1");
  // Checked here, before the unsigned cast at the SliceSchedule call
  // sites, so a negative value cannot wrap into a huge chunk target.
  SPTD_CHECK(opts.chunk_target >= 1,
             "MttkrpWorkspace: chunk_target must be >= 1");
  // Slots per thread: path products (order), children sums (order), plus
  // two scratch rows; each slot padded to a cache line boundary. The
  // storage itself is cache-line aligned, so every slot satisfies the
  // fixed-width kernels' alignment contract.
  slot_stride_ = static_cast<std::size_t>(la::kern::padded_cols(rank));
  slots_per_thread_ = 2 * static_cast<std::size_t>(order) + 2;
  accum_storage_.assign(static_cast<std::size_t>(opts.nthreads) *
                            slots_per_thread_ * slot_stride_,
                        val_t{0});
}

val_t* MttkrpWorkspace::accum(int tid, int slot) {
  SPTD_DCHECK(tid >= 0 && tid < opts_.nthreads, "accum: bad tid");
  SPTD_DCHECK(slot >= 0 &&
                  static_cast<std::size_t>(slot) < slots_per_thread_,
              "accum: bad slot");
  return accum_storage_.data() +
         (static_cast<std::size_t>(tid) * slots_per_thread_ +
          static_cast<std::size_t>(slot)) *
             slot_stride_;
}

PrivateBuffers& MttkrpWorkspace::privatized(idx_t rows) {
  // Rows are laid out at the padded rank stride so replicated rows share
  // the output matrix's leading dimension (and its alignment).
  const nnz_t need = static_cast<nnz_t>(rows) * rank_stride();
  if (!priv_ || priv_capacity_ < need) {
    priv_ = std::make_unique<PrivateBuffers>(opts_.nthreads, need);
    priv_capacity_ = need;
  }
  return *priv_;
}

namespace {

// ---------------------------------------------------------------------
// CSF index views: which integer types the kernels stream.
//
// The compressed CSF stores each level's index streams at the narrowest
// width that covers it (csf.hpp). The kernels below are templated on a
// view V so the per-nonzero streams — the leaf fid array and the deepest
// fptr array, which together carry nearly all index bytes — are walked at
// their stored width with typed loads. The small upper-level streams (one
// read per fiber or per root slice) go through the width-erased stream
// refs, whose predictable 3-way switch is noise next to the factor-row
// gathers. The kernel table (below) instantiates each bundle over a list
// of view types; plan_mode() picks the row matching the stored widths.
// ---------------------------------------------------------------------

template <typename LeafFids, typename DeepFptr>
struct CsfView {
  LeafFids leaf{};          ///< fids at level order-1, one entry per nnz
  DeepFptr deep_fptr{};     ///< fptr at level order-2 (indexes nonzeros)
  std::array<FidStreamRef, kMaxOrder> fids{};   ///< width-erased, per level
  std::array<PtrStreamRef, kMaxOrder> fptr{};   ///< width-erased, 0..order-2
};

/// The view walking the leaf fids as FidT and the deepest fptr as PtrT.
template <typename FidT, typename PtrT>
struct TypedView {
  static constexpr int kFidWidth = sizeof(FidT);
  static constexpr int kPtrWidth = sizeof(PtrT);
  using type = CsfView<const FidT*, const PtrT*>;

  static type make(const CsfTensor& csf) {
    const auto order = static_cast<std::size_t>(csf.order());
    const CsfStreamRefs refs = csf.stream_refs();
    const FidStreamRef leaf = refs.fids[order - 1];
    const PtrStreamRef deep = refs.fptr[order - 2];
    SPTD_CHECK(leaf.width == kFidWidth && deep.width == kPtrWidth,
               "TypedView: stored index widths differ from the view's");
    return {static_cast<const FidT*>(leaf.base),
            static_cast<const PtrT*>(deep.base), refs.fids, refs.fptr};
  }
};

/// The view reading every stream through its width-erased ref: correct
/// for any stored width pair (key widths 0, 0).
struct ErasedView {
  static constexpr int kFidWidth = 0;
  static constexpr int kPtrWidth = 0;
  using type = CsfView<FidStreamRef, PtrStreamRef>;

  static type make(const CsfTensor& csf) {
    const auto order = static_cast<std::size_t>(csf.order());
    const CsfStreamRefs refs = csf.stream_refs();
    return {refs.fids[order - 1], refs.fptr[order - 2], refs.fids,
            refs.fptr};
  }
};

template <typename... Views>
struct ViewList {};

/// Only the erased view: the bundles whose typed views are not worth their
/// compile time (mixed generic, every f32 bundle, the slice/2d ablations).
/// An erased row reads the same integers in the same order as a typed one,
/// so only speed, never a result, depends on which row a mode gets.
using ErasedViews = ViewList<ErasedView>;

/// The typed pairs large tensors land on, plus the erased fallback: the f64
/// bundles and the mixed fixed-width bundles. A u16 deepest fptr caps the
/// CSF at 65,535 nonzeros, where no kernel runs long enough for a typed
/// view to pay for itself, so u16-fptr pairs take the erased row.
using TypedViews = ViewList<TypedView<std::uint16_t, std::uint32_t>,
                            TypedView<std::uint32_t, std::uint32_t>,
                            TypedView<std::uint32_t, std::uint64_t>,
                            ErasedView>;

// ---------------------------------------------------------------------
// Kernel bundles: the arithmetic of every length-R inner loop.
//
// The CSF kernels below are templated on a bundle K instead of a raw
// row-access policy. GenericKern<RA> reproduces the per-element semantics
// of the paper's three row-access idioms (slice / 2d / pointer) with a
// runtime trip count — the ablation benches depend on those access costs
// staying visible. FixedKern<R> is the optimized path: pointer access,
// compile-time trip count, restrict + 64-byte-aligned primitives from
// la/kernels.hpp. selected_kernel_width() decides which bundle runs.
// Index-stream parameters (Fids / the view V) are generic indexables so
// one bundle serves every storage width.
//
// Both bundles carry the precision axis as (StoreT, AccumT) template
// parameters, defaulted to (val_t, val_t) so f64 runs see the identical
// instantiations as before the axis existed. StoreT is the streamed side
// (factor rows and CSF values — fp32 shadows under f32/mixed); AccumT is
// every scratch accumulator's type (fp64 under mixed, fp32 under f32).
// Products widen to AccumT before accumulating; deposits into the fp64
// output widen at the sink. Sinks read the types off the bundle as
// K::Store / K::Accum.
// ---------------------------------------------------------------------

/// Runtime-rank bundle over a row-access policy's handles.
template <typename RA, typename StoreT = val_t, typename AccumT = val_t>
struct GenericKern {
  static constexpr idx_t kWidth = 0;
  using Store = StoreT;
  using Accum = AccumT;
  using StoreMat = la::MatrixT<StoreT>;

  /// cs[r] += v * f(i, r)
  static void leaf_accum(AccumT* cs, const StoreMat& f, idx_t i, StoreT v,
                         idx_t rank) {
    const auto row = RA::row(f, i);
    for (idx_t r = 0; r < rank; ++r) {
      cs[r] += static_cast<AccumT>(v) * static_cast<AccumT>(row.get(r));
    }
  }

  /// cs += sum over x in [begin, end) of vals[x] * F(fids[x], :)
  template <typename Fids>
  static void fiber_accum(AccumT* cs, std::span<const StoreT> vals,
                          Fids fids, nnz_t begin,
                          nnz_t end, const StoreMat& f, idx_t rank) {
    for (nnz_t x = begin; x < end; ++x) {
      leaf_accum(cs, f, fids[x], vals[x], rank);
    }
  }

  /// dst[r] += f(i, r) * cs[r]
  static void hadamard_accum_row(AccumT* dst, const StoreMat& f, idx_t i,
                                 const AccumT* cs, idx_t rank) {
    const auto row = RA::row(f, i);
    for (idx_t r = 0; r < rank; ++r) {
      dst[r] += static_cast<AccumT>(row.get(r)) * cs[r];
    }
  }

  /// mine[r] = parent[r] * f(i, r)
  static void path_mul(AccumT* mine, const AccumT* parent,
                       const StoreMat& f, idx_t i, idx_t rank) {
    const auto row = RA::row(f, i);
    for (idx_t r = 0; r < rank; ++r) {
      mine[r] = parent[r] * static_cast<AccumT>(row.get(r));
    }
  }

  /// p0[r] = f(i, r)
  static void path_load(AccumT* p0, const StoreMat& f, idx_t i,
                        idx_t rank) {
    const auto row = RA::row(f, i);
    for (idx_t r = 0; r < rank; ++r) {
      p0[r] = static_cast<AccumT>(row.get(r));
    }
  }

  /// dst[r] = v * src[r]
  static void scale(AccumT* dst, StoreT v, const AccumT* src, idx_t rank) {
    for (idx_t r = 0; r < rank; ++r) {
      dst[r] = static_cast<AccumT>(v) * src[r];
    }
  }

  /// dst[r] = a[r] * b[r]
  static void mul(AccumT* dst, const AccumT* a, const AccumT* b,
                  idx_t rank) {
    for (idx_t r = 0; r < rank; ++r) {
      dst[r] = a[r] * b[r];
    }
  }

  /// out(i, :) += vec — the sink deposit, through the RA handle so the
  /// access idiom under study is charged on writes too. The output is
  /// always fp64: fp32 accumulators widen here.
  static void row_add(la::Matrix& out, idx_t i, const AccumT* vec,
                      idx_t rank) {
    const auto handle = RA::row(out, i);
    for (idx_t r = 0; r < rank; ++r) {
      handle.add(r, static_cast<val_t>(vec[r]));
    }
  }

  /// dst[r] += vec[r] (privatized deposit; raw fp64 rows, no RA handle).
  static void vec_add(val_t* dst, const AccumT* vec, idx_t rank) {
    for (idx_t r = 0; r < rank; ++r) {
      dst[r] += static_cast<val_t>(vec[r]);
    }
  }

  /// dst += fl(i, :) ⊙ (sum of the bottom fiber [begin, end)) — the seed
  /// sequence: zero the scratch row, accumulate the fiber into it,
  /// multiply-accumulate into dst.
  template <typename Fids>
  static void pullup_hadamard(AccumT* dst, const StoreMat& fl, idx_t i,
                              std::span<const StoreT> vals,
                              Fids fids, nnz_t begin,
                              nnz_t end, const StoreMat& leaf, AccumT* cs,
                              idx_t rank) {
    std::memset(cs, 0, static_cast<std::size_t>(rank) * sizeof(AccumT));
    fiber_accum(cs, vals, fids, begin, end, leaf, rank);
    hadamard_accum_row(dst, fl, i, cs, rank);
  }

  /// dst = path ⊙ (sum of the bottom fiber [begin, end)) — the internal
  /// kernel's leaf case, seed sequence.
  template <typename Fids>
  static void pullup_mul(AccumT* dst, const AccumT* path,
                         std::span<const StoreT> vals,
                         Fids fids, nnz_t begin, nnz_t end,
                         const StoreMat& leaf, AccumT* cs, idx_t rank) {
    std::memset(cs, 0, static_cast<std::size_t>(rank) * sizeof(AccumT));
    fiber_accum(cs, vals, fids, begin, end, leaf, rank);
    mul(dst, path, cs, rank);
  }

  /// out(i, :) += v * vec — through the scratch row then the RA handle
  /// (the seed's two-pass deposit, kept as the ablation baseline).
  static void deposit_scaled(la::Matrix& out, idx_t i, StoreT v,
                             const AccumT* vec, AccumT* tmp, idx_t rank) {
    scale(tmp, v, vec, rank);
    row_add(out, i, tmp, rank);
  }

  /// dst[r] += v * vec[r] into a raw (privatized) row, seed sequence.
  static void vec_deposit_scaled(val_t* dst, StoreT v, const AccumT* vec,
                                 AccumT* tmp, idx_t rank) {
    scale(tmp, v, vec, rank);
    vec_add(dst, tmp, rank);
  }

  /// fiber[r] = sum of the bottom fiber [begin, end) — the internal
  /// kernel's pull-up half, seed sequence (zero + accumulate in memory).
  template <typename Fids>
  static void fiber_sum(AccumT* fiber, std::span<const StoreT> vals,
                        Fids fids, nnz_t begin, nnz_t end,
                        const StoreMat& leaf, idx_t rank) {
    std::memset(fiber, 0, static_cast<std::size_t>(rank) * sizeof(AccumT));
    fiber_accum(fiber, vals, fids, begin, end, leaf, rank);
  }

  /// out(i, :) += a ⊙ b — through the scratch row then the RA handle
  /// (seed sequence).
  static void deposit_mul(la::Matrix& out, idx_t i, const AccumT* a,
                          const AccumT* b, AccumT* tmp, idx_t rank) {
    mul(tmp, a, b, rank);
    row_add(out, i, tmp, rank);
  }

  /// dst[r] += a[r] * b[r] into a raw (privatized) row, seed sequence.
  static void vec_deposit_mul(val_t* dst, const AccumT* a, const AccumT* b,
                              AccumT* tmp, idx_t rank) {
    mul(tmp, a, b, rank);
    vec_add(dst, tmp, rank);
  }

  /// One third-order internal-kernel fiber: sum the bottom fiber into the
  /// scratch row, multiply by the path, deposit through the sink — the
  /// seed sequence.
  template <typename Sink, typename Fids>
  static void internal_fiber3(const Sink& sink, idx_t out_row,
                              const AccumT* path,
                              std::span<const StoreT> vals,
                              Fids fids, nnz_t begin,
                              nnz_t end, nnz_t /*prefetch_horizon*/,
                              const StoreMat& leaf, AccumT* cs,
                              AccumT* tmp, idx_t rank) {
    fiber_sum(cs, vals, fids, begin, end, leaf, rank);
    sink.add_mul(out_row, path, cs, tmp, rank);
  }

  /// Output-row prefetch ahead of a deposit loop: a no-op on the seed
  /// path (the baseline stays untouched).
  template <typename Sink>
  static void sink_prefetch(const Sink&, idx_t) {}

  /// One third-order root slice into the acc row: seed sequence, one
  /// pull-up per child fiber with the accumulator in memory.
  template <typename V>
  static void root_slice3(AccumT* acc, const V& view,
                          std::span<const StoreT> vals,
                          const StoreMat& f1, const StoreMat& f2,
                          nnz_t c0, nnz_t c1, AccumT* cs, idx_t rank) {
    std::memset(acc, 0, static_cast<std::size_t>(rank) * sizeof(AccumT));
    const auto fids1 = view.fids[1];
    for (nnz_t c = c0; c < c1; ++c) {
      pullup_hadamard(acc, f1, fids1[c], vals, view.leaf,
                      view.deep_fptr[c], view.deep_fptr[c + 1], f2, cs,
                      rank);
    }
  }
};

/// Compile-time-rank bundle: pointer row access over the aligned padded
/// layout, dispatching to the la::kern fixed-width primitives. The
/// (StoreT, AccumT) axis mirrors GenericKern: (val_t, val_t) is the exact
/// pre-precision instantiation, (float, val_t) the mixed bundle (fp32
/// streams, fp64 registers), (float, float) the f32 bundle. Float factor
/// matrices pad rows to 16-lane (64-byte) multiples, which is never less
/// than the 8-lane double padding the width R was chosen from, so the
/// R-wide loops always stay inside a shadow row.
template <idx_t R, typename StoreT = val_t, typename AccumT = val_t>
struct FixedKern {
  static constexpr idx_t kWidth = R;
  using Store = StoreT;
  using Accum = AccumT;
  using StoreMat = la::MatrixT<StoreT>;

  static void leaf_accum(AccumT* cs, const StoreMat& f, idx_t i, StoreT v,
                         idx_t) {
    la::kern::axpy_r<R>(cs, f.row_ptr(i), static_cast<AccumT>(v));
  }

  template <typename Fids>
  static void fiber_accum(AccumT* cs, std::span<const StoreT> vals,
                          Fids fids, nnz_t begin,
                          nnz_t end, const StoreMat& f, idx_t) {
    la::kern::fiber_accum_r<R>(cs, vals.data(), fids, begin, end,
                               f.data(), f.ld());
  }

  static void hadamard_accum_row(AccumT* dst, const StoreMat& f, idx_t i,
                                 const AccumT* cs, idx_t) {
    la::kern::hadamard_accum_r<R>(dst, f.row_ptr(i), cs);
  }

  static void path_mul(AccumT* mine, const AccumT* parent,
                       const StoreMat& f, idx_t i, idx_t) {
    la::kern::mul_r<R>(mine, parent, f.row_ptr(i));
  }

  static void path_load(AccumT* p0, const StoreMat& f, idx_t i, idx_t) {
    la::kern::copy_r<R>(p0, f.row_ptr(i));
  }

  static void scale(AccumT* dst, StoreT v, const AccumT* src, idx_t) {
    la::kern::scale_r<R>(dst, src, static_cast<AccumT>(v));
  }

  static void mul(AccumT* dst, const AccumT* a, const AccumT* b, idx_t) {
    la::kern::mul_r<R>(dst, a, b);
  }

  static void row_add(la::Matrix& out, idx_t i, const AccumT* vec, idx_t) {
    la::kern::add_r<R>(out.row_ptr(i), vec);
  }

  static void vec_add(val_t* dst, const AccumT* vec, idx_t) {
    la::kern::add_r<R>(dst, vec);
  }

  template <typename Fids>
  static void pullup_hadamard(AccumT* dst, const StoreMat& fl, idx_t i,
                              std::span<const StoreT> vals,
                              Fids fids, nnz_t begin,
                              nnz_t end, const StoreMat& leaf, AccumT*,
                              idx_t) {
    la::kern::fiber_pullup_hadamard_r<R, AccumT>(
        dst, fl.row_ptr(i), vals.data(), fids, begin, end, leaf.data(),
        leaf.ld(), end);
  }

  template <typename Fids>
  static void pullup_mul(AccumT* dst, const AccumT* path,
                         std::span<const StoreT> vals,
                         Fids fids, nnz_t begin, nnz_t end,
                         const StoreMat& leaf, AccumT*, idx_t) {
    la::kern::fiber_pullup_mul_r<R, AccumT>(dst, path, vals.data(), fids,
                                            begin, end, leaf.data(),
                                            leaf.ld(), end);
  }

  /// Fused deposit: no scratch-row round trip.
  static void deposit_scaled(la::Matrix& out, idx_t i, StoreT v,
                             const AccumT* vec, AccumT*, idx_t) {
    la::kern::axpy_r<R>(out.row_ptr(i), vec, static_cast<AccumT>(v));
  }

  static void vec_deposit_scaled(val_t* dst, StoreT v, const AccumT* vec,
                                 AccumT*, idx_t) {
    la::kern::axpy_r<R>(dst, vec, static_cast<AccumT>(v));
  }

  template <typename Fids>
  static void fiber_sum(AccumT* fiber, std::span<const StoreT> vals,
                        Fids fids, nnz_t begin, nnz_t end,
                        const StoreMat& leaf, idx_t) {
    std::memset(fiber, 0, R * sizeof(AccumT));
    la::kern::fiber_accum_r<R>(fiber, vals.data(), fids, begin, end,
                               leaf.data(), leaf.ld());
  }

  /// Fused deposit: out(i, :) += a ⊙ b, no scratch-row round trip.
  static void deposit_mul(la::Matrix& out, idx_t i, const AccumT* a,
                          const AccumT* b, AccumT*, idx_t) {
    la::kern::hadamard_accum_r<R>(out.row_ptr(i), a, b);
  }

  static void vec_deposit_mul(val_t* dst, const AccumT* a, const AccumT* b,
                              AccumT*, idx_t) {
    la::kern::hadamard_accum_r<R>(dst, a, b);
  }

  /// Fused third-order internal fiber: the fiber sum stays in registers
  /// and lands directly on the (sink-resolved) output row — no scratch
  /// traffic at all.
  template <typename Sink, typename Fids>
  static void internal_fiber3(const Sink& sink, idx_t out_row,
                              const AccumT* path,
                              std::span<const StoreT> vals,
                              Fids fids, nnz_t begin,
                              nnz_t end, nnz_t prefetch_horizon,
                              const StoreMat& leaf, AccumT* cs,
                              AccumT* /*tmp*/, idx_t rank) {
    if constexpr (requires { sink.with_row(out_row, [](val_t*) {}); }) {
      // Unsynchronized destination: fuse the fiber sum straight into the
      // (always-fp64) output row, no scratch traffic.
      sink.with_row(out_row, [&](val_t* dst) {
        la::kern::fiber_pullup_hadamard_r<R, AccumT>(
            dst, path, vals.data(), fids, begin, end, leaf.data(),
            leaf.ld(), prefetch_horizon);
      });
    } else {
      // Locked destination: compute outside the critical section and
      // hand the sink a finished row (keeps the lock hold time at the
      // seed's length-R add).
      la::kern::fiber_pullup_mul_r<R, AccumT>(cs, path, vals.data(), fids,
                                              begin, end, leaf.data(),
                                              leaf.ld(), prefetch_horizon);
      sink.add(out_row, cs, rank);
    }
  }

  /// Prefetch the sink's destination row for an upcoming deposit.
  template <typename Sink>
  static void sink_prefetch(const Sink& sink, idx_t row) {
    sink.prefetch(row);
  }

  /// Fully register-blocked third-order root slice.
  template <typename V>
  static void root_slice3(AccumT* acc, const V& view,
                          std::span<const StoreT> vals,
                          const StoreMat& f1, const StoreMat& f2,
                          nnz_t c0, nnz_t c1, AccumT*, idx_t) {
    la::kern::root_slice3_r<R, AccumT>(acc, view.fids[1], vals.data(),
                                       view.leaf, view.deep_fptr, c0, c1,
                                       f1.data(), f1.ld(), f2.data(),
                                       f2.ld());
  }
};

// ---------------------------------------------------------------------
// Output sinks: how a kernel deposits a length-R contribution row.
// ---------------------------------------------------------------------

/// Unsynchronized write into the real output matrix (root kernel, or any
/// kernel on one thread). Sinks take the kernel bundle's accumulator type
/// on their vector arguments and widen to the fp64 output inside the
/// bundle's deposit primitives; the output matrix itself is always fp64.
template <typename K>
struct DirectSink {
  using A = typename K::Accum;
  using S = typename K::Store;
  la::Matrix* out;
  /// The sink one team member deposits through: every thread shares the
  /// output here.
  DirectSink for_thread(int) const { return *this; }
  void add(idx_t row, const A* vec, idx_t rank) const {
    K::row_add(*out, row, vec, rank);
  }
  void add_scaled(idx_t row, S v, const A* vec, A* tmp,
                  idx_t rank) const {
    K::deposit_scaled(*out, row, v, vec, tmp, rank);
  }
  void add_mul(idx_t row, const A* a, const A* b, A* tmp,
               idx_t rank) const {
    K::deposit_mul(*out, row, a, b, tmp, rank);
  }
  /// Runs fn(dst) on output row \p row under this sink's synchronization
  /// (none here). dst is the raw 64-byte-aligned row base.
  template <typename Fn>
  void with_row(idx_t row, Fn&& fn) const {
    fn(out->row_ptr(row));
  }
  /// Hints an upcoming deposit to row \p row (write intent).
  void prefetch(idx_t row) const {
    __builtin_prefetch(out->row_ptr(row), 1, 3);
  }
};

/// Mutex-pool-guarded write (the paper's lock study).
template <typename K>
struct LockedSink {
  using A = typename K::Accum;
  using S = typename K::Store;
  la::Matrix* out;
  AnyMutexPool* pool;
  LockedSink for_thread(int) const { return *this; }
  void add(idx_t row, const A* vec, idx_t rank) const {
    pool->lock(row);
    K::row_add(*out, row, vec, rank);
    pool->unlock(row);
  }
  // The fused deposits compute into the scratch row OUTSIDE the lock so
  // the critical section stays the seed's length-R add — the paper's
  // lock study measures deposit cost, not upstream arithmetic. For the
  // same reason this sink does not expose with_row (which would drag the
  // caller's whole computation into the critical section).
  void add_scaled(idx_t row, S v, const A* vec, A* tmp,
                  idx_t rank) const {
    K::scale(tmp, v, vec, rank);
    add(row, tmp, rank);
  }
  void add_mul(idx_t row, const A* a, const A* b, A* tmp,
               idx_t rank) const {
    K::mul(tmp, a, b, rank);
    add(row, tmp, rank);
  }
  void prefetch(idx_t row) const {
    __builtin_prefetch(out->row_ptr(row), 1, 3);
  }
};

/// Per-thread privatized replica write: each thread deposits into its own
/// buffer, laid out at the output's padded stride. The kernels hand one
/// sink to the team; each region body binds its thread's replica once,
/// from the tid it already holds, through for_thread().
template <typename K>
struct ThreadPrivSink {
  using A = typename K::Accum;
  using S = typename K::Store;
  PrivateBuffers* priv;
  idx_t stride;
  val_t* base = nullptr;  // the bound thread's replica (for_thread)
  ThreadPrivSink for_thread(int tid) const {
    ThreadPrivSink bound = *this;
    bound.base = priv->buffer(tid).data();
    return bound;
  }
  void add(idx_t row, const A* vec, idx_t rank) const {
    K::vec_add(resolve(row), vec, rank);
  }
  void add_scaled(idx_t row, S v, const A* vec, A* tmp,
                  idx_t rank) const {
    K::vec_deposit_scaled(resolve(row), v, vec, tmp, rank);
  }
  void add_mul(idx_t row, const A* a, const A* b, A* tmp,
               idx_t rank) const {
    K::vec_deposit_mul(resolve(row), a, b, tmp, rank);
  }
  template <typename Fn>
  void with_row(idx_t row, Fn&& fn) const {
    fn(resolve(row));
  }
  /// No-op: the thread's own recently-written replica rows are usually
  /// cache-resident already.
  void prefetch(idx_t) const {}

 private:
  val_t* resolve(idx_t row) const {
    SPTD_DCHECK(base != nullptr, "ThreadPrivSink: deposit before for_thread");
    return base + static_cast<std::size_t>(row) * stride;
  }
};

// ---------------------------------------------------------------------
// Kernel context: CSF arrays + factors arranged by tree level.
// ---------------------------------------------------------------------

template <typename V, typename StoreT = val_t>
struct KernelCtx {
  const CsfTensor* csf;
  V view;
  /// The value stream the kernels read: csf->vals() under f64, the fp32
  /// copy under f32/mixed. Kernels never touch csf->vals() directly.
  std::span<const StoreT> vals;
  std::vector<const la::MatrixT<StoreT>*> factor_at_level;
  idx_t rank;
  MttkrpWorkspace* ws;
};

/// Slot layout inside the workspace accumulators.
inline int path_slot(int level) { return level; }
template <typename Ctx>
inline int cs_slot(const Ctx& ctx, int level) {
  return ctx.csf->order() + level;
}
template <typename Ctx>
inline int extra_slot(const Ctx& ctx, int which) {
  return 2 * ctx.csf->order() + which;
}

/// Accumulates G(f, l) into dst, where
///   G(leaf x)    = vals[x] * F_leaf(fids[x], :)
///   G(fiber f,l) = F_l(fids_l[f], :) ⊙ sum_children G(child, l+1).
/// This is the "pull up" half of the CSF MTTKRP (Smith & Karypis).
template <typename K, typename Ctx>
void accumulate_g(const Ctx& ctx, int l, nnz_t f, typename K::Accum* dst,
                  int tid) {
  using A = typename K::Accum;
  const CsfTensor& csf = *ctx.csf;
  const idx_t rank = ctx.rank;
  const int order = csf.order();

  if (l == order - 1) {
    // f is a nonzero.
    K::leaf_accum(dst, *ctx.factor_at_level[static_cast<std::size_t>(l)],
                  ctx.view.leaf[f], ctx.vals[f], rank);
    return;
  }

  const auto fids = ctx.view.fids[static_cast<std::size_t>(l)];
  A* cs = ctx.ws->template accum_as<A>(tid, cs_slot(ctx, l));

  if (l == order - 2) {
    // Children are nonzeros: fuse the leaf loop (the hot inner loop) with
    // the Hadamard deposit; the fixed-width path keeps the fiber sum in
    // registers and never touches the cs scratch row.
    K::pullup_hadamard(dst, *ctx.factor_at_level[static_cast<std::size_t>(l)],
                       fids[f], ctx.vals, ctx.view.leaf,
                       ctx.view.deep_fptr[f], ctx.view.deep_fptr[f + 1],
                       *ctx.factor_at_level[static_cast<std::size_t>(order - 1)],
                       cs, rank);
    return;
  }

  const auto fptr = ctx.view.fptr[static_cast<std::size_t>(l)];
  std::memset(cs, 0, static_cast<std::size_t>(rank) * sizeof(A));
  for (nnz_t c = fptr[f]; c < fptr[f + 1]; ++c) {
    accumulate_g<K>(ctx, l + 1, c, cs, tid);
  }
  K::hadamard_accum_row(dst,
                        *ctx.factor_at_level[static_cast<std::size_t>(l)],
                        fids[f], cs, rank);
}

/// Root kernel: out(fids0[s], :) += sum_children G(child, 1). Trees are
/// distributed across threads by the precomputed slice schedule; no write
/// conflicts.
template <typename K, typename Ctx, typename Sink>
void kernel_root(const Ctx& ctx, const Sink& sink,
                 const SliceSchedule& slices, int nthreads) {
  using A = typename K::Accum;
  const CsfTensor& csf = *ctx.csf;
  const idx_t rank = ctx.rank;
  const int order = csf.order();

  if (order == 3) {
    // Dedicated third-order kernel (the paper's datasets are all 3-mode,
    // like SPLATT's specialized 3-mode code path): non-recursive, with
    // the CSF arrays and factors hoisted out of the per-fiber work.
    parallel_region(nthreads, [&](int tid, int) {
      const auto fids0 = ctx.view.fids[0];
      const auto fptr0 = ctx.view.fptr[0];
      const auto vals = ctx.vals;
      const auto& f1 = *ctx.factor_at_level[1];
      const auto& f2 = *ctx.factor_at_level[2];
      A* acc = ctx.ws->template accum_as<A>(tid, extra_slot(ctx, 0));
      A* cs = ctx.ws->template accum_as<A>(tid, cs_slot(ctx, 1));
      const Sink tsink = sink.for_thread(tid);
      slices.for_ranges(tid, [&](nnz_t begin, nnz_t end) {
        for (nnz_t s = begin; s < end; ++s) {
          K::root_slice3(acc, ctx.view, vals, f1, f2, fptr0[s],
                         fptr0[s + 1], cs, rank);
          tsink.add(fids0[s], acc, rank);
        }
      });
    });
    return;
  }

  parallel_region(nthreads, [&](int tid, int) {
    const auto fids0 = ctx.view.fids[0];
    const auto fptr0 = ctx.view.fptr[0];
    A* acc = ctx.ws->template accum_as<A>(tid, extra_slot(ctx, 0));
    const Sink tsink = sink.for_thread(tid);
    slices.for_ranges(tid, [&](nnz_t begin, nnz_t end) {
      for (nnz_t s = begin; s < end; ++s) {
        std::memset(acc, 0, static_cast<std::size_t>(rank) * sizeof(A));
        for (nnz_t c = fptr0[s]; c < fptr0[s + 1]; ++c) {
          accumulate_g<K>(ctx, 1, c, acc, tid);
        }
        tsink.add(fids0[s], acc, rank);
      }
    });
  });
}

/// Leaf kernel: push path products down, deposit at nonzeros:
///   out(leaf_fid, :) += val * (F_0 row ⊙ ... ⊙ F_{N-2} row).
template <typename K, typename Ctx, typename Sink>
void kernel_leaf(const Ctx& ctx, const Sink& sink,
                 const SliceSchedule& slices, int nthreads) {
  using A = typename K::Accum;
  const CsfTensor& csf = *ctx.csf;
  const idx_t rank = ctx.rank;
  const int order = csf.order();

  if (order == 3) {
    // Dedicated third-order kernel: push the two-level path product down
    // and deposit per nonzero, no recursion.
    parallel_region(nthreads, [&](int tid, int) {
      const auto fids0 = ctx.view.fids[0];
      const auto fids1 = ctx.view.fids[1];
      const auto leaf_fids = ctx.view.leaf;
      const auto fptr0 = ctx.view.fptr[0];
      const auto fptr1 = ctx.view.deep_fptr;
      const auto vals = ctx.vals;
      const auto& f0 = *ctx.factor_at_level[0];
      const auto& f1 = *ctx.factor_at_level[1];
      A* p0 = ctx.ws->template accum_as<A>(tid, path_slot(0));
      A* mine = ctx.ws->template accum_as<A>(tid, path_slot(1));
      A* tmp = ctx.ws->template accum_as<A>(tid, extra_slot(ctx, 1));
      const Sink tsink = sink.for_thread(tid);
      slices.for_ranges(tid, [&](nnz_t begin, nnz_t end) {
        for (nnz_t s = begin; s < end; ++s) {
          K::path_load(p0, f0, fids0[s], rank);
          // The slice's nonzeros are contiguous: run output-row
          // prefetches ahead of the deposits (no-op on the seed path).
          const nnz_t x_horizon = fptr1[fptr0[s + 1]];
          for (nnz_t c = fptr0[s]; c < fptr0[s + 1]; ++c) {
            K::path_mul(mine, p0, f1, fids1[c], rank);
            for (nnz_t x = fptr1[c]; x < fptr1[c + 1]; ++x) {
              if (x + la::kern::kGatherPrefetch < x_horizon) {
                K::sink_prefetch(
                    tsink, leaf_fids[x + la::kern::kGatherPrefetch]);
              }
              tsink.add_scaled(leaf_fids[x], vals[x], mine, tmp, rank);
            }
          }
        }
      });
    });
    return;
  }

  // Recursive descent writing path products into per-level slots.
  struct Walker {
    const Ctx& ctx;
    const Sink& sink;
    int tid;

    void descend(int l, nnz_t f) const {
      const CsfTensor& csf = *ctx.csf;
      const idx_t rank = ctx.rank;
      const int order = csf.order();
      const A* parent = ctx.ws->template accum_as<A>(tid, path_slot(l - 1));
      A* mine = ctx.ws->template accum_as<A>(tid, path_slot(l));
      K::path_mul(mine, parent,
                  *ctx.factor_at_level[static_cast<std::size_t>(l)],
                  ctx.view.fids[static_cast<std::size_t>(l)][f], rank);
      if (l == order - 2) {
        // Children are the nonzeros: deposit.
        const auto vals = ctx.vals;
        A* tmp = ctx.ws->template accum_as<A>(tid, extra_slot(ctx, 1));
        for (nnz_t x = ctx.view.deep_fptr[f]; x < ctx.view.deep_fptr[f + 1];
             ++x) {
          sink.add_scaled(ctx.view.leaf[x], vals[x], mine, tmp, rank);
        }
      } else {
        const auto fptr = ctx.view.fptr[static_cast<std::size_t>(l)];
        for (nnz_t c = fptr[f]; c < fptr[f + 1]; ++c) {
          descend(l + 1, c);
        }
      }
    }
  };

  parallel_region(nthreads, [&](int tid, int) {
    const auto fids0 = ctx.view.fids[0];
    const Sink tsink = sink.for_thread(tid);
    const Walker walker{ctx, tsink, tid};
    A* p0 = ctx.ws->template accum_as<A>(tid, path_slot(0));
    slices.for_ranges(tid, [&](nnz_t begin, nnz_t end) {
      for (nnz_t s = begin; s < end; ++s) {
        K::path_load(p0, *ctx.factor_at_level[0], fids0[s], rank);
        if (order == 2) {
          // Root's children are the nonzeros.
          const auto vals = ctx.vals;
          A* tmp = ctx.ws->template accum_as<A>(tid, extra_slot(ctx, 1));
          for (nnz_t x = ctx.view.deep_fptr[s]; x < ctx.view.deep_fptr[s + 1];
               ++x) {
            tsink.add_scaled(ctx.view.leaf[x], vals[x], p0, tmp, rank);
          }
        } else {
          const auto fptr0 = ctx.view.fptr[0];
          for (nnz_t c = fptr0[s]; c < fptr0[s + 1]; ++c) {
            walker.descend(1, c);
          }
        }
      }
    });
  });
}

/// Internal kernel at level L (0 < L < order-1):
///   out(fids_L[f], :) += (F_0 ⊙ ... ⊙ F_{L-1} path) ⊙ sum_children G.
template <typename K, typename Ctx, typename Sink>
void kernel_internal(const Ctx& ctx, const Sink& sink,
                     int out_level, const SliceSchedule& slices,
                     int nthreads) {
  using A = typename K::Accum;
  const CsfTensor& csf = *ctx.csf;
  const idx_t rank = ctx.rank;

  if (csf.order() == 3) {
    // Dedicated third-order kernel (out_level is necessarily 1): root row
    // times bottom-fiber sum, deposited per level-1 fiber, no recursion.
    parallel_region(nthreads, [&](int tid, int) {
      const auto fids0 = ctx.view.fids[0];
      const auto fids1 = ctx.view.fids[1];
      const auto leaf_fids = ctx.view.leaf;
      const auto fptr0 = ctx.view.fptr[0];
      const auto fptr1 = ctx.view.deep_fptr;
      const auto vals = ctx.vals;
      const auto& f0 = *ctx.factor_at_level[0];
      const auto& f2 = *ctx.factor_at_level[2];
      A* p0 = ctx.ws->template accum_as<A>(tid, path_slot(0));
      A* tmp = ctx.ws->template accum_as<A>(tid, extra_slot(ctx, 1));
      A* cs = ctx.ws->template accum_as<A>(tid, cs_slot(ctx, 1));
      const Sink tsink = sink.for_thread(tid);
      slices.for_ranges(tid, [&](nnz_t begin, nnz_t end) {
        for (nnz_t s = begin; s < end; ++s) {
          K::path_load(p0, f0, fids0[s], rank);
          const nnz_t x_horizon = fptr1[fptr0[s + 1]];
          for (nnz_t c = fptr0[s]; c < fptr0[s + 1]; ++c) {
            K::internal_fiber3(tsink, fids1[c], p0, vals, leaf_fids,
                               fptr1[c], fptr1[c + 1], x_horizon, f2, cs,
                               tmp, rank);
          }
        }
      });
    });
    return;
  }

  struct Walker {
    const Ctx& ctx;
    const Sink& sink;
    int out_level;
    int tid;

    void descend(int l, nnz_t f) const {
      const CsfTensor& csf = *ctx.csf;
      const idx_t rank = ctx.rank;
      const int order = csf.order();
      if (l == out_level) {
        // Children sum (the pull-up half), excluding F_L itself.
        const A* path = ctx.ws->template accum_as<A>(tid, path_slot(l - 1));
        A* tmp = ctx.ws->template accum_as<A>(tid, extra_slot(ctx, 1));
        A* cs = ctx.ws->template accum_as<A>(tid, cs_slot(ctx, l));
        if (l == order - 2) {
          K::pullup_mul(
              tmp, path, ctx.vals, ctx.view.leaf, ctx.view.deep_fptr[f],
              ctx.view.deep_fptr[f + 1],
              *ctx.factor_at_level[static_cast<std::size_t>(order - 1)],
              cs, rank);
        } else {
          const auto fptr = ctx.view.fptr[static_cast<std::size_t>(l)];
          std::memset(cs, 0,
                      static_cast<std::size_t>(rank) * sizeof(A));
          for (nnz_t c = fptr[f]; c < fptr[f + 1]; ++c) {
            accumulate_g<K>(ctx, l + 1, c, cs, tid);
          }
          K::mul(tmp, path, cs, rank);
        }
        sink.add(ctx.view.fids[static_cast<std::size_t>(l)][f], tmp, rank);
        return;
      }
      // Extend the path product and keep descending.
      const A* parent = ctx.ws->template accum_as<A>(tid, path_slot(l - 1));
      A* mine = ctx.ws->template accum_as<A>(tid, path_slot(l));
      K::path_mul(mine, parent,
                  *ctx.factor_at_level[static_cast<std::size_t>(l)],
                  ctx.view.fids[static_cast<std::size_t>(l)][f], rank);
      const auto fptr = ctx.view.fptr[static_cast<std::size_t>(l)];
      for (nnz_t c = fptr[f]; c < fptr[f + 1]; ++c) {
        descend(l + 1, c);
      }
    }
  };

  parallel_region(nthreads, [&](int tid, int) {
    const auto fids0 = ctx.view.fids[0];
    const auto fptr0 = ctx.view.fptr[0];
    const Sink tsink = sink.for_thread(tid);
    const Walker walker{ctx, tsink, out_level, tid};
    A* p0 = ctx.ws->template accum_as<A>(tid, path_slot(0));
    slices.for_ranges(tid, [&](nnz_t begin, nnz_t end) {
      for (nnz_t s = begin; s < end; ++s) {
        K::path_load(p0, *ctx.factor_at_level[0], fids0[s], rank);
        for (nnz_t c = fptr0[s]; c < fptr0[s + 1]; ++c) {
          walker.descend(1, c);
        }
      }
    });
  });
}

/// Runs the level-appropriate kernel with the given sink.
template <typename K, typename Ctx, typename Sink>
void run_kernel(const Ctx& ctx, const Sink& sink, int out_level,
                const SliceSchedule& slices, int nthreads) {
  const int order = ctx.csf->order();
  if (out_level == 0) {
    kernel_root<K>(ctx, sink, slices, nthreads);
  } else if (out_level == order - 1) {
    kernel_leaf<K>(ctx, sink, slices, nthreads);
  } else {
    kernel_internal<K>(ctx, sink, out_level, slices, nthreads);
  }
}

/// Refreshes one fp32 factor shadow from its fp64 master (parallel row
/// copy through kern::copy — the sanctioned narrowing conversion). The
/// shadow keeps its own (wider) float padding; kernels read (data, ld)
/// pairs so the stride difference is invisible to them.
void refresh_shadow(const la::Matrix& src, la::MatrixT<float>& dst,
                    int nthreads) {
  if (dst.rows() != src.rows() || dst.cols() != src.cols()) {
    dst = la::MatrixT<float>(src.rows(), src.cols());
  }
  parallel_region(nthreads, [&](int tid, int nt) {
    const Range r =
        block_partition(static_cast<nnz_t>(src.rows()), nt, tid);
    for (idx_t i = static_cast<idx_t>(r.begin);
         i < static_cast<idx_t>(r.end); ++i) {
      la::kern::copy(dst.row_ptr(i), src.row_ptr(i), src.cols());
    }
  });
}

/// The factor rows and the value stream one launch reads, at the store
/// type S of its bundle, with the factors arranged by tree level.
template <typename S>
struct LevelInputs {
  std::vector<const la::MatrixT<S>*> factor_at_level;
  std::span<const S> vals;
};

/// f64 bundles read the fp64 masters and CSF values as they are. fp32
/// bundles (f32 / mixed) stream fp32 factor shadows, refreshed here from
/// the fp64 masters for every mode the launch reads, plus the fp32 CSF
/// value copy (built lazily on this orchestrating thread, before any
/// parallel region).
template <typename S>
LevelInputs<S> level_inputs(const CsfTensor& csf,
                            const std::vector<la::Matrix>& factors,
                            int mode, MttkrpWorkspace& ws) {
  const int order = csf.order();
  LevelInputs<S> in;
  in.factor_at_level.resize(static_cast<std::size_t>(order));
  const auto arrange = [&](const std::vector<la::MatrixT<S>>& by_mode) {
    for (int l = 0; l < order; ++l) {
      in.factor_at_level[static_cast<std::size_t>(l)] =
          &by_mode[static_cast<std::size_t>(csf.mode_at_level(l))];
    }
  };
  if constexpr (std::is_same_v<S, val_t>) {
    arrange(factors);
    in.vals = csf.vals();
  } else {
    auto& shadows = ws.factor_shadows();
    shadows.resize(factors.size());
    for (int m = 0; m < order; ++m) {
      if (m == mode) continue;  // never read; left stale
      refresh_shadow(factors[static_cast<std::size_t>(m)],
                     shadows[static_cast<std::size_t>(m)],
                     ws.options().nthreads);
    }
    in.vals = csf.vals_f32();
    arrange(shadows);
  }
  return in;
}

/// The kernel-table entry point of bundle K over index view View: runs
/// the mode plan's level kernel under its sync strategy.
template <typename K, typename View>
void run_mode(const MttkrpModePlan& mp,
              const std::vector<la::Matrix>& factors, la::Matrix& out,
              MttkrpWorkspace& ws) {
  using S = typename K::Store;
  LevelInputs<S> in = level_inputs<S>(*mp.csf, factors, mp.mode, ws);
  const KernelCtx<typename View::type, S> ctx{
      mp.csf, View::make(*mp.csf), in.vals, std::move(in.factor_at_level),
      ws.rank(), &ws};
  const int nthreads = ws.options().nthreads;
  switch (mp.strategy) {
    case SyncStrategy::kNone: {
      out.zero_parallel(nthreads);
      run_kernel<K>(ctx, DirectSink<K>{&out}, mp.level, mp.slices,
                    nthreads);
      break;
    }
    case SyncStrategy::kLock: {
      out.zero_parallel(nthreads);
      run_kernel<K>(ctx, LockedSink<K>{&out, &ws.pool()}, mp.level,
                    mp.slices, nthreads);
      break;
    }
    case SyncStrategy::kPrivatize: {
      const idx_t rows = mp.csf->dims()[static_cast<std::size_t>(mp.mode)];
      const nnz_t used = static_cast<nnz_t>(rows) * ws.rank_stride();
      PrivateBuffers& priv = ws.privatized(rows);
      priv.clear(used, nthreads);
      run_kernel<K>(ctx, ThreadPrivSink<K>{&priv, ws.rank_stride()},
                    mp.level, mp.slices, nthreads);
      out.zero_parallel(nthreads);
      SPTD_DCHECK(out.ld() == ws.rank_stride(),
                  "privatize: output stride mismatch");
      priv.reduce_into({out.data(), static_cast<std::size_t>(used)},
                       nthreads);
      break;
    }
  }
}

// ---------------------------------------------------------------------
// The kernel table: every (bundle, index view) instantiation, generated
// from type lists and looked up once per mode at plan time.
// ---------------------------------------------------------------------

struct KernelRow {
  MttkrpKernelKey key;
  MttkrpKernelFn kernel = nullptr;
};

/// One row per view in Views for bundle K, keyed (P, W, view widths).
template <typename K, Precision P, idx_t W, typename... Views>
constexpr std::array<KernelRow, sizeof...(Views)> kernel_rows(
    ViewList<Views...> /*views*/) {
  return {KernelRow{{P, W, Views::kFidWidth, Views::kPtrWidth},
                    &run_mode<K, Views>}...};
}

template <std::size_t... Ns>
constexpr std::array<KernelRow, (Ns + ...)> concat_rows(
    const std::array<KernelRow, Ns>&... parts) {
  std::array<KernelRow, (Ns + ...)> rows{};
  std::size_t at = 0;
  ((std::copy(parts.begin(), parts.end(), rows.begin() + at), at += Ns),
   ...);
  return rows;
}

/// Each precision's (streamed, accumulator) element types.
template <Precision P>
struct PrecisionTypes;
template <>
struct PrecisionTypes<Precision::kF64> {
  using Store = val_t;
  using Accum = val_t;
};
template <>
struct PrecisionTypes<Precision::kMixed> {
  using Store = float;
  using Accum = val_t;
};
template <>
struct PrecisionTypes<Precision::kF32> {
  using Store = float;
  using Accum = float;
};

/// The rows of one (precision, width): FixedKern<W> for an instantiated
/// width, the generic pointer loops for W == 0. Typed views go only where
/// a large tensor's speed depends on them: f64, and mixed on its
/// fixed-width bundles (its production bandwidth-saving mode). f32, the
/// ablation endpoint, and mixed generic run the erased view alone.
template <Precision P, idx_t W>
constexpr auto precision_width_rows() {
  using Store = typename PrecisionTypes<P>::Store;
  using Accum = typename PrecisionTypes<P>::Accum;
  using K = std::conditional_t<W == 0, GenericKern<PointerAccess, Store, Accum>,
                               FixedKern<W, Store, Accum>>;
  constexpr bool kTyped =
      P == Precision::kF64 || (P == Precision::kMixed && W != 0);
  return kernel_rows<K, P, W>(
      std::conditional_t<kTyped, TypedViews, ErasedViews>{});
}

template <Precision P>
constexpr auto precision_rows() {
  return []<std::size_t... I>(std::index_sequence<I...>) {
    return concat_rows(
        precision_width_rows<P, 0>(),
        precision_width_rows<P, la::kern::kInstantiatedWidths[I]>()...);
  }(std::make_index_sequence<la::kern::kInstantiatedWidths.size()>{});
}

/// The production table: pointer row access, every precision x kernel
/// width (generic + kInstantiatedWidths) x the precision's view subset.
constexpr auto kKernelTable = concat_rows(precision_rows<Precision::kF64>(),
                                          precision_rows<Precision::kMixed>(),
                                          precision_rows<Precision::kF32>());

/// The slice/2d row-access ablations (paper Figs. 2-3): f64 generic loops
/// over the erased view, outside the production table.
constexpr auto kSliceRows =
    kernel_rows<GenericKern<SliceAccess>, Precision::kF64, 0>(ErasedViews{});
constexpr auto kIndex2DRows =
    kernel_rows<GenericKern<Index2DAccess>, Precision::kF64, 0>(
        ErasedViews{});

// Each row is a full MTTKRP instantiation and this file's compile time
// grows with them; a view-list edit that adds rows must also update the
// count in README "One kernel table" and the KernelTable test.
static_assert(kKernelTable.size() == 60,
              "kernel table row count changed: update README and tests");
static_assert(kSliceRows.size() + kIndex2DRows.size() == 2,
              "ablation row count changed: update README and tests");

std::span<const KernelRow> rows_for(RowAccess ra) {
  switch (ra) {
    case RowAccess::kSlice:   return kSliceRows;
    case RowAccess::kIndex2D: return kIndex2DRows;
    case RowAccess::kPointer: break;
  }
  return kKernelTable;
}

/// The row for \p key, or — when no typed view covers its index widths —
/// the erased-view row of the same (precision, width).
const KernelRow& find_row(std::span<const KernelRow> rows,
                          MttkrpKernelKey key) {
  for (const MttkrpKernelKey probe :
       {key, MttkrpKernelKey{key.precision, key.width, 0, 0}}) {
    for (const KernelRow& row : rows) {
      if (row.key == probe) {
        return row;
      }
    }
  }
  throw Error("mttkrp: no kernel table row for this precision and width");
}

}  // namespace

MttkrpModePlan plan_mode(const CsfTensor& csf, int mode, idx_t rank,
                         const MttkrpOptions& opts) {
  MttkrpModePlan mp;
  mp.csf = &csf;
  mp.mode = mode;
  mp.level = csf.level_of_mode(mode);
  mp.strategy = choose_sync_strategy(csf.dims(), mode, mp.level, csf.nnz(),
                                     csf.nfibers(mp.level), opts);
  mp.slices = SliceSchedule(opts.schedule, csf.nfibers(0),
                            csf.root_nnz_prefix(), opts.nthreads,
                            static_cast<nnz_t>(opts.chunk_target));
  // The precision axis applies to the pointer row access only: the
  // slice/2d ablations exist to measure access idioms and always run f64.
  const int order = csf.order();
  const KernelRow& row = find_row(
      rows_for(opts.row_access),
      {opts.row_access == RowAccess::kPointer ? opts.precision
                                              : Precision::kF64,
       selected_kernel_width(rank, opts), csf.fid_width(order - 1),
       csf.ptr_width(order - 2)});
  mp.key = row.key;
  mp.kernel = row.kernel;
  return mp;
}

void mttkrp_csf_exec(const MttkrpModePlan& mp,
                     const std::vector<la::Matrix>& factors,
                     la::Matrix& out, MttkrpWorkspace& ws) {
  SPTD_CHECK(mp.csf != nullptr && mp.kernel != nullptr,
             "mttkrp_csf_exec: mode plan has no kernel");
  const CsfTensor& csf = *mp.csf;
  const int order = csf.order();
  SPTD_CHECK(static_cast<int>(factors.size()) == order,
             "mttkrp_csf: factor count mismatch");
  const idx_t rank = ws.rank();
  for (int m = 0; m < order; ++m) {
    SPTD_CHECK(factors[static_cast<std::size_t>(m)].cols() == rank,
               "mttkrp_csf: factor rank mismatch");
    SPTD_CHECK(factors[static_cast<std::size_t>(m)].rows() ==
                   csf.dims()[static_cast<std::size_t>(m)],
               "mttkrp_csf: factor rows mismatch");
  }
  SPTD_CHECK(out.rows() == csf.dims()[static_cast<std::size_t>(mp.mode)] &&
                 out.cols() == rank,
             "mttkrp_csf: bad output shape");
  SPTD_CHECK(mp.key.width == 0 ||
                 mp.key.width == la::kern::fixed_width_for(rank),
             "mttkrp_csf: kernel width must be 0 or the rank's "
             "instantiated (possibly padded) width");

  ws.last_strategy = mp.strategy;
  // Rewind the runtime schedule for this kernel launch: every
  // work-stealing deque is reseeded with its owner's chunks (a cached
  // plan reuses one schedule across the whole ALS sweep, so each launch
  // must begin from the full seed).
  mp.slices.reset();
  mp.kernel(mp, factors, out, ws);
}

void mttkrp_csf(const CsfTensor& csf, const std::vector<la::Matrix>& factors,
                int mode, la::Matrix& out, MttkrpWorkspace& ws) {
  mttkrp_csf_exec(plan_mode(csf, mode, ws.rank(), ws.options()), factors,
                  out, ws);
}

void mttkrp(const CsfSet& csf_set, const std::vector<la::Matrix>& factors,
            int mode, la::Matrix& out, MttkrpWorkspace& ws) {
  int level = 0;
  const CsfTensor& csf = csf_set.csf_for_mode(mode, level);
  mttkrp_csf(csf, factors, mode, out, ws);
}


void mttkrp_coo(const SparseTensor& coo,
                const std::vector<la::Matrix>& factors, int mode,
                la::Matrix& out, const MttkrpOptions& opts) {
  const int order = coo.order();
  SPTD_CHECK(static_cast<int>(factors.size()) == order,
             "mttkrp_coo: factor count mismatch");
  const idx_t rank = factors[0].cols();
  SPTD_CHECK(out.rows() == coo.dim(mode) && out.cols() == rank,
             "mttkrp_coo: bad output shape");

  const int nthreads = opts.nthreads;
  set_parallel_backend(opts.backend);  // before the pool captures a flavor
  out.zero_parallel(nthreads);
  AnyMutexPool pool(opts.lock_kind);
  const auto out_ind = coo.ind(mode);

  parallel_region(nthreads, [&](int tid, int nt) {
    const Range r = block_partition(coo.nnz(), nt, tid);
    aligned_vector<val_t> tmp(rank);
    for (nnz_t x = r.begin; x < r.end; ++x) {
      const val_t v = coo.vals()[x];
      for (idx_t j = 0; j < rank; ++j) {
        tmp[j] = v;
      }
      for (int m = 0; m < order; ++m) {
        if (m == mode) continue;
        const val_t* row =
            factors[static_cast<std::size_t>(m)].row_ptr(coo.ind(m)[x]);
        for (idx_t j = 0; j < rank; ++j) {
          tmp[j] *= row[j];
        }
      }
      const idx_t out_row = out_ind[x];
      if (nt > 1) {
        pool.lock(out_row);
      }
      val_t* dst = out.row_ptr(out_row);
      for (idx_t j = 0; j < rank; ++j) {
        dst[j] += tmp[j];
      }
      if (nt > 1) {
        pool.unlock(out_row);
      }
    }
  });
}

}  // namespace sptd
