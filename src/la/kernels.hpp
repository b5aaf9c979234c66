#pragma once
/// \file kernels.hpp
/// \brief Rank-specialized SIMD primitives for every length-R inner loop.
///
/// The MTTKRP, Gram, and fit kernels all reduce to a handful of length-R
/// vector operations (R = decomposition rank, 35 in the paper). Run with a
/// runtime trip count over arbitrary pointers the compiler must assume
/// aliasing and cannot unroll, so the hot loops execute scalar adds. This
/// header provides the same operations three ways:
///
///  * generic runtime-length loops (`axpy`, `hadamard_accum`, ...) over
///    `restrict`-qualified pointers — the fallback for any rank;
///  * compile-time-width instantiations (`axpy_r<R>`, `hadamard_accum_r<R>`,
///    `dot_r<R>`, `scale_r<R>`, ...) for R in `kInstantiatedWidths`, which
///    the compiler fully unrolls and vectorizes;
///  * `fixed_width_for(rank)` — the dispatch map from a runtime rank to the
///    specialized width (0 = no specialization, use the generic loops).
///    Ranks without an exact instantiation run the instantiation of their
///    *padded* width when one exists (e.g. rank 35 — the paper's default —
///    runs R=40): rows are `ld()` values apart with the padding lanes kept
///    zero by the Matrix contract, so the extra lanes compute zeros and
///    deposit zeros, lane-for-lane, at full SIMD width.
///
/// Precision: every primitive is templated on the element types of its
/// operands (the `--precision` axis). Streamed inputs may be fp32 while
/// the accumulator stays fp64 (`mixed`): products are formed in the
/// accumulator's type — `acc += AccumT(v) * AccumT(row[i])` — so with
/// uniform fp64 operands the casts are no-ops and codegen is unchanged,
/// while fp32 streams are widened on load and accumulated exactly as the
/// mixed-precision contract requires. The fused fiber primitives take
/// `AccumT` as an explicit (defaulted to `val_t`) template parameter
/// because their register blocks do not appear in any argument.
///
/// Alignment contract: every pointer handed to a `_r<R>` primitive is
/// 64-byte aligned. `la::MatrixT<T>` pads its leading dimension to a cache
/// line (`padded_cols_for<T>` — 8 doubles or 16 floats) and allocates
/// through `AlignedAllocator`, and the MTTKRP workspace rounds its
/// per-thread slots the same way, so factor rows, output rows, and
/// accumulator rows all satisfy the contract regardless of element width.
/// The primitives encode it with `std::assume_aligned`, which is undefined
/// behaviour on unaligned input — callers that cannot guarantee alignment
/// must use the generic loops.

#include <array>
#include <cstddef>
#include <memory>
#include <type_traits>
#include <utility>

#include "common/aligned.hpp"
#include "common/types.hpp"

#if defined(__GNUC__) || defined(__clang__)
#define SPTD_RESTRICT __restrict__
#else
#define SPTD_RESTRICT
#endif

namespace sptd::la::kern {

/// val_t lanes per cache line (8 doubles on x86-64).
inline constexpr idx_t kValsPerLine =
    static_cast<idx_t>(kCacheLineBytes / sizeof(val_t));

/// Leading dimension for a row-major matrix of element type T with \p cols
/// logical columns: the smallest cache-line multiple >= cols, so
/// consecutive rows never share a line and every row base is 64-byte
/// aligned. fp32 rows pad to multiples of 16 lanes, fp64 to 8 — a float
/// shadow of a matrix may therefore have a different ld() than its fp64
/// master (rank 35: 48 vs 40); kernels parameterize on (data, ld) so the
/// widths compose freely.
template <typename T>
constexpr idx_t padded_cols_for(idx_t cols) {
  constexpr idx_t lanes = static_cast<idx_t>(kCacheLineBytes / sizeof(T));
  return ((cols + lanes - 1) / lanes) * lanes;
}

/// Leading dimension for the default (fp64) element type.
constexpr idx_t padded_cols(idx_t cols) {
  return padded_cols_for<val_t>(cols);
}

/// The widths the kernel layer instantiates — the one place the set is
/// written. 40 exists for the paper's default rank 35 (padded_cols(35) ==
/// 40); the remaining widths are the power-of-two sweep of the kernel
/// benches. is_instantiated_width(), dispatch_width() and the MTTKRP
/// kernel table (mttkrp.cpp) are all generated from this list.
inline constexpr std::array<idx_t, 6> kInstantiatedWidths = {4,  8,  16,
                                                             32, 40, 64};

/// True for the widths in kInstantiatedWidths.
constexpr bool is_instantiated_width(idx_t width) {
  for (const idx_t w : kInstantiatedWidths) {
    if (w == width) {
      return true;
    }
  }
  return false;
}

/// The compile-time kernel width serving a runtime rank: the rank itself
/// when instantiated, else the rank's padded width (its row stride) when
/// *that* is instantiated — every input and output row then spans exactly
/// one kernel width with zero-filled padding lanes, so running the wider
/// kernel is exact — else 0 (generic runtime-rank fallback).
/// The map is computed against fp64 padding; fp32 rows pad at least as
/// wide (16-lane lines), so a width valid for the fp64 master is always
/// within its fp32 shadow's row stride too.
constexpr idx_t fixed_width_for(idx_t rank) {
  if (is_instantiated_width(rank)) {
    return rank;
  }
  const idx_t padded = padded_cols(rank);
  return is_instantiated_width(padded) ? padded : 0;
}

namespace detail {
template <typename T>
inline T* assume_line_aligned(T* p) {
  return std::assume_aligned<kCacheLineBytes>(p);
}
}  // namespace detail

/// Nonzeros to run ahead of the gather loops with software prefetch: the
/// factor-row gathers are the latency chain of every CSF kernel (rows are
/// random, typically L2-resident), and the nonzero range of a slice is
/// contiguous, so the upcoming rows' indices are always at hand.
inline constexpr nnz_t kGatherPrefetch = 8;

// ---------------------------------------------------------------------
// Generic runtime-length primitives (any rank, any alignment).
// ---------------------------------------------------------------------

/// dst[i] += a * x[i]
template <typename D, typename S, typename A>
inline void axpy(D* SPTD_RESTRICT dst, const S* SPTD_RESTRICT x, A a,
                 idx_t n) {
  for (idx_t i = 0; i < n; ++i) {
    dst[i] += static_cast<D>(a) * static_cast<D>(x[i]);
  }
}

/// dst[i] += a[i] * b[i]
template <typename D, typename S1, typename S2>
inline void hadamard_accum(D* SPTD_RESTRICT dst, const S1* SPTD_RESTRICT a,
                           const S2* SPTD_RESTRICT b, idx_t n) {
  for (idx_t i = 0; i < n; ++i) {
    dst[i] += static_cast<D>(a[i]) * static_cast<D>(b[i]);
  }
}

/// dst[i] *= a[i] — in-place Hadamard product, the building block of the
/// "product of the other factors' rows" loops in completion solvers.
template <typename D, typename S>
inline void hadamard(D* SPTD_RESTRICT dst, const S* SPTD_RESTRICT a,
                     idx_t n) {
  for (idx_t i = 0; i < n; ++i) {
    dst[i] *= static_cast<D>(a[i]);
  }
}

/// dst[i] = x[i] — row copy (converting when D != S) through the same
/// restrict/width machinery; the sanctioned fp64 -> fp32 shadow-refresh
/// conversion point.
template <typename D, typename S>
inline void copy(D* SPTD_RESTRICT dst, const S* SPTD_RESTRICT x, idx_t n) {
  for (idx_t i = 0; i < n; ++i) {
    dst[i] = static_cast<D>(x[i]);
  }
}

/// sum over i of a[i] * b[i], accumulated in the wider operand type.
template <typename S1, typename S2>
inline auto dot(const S1* SPTD_RESTRICT a, const S2* SPTD_RESTRICT b,
                idx_t n) {
  using A = decltype(S1{} * S2{});
  A acc = 0;
  for (idx_t i = 0; i < n; ++i) {
    acc += static_cast<A>(a[i]) * static_cast<A>(b[i]);
  }
  return acc;
}

/// dst[i] = a * x[i]
template <typename D, typename S, typename A>
inline void scale(D* SPTD_RESTRICT dst, const S* SPTD_RESTRICT x, A a,
                  idx_t n) {
  for (idx_t i = 0; i < n; ++i) {
    dst[i] = static_cast<D>(a) * static_cast<D>(x[i]);
  }
}

/// dst[i] = a[i] * b[i]
template <typename D, typename S1, typename S2>
inline void mul(D* SPTD_RESTRICT dst, const S1* SPTD_RESTRICT a,
                const S2* SPTD_RESTRICT b, idx_t n) {
  for (idx_t i = 0; i < n; ++i) {
    dst[i] = static_cast<D>(a[i]) * static_cast<D>(b[i]);
  }
}

/// dst[i] += x[i]
template <typename D, typename S>
inline void add(D* SPTD_RESTRICT dst, const S* SPTD_RESTRICT x, idx_t n) {
  for (idx_t i = 0; i < n; ++i) {
    dst[i] += static_cast<D>(x[i]);
  }
}

// ---------------------------------------------------------------------
// Fixed-width primitives (compile-time trip count, 64-byte aligned).
// ---------------------------------------------------------------------

/// dst[i] += a * x[i], i < R
template <idx_t R, typename D, typename S, typename A>
inline void axpy_r(D* SPTD_RESTRICT dst, const S* SPTD_RESTRICT x, A a) {
  D* SPTD_RESTRICT d = detail::assume_line_aligned(dst);
  const S* SPTD_RESTRICT s = detail::assume_line_aligned(x);
#pragma omp simd
  for (idx_t i = 0; i < R; ++i) {
    d[i] += static_cast<D>(a) * static_cast<D>(s[i]);
  }
}

/// dst[i] += a[i] * b[i], i < R
template <idx_t R, typename D, typename S1, typename S2>
inline void hadamard_accum_r(D* SPTD_RESTRICT dst,
                             const S1* SPTD_RESTRICT a,
                             const S2* SPTD_RESTRICT b) {
  D* SPTD_RESTRICT d = detail::assume_line_aligned(dst);
  const S1* SPTD_RESTRICT pa = detail::assume_line_aligned(a);
  const S2* SPTD_RESTRICT pb = detail::assume_line_aligned(b);
#pragma omp simd
  for (idx_t i = 0; i < R; ++i) {
    d[i] += static_cast<D>(pa[i]) * static_cast<D>(pb[i]);
  }
}

/// sum over i < R of a[i] * b[i], accumulated in the wider operand type.
template <idx_t R, typename S1, typename S2>
inline auto dot_r(const S1* SPTD_RESTRICT a, const S2* SPTD_RESTRICT b) {
  using A = decltype(S1{} * S2{});
  const S1* SPTD_RESTRICT pa = detail::assume_line_aligned(a);
  const S2* SPTD_RESTRICT pb = detail::assume_line_aligned(b);
  A acc = 0;
#pragma omp simd reduction(+ : acc)
  for (idx_t i = 0; i < R; ++i) {
    acc += static_cast<A>(pa[i]) * static_cast<A>(pb[i]);
  }
  return acc;
}

/// dst[i] = a * x[i], i < R
template <idx_t R, typename D, typename S, typename A>
inline void scale_r(D* SPTD_RESTRICT dst, const S* SPTD_RESTRICT x, A a) {
  D* SPTD_RESTRICT d = detail::assume_line_aligned(dst);
  const S* SPTD_RESTRICT s = detail::assume_line_aligned(x);
#pragma omp simd
  for (idx_t i = 0; i < R; ++i) {
    d[i] = static_cast<D>(a) * static_cast<D>(s[i]);
  }
}

/// dst[i] = a[i] * b[i], i < R
template <idx_t R, typename D, typename S1, typename S2>
inline void mul_r(D* SPTD_RESTRICT dst, const S1* SPTD_RESTRICT a,
                  const S2* SPTD_RESTRICT b) {
  D* SPTD_RESTRICT d = detail::assume_line_aligned(dst);
  const S1* SPTD_RESTRICT pa = detail::assume_line_aligned(a);
  const S2* SPTD_RESTRICT pb = detail::assume_line_aligned(b);
#pragma omp simd
  for (idx_t i = 0; i < R; ++i) {
    d[i] = static_cast<D>(pa[i]) * static_cast<D>(pb[i]);
  }
}

/// dst[i] += x[i], i < R
template <idx_t R, typename D, typename S>
inline void add_r(D* SPTD_RESTRICT dst, const S* SPTD_RESTRICT x) {
  D* SPTD_RESTRICT d = detail::assume_line_aligned(dst);
  const S* SPTD_RESTRICT s = detail::assume_line_aligned(x);
#pragma omp simd
  for (idx_t i = 0; i < R; ++i) {
    d[i] += static_cast<D>(s[i]);
  }
}

/// dst[i] *= a[i], i < R
template <idx_t R, typename D, typename S>
inline void hadamard_r(D* SPTD_RESTRICT dst, const S* SPTD_RESTRICT a) {
  D* SPTD_RESTRICT d = detail::assume_line_aligned(dst);
  const S* SPTD_RESTRICT pa = detail::assume_line_aligned(a);
#pragma omp simd
  for (idx_t i = 0; i < R; ++i) {
    d[i] *= static_cast<D>(pa[i]);
  }
}

/// dst[i] = x[i], i < R (converting copy when D != S)
template <idx_t R, typename D, typename S>
inline void copy_r(D* SPTD_RESTRICT dst, const S* SPTD_RESTRICT x) {
  D* SPTD_RESTRICT d = detail::assume_line_aligned(dst);
  const S* SPTD_RESTRICT s = detail::assume_line_aligned(x);
#pragma omp simd
  for (idx_t i = 0; i < R; ++i) {
    d[i] = static_cast<D>(s[i]);
  }
}

// ---------------------------------------------------------------------
// Width-dispatched row-operation bundle.
// ---------------------------------------------------------------------

/// One set of length-R row primitives behind a compile-time width: W > 0
/// selects the fixed-width instantiations (alignment contract applies,
/// logical rank <= W, padding lanes zero), W == 0 the generic runtime
/// loops. Callers template their hot loop over RowOps<W> and switch once
/// per pass via dispatch_width() instead of branching per element — the
/// completion solvers (ALS / SGD / CCD++ inner loops) are built on this.
/// Factor rows in the completion solvers stay fp64; only the tensor value
/// scalars fed into axpy() widen from the selected precision's stream.
template <idx_t W>
struct RowOps {
  static constexpr bool kFixed = (W > 0);

  static void axpy(val_t* SPTD_RESTRICT dst, const val_t* SPTD_RESTRICT x,
                   val_t a, idx_t n) {
    if constexpr (kFixed) {
      axpy_r<W>(dst, x, a);
    } else {
      kern::axpy(dst, x, a, n);
    }
  }
  static void hadamard_accum(val_t* SPTD_RESTRICT dst,
                             const val_t* SPTD_RESTRICT a,
                             const val_t* SPTD_RESTRICT b, idx_t n) {
    if constexpr (kFixed) {
      hadamard_accum_r<W>(dst, a, b);
    } else {
      kern::hadamard_accum(dst, a, b, n);
    }
  }
  static val_t dot(const val_t* SPTD_RESTRICT a,
                   const val_t* SPTD_RESTRICT b, idx_t n) {
    if constexpr (kFixed) {
      return dot_r<W>(a, b);
    } else {
      return kern::dot(a, b, n);
    }
  }
  static void hadamard(val_t* SPTD_RESTRICT dst,
                       const val_t* SPTD_RESTRICT a, idx_t n) {
    if constexpr (kFixed) {
      hadamard_r<W>(dst, a);
    } else {
      kern::hadamard(dst, a, n);
    }
  }
  static void mul(val_t* SPTD_RESTRICT dst, const val_t* SPTD_RESTRICT a,
                  const val_t* SPTD_RESTRICT b, idx_t n) {
    if constexpr (kFixed) {
      mul_r<W>(dst, a, b);
    } else {
      kern::mul(dst, a, b, n);
    }
  }
  static void scale(val_t* SPTD_RESTRICT dst, const val_t* SPTD_RESTRICT x,
                    val_t a, idx_t n) {
    if constexpr (kFixed) {
      scale_r<W>(dst, x, a);
    } else {
      kern::scale(dst, x, a, n);
    }
  }
  static void copy(val_t* SPTD_RESTRICT dst, const val_t* SPTD_RESTRICT x,
                   idx_t n) {
    if constexpr (kFixed) {
      copy_r<W>(dst, x);
    } else {
      kern::copy(dst, x, n);
    }
  }
};

/// Invokes fn(std::integral_constant<idx_t, W>{}) with W the instantiated
/// width serving \p width (one of kInstantiatedWidths), or W = 0 for the
/// generic fallback. The single runtime switch every RowOps-templated
/// pass performs; \p I walks kInstantiatedWidths and is never passed.
template <std::size_t I = 0, typename Fn>
decltype(auto) dispatch_width(idx_t width, Fn&& fn) {
  if constexpr (I == kInstantiatedWidths.size()) {
    return fn(std::integral_constant<idx_t, 0>{});
  } else {
    constexpr idx_t kW = kInstantiatedWidths[I];
    if (width == kW) {
      return fn(std::integral_constant<idx_t, kW>{});
    }
    return dispatch_width<I + 1>(width, std::forward<Fn>(fn));
  }
}

/// The fused order-2 leaf loop of the CSF MTTKRP with the whole fiber
/// visible to the compiler: cs[r] += vals[x] * F(fids[x], r) for x in
/// [begin, end). With a compile-time R the accumulator row stays in
/// registers across the fiber — this is the single hottest loop of CP-ALS.
///
/// The index streams of every fiber loop below are generic indexables
/// (`Fids fids` with fids[x] -> integer): a raw pointer of any width from
/// a compressed-CSF level view, or a width-erased stream ref. Passing the
/// stored narrow type is what halves the index bandwidth of these loops
/// on compressed tensors. The value stream (`vals`) and factor rows are
/// the StoreT side of the precision axis; the accumulator row `cs` is the
/// AccumT side (products are widened to AccumT before accumulating).
template <idx_t R, typename AccumT, typename S, typename Fids>
inline void fiber_accum_r(AccumT* SPTD_RESTRICT cs,
                          const S* SPTD_RESTRICT vals,
                          Fids fids,
                          nnz_t begin, nnz_t end,
                          const S* SPTD_RESTRICT factor, idx_t ld) {
  AccumT* SPTD_RESTRICT acc = detail::assume_line_aligned(cs);
  for (nnz_t x = begin; x < end; ++x) {
    const S v = vals[x];
    const S* SPTD_RESTRICT row = detail::assume_line_aligned(
        factor + static_cast<std::size_t>(fids[x]) * ld);
#pragma omp simd
    for (idx_t i = 0; i < R; ++i) {
      acc[i] += static_cast<AccumT>(v) * static_cast<AccumT>(row[i]);
    }
  }
}

/// Fused bottom-fiber pull-up with Hadamard deposit:
///   dst[i] += fl[i] * sum over x in [begin, end) of vals[x]*F(fids[x], i).
/// The fiber sum lives in a register block instead of a scratch row, so
/// short fibers (the common case in the paper's datasets) pay no
/// memset / store / reload round trip. AccumT (explicit, defaults to
/// val_t) is the register block's type — the precision axis's accumulator
/// side; it does not appear in a deduced argument position.
/// \p prefetch_horizon bounds how far past `end` the fids array may be
/// read for software prefetch: callers walking a contiguous nonzero range
/// (a whole slice) pass the range's end so gathers run ahead across fiber
/// boundaries; fiber-local callers pass `end`.
template <idx_t R, typename AccumT = val_t, typename D, typename P,
          typename S, typename Fids>
inline void fiber_pullup_hadamard_r(D* SPTD_RESTRICT dst,
                                    const P* SPTD_RESTRICT fl,
                                    const S* SPTD_RESTRICT vals,
                                    Fids fids,
                                    nnz_t begin, nnz_t end,
                                    const S* SPTD_RESTRICT factor,
                                    idx_t ld, nnz_t prefetch_horizon) {
  alignas(kCacheLineBytes) AccumT acc[R] = {};
  for (nnz_t x = begin; x < end; ++x) {
    if (x + kGatherPrefetch < prefetch_horizon) {
      __builtin_prefetch(
          factor +
              static_cast<std::size_t>(fids[x + kGatherPrefetch]) * ld,
          0, 3);
    }
    const S v = vals[x];
    const S* SPTD_RESTRICT row = detail::assume_line_aligned(
        factor + static_cast<std::size_t>(fids[x]) * ld);
#pragma omp simd
    for (idx_t i = 0; i < R; ++i) {
      acc[i] += static_cast<AccumT>(v) * static_cast<AccumT>(row[i]);
    }
  }
  D* SPTD_RESTRICT d = detail::assume_line_aligned(dst);
  const P* SPTD_RESTRICT f = detail::assume_line_aligned(fl);
#pragma omp simd
  for (idx_t i = 0; i < R; ++i) {
    d[i] += static_cast<D>(f[i]) * static_cast<D>(acc[i]);
  }
}

/// Fused third-order root slice: for every child fiber c in [c0, c1),
///   acc[i] += F1(fids1[c], i) * sum_x vals[x]*F2(leaf_fids[x], i),
/// with BOTH accumulators register-blocked in AccumT — the slice
/// accumulator never round-trips through memory between fibers (slices
/// average hundreds of fibers on the paper's tensors, so this is the root
/// kernel's whole inner phase).
template <idx_t R, typename AccumT = val_t, typename D, typename S,
          typename Fids1, typename LeafFids, typename Fptr1>
inline void root_slice3_r(D* SPTD_RESTRICT dst,
                          Fids1 fids1,
                          const S* SPTD_RESTRICT vals,
                          LeafFids leaf_fids,
                          Fptr1 fptr1,
                          nnz_t c0, nnz_t c1,
                          const S* SPTD_RESTRICT f1, idx_t ld1,
                          const S* SPTD_RESTRICT f2, idx_t ld2) {
  alignas(kCacheLineBytes) AccumT acc[R] = {};
  // Prefetch horizon: the slice's nonzeros are contiguous in
  // [fptr1[c0], fptr1[c1]), so rows up to the slice end can be fetched
  // ahead regardless of fiber boundaries.
  const nnz_t x_end = fptr1[c1];
  for (nnz_t c = c0; c < c1; ++c) {
    alignas(kCacheLineBytes) AccumT fiber[R] = {};
    for (nnz_t x = fptr1[c]; x < fptr1[c + 1]; ++x) {
      if (x + kGatherPrefetch < x_end) {
        __builtin_prefetch(
            f2 + static_cast<std::size_t>(leaf_fids[x + kGatherPrefetch]) *
                     ld2,
            0, 3);
      }
      const S v = vals[x];
      const S* SPTD_RESTRICT row = detail::assume_line_aligned(
          f2 + static_cast<std::size_t>(leaf_fids[x]) * ld2);
#pragma omp simd
      for (idx_t i = 0; i < R; ++i) {
        fiber[i] += static_cast<AccumT>(v) * static_cast<AccumT>(row[i]);
      }
    }
    const S* SPTD_RESTRICT row1 = detail::assume_line_aligned(
        f1 + static_cast<std::size_t>(fids1[c]) * ld1);
#pragma omp simd
    for (idx_t i = 0; i < R; ++i) {
      acc[i] += static_cast<AccumT>(row1[i]) * fiber[i];
    }
  }
  D* SPTD_RESTRICT d = detail::assume_line_aligned(dst);
#pragma omp simd
  for (idx_t i = 0; i < R; ++i) {
    d[i] = static_cast<D>(acc[i]);
  }
}

/// Fused bottom-fiber pull-up with path multiply:
///   dst[i] = path[i] * sum over x in [begin, end) of vals[x]*F(fids[x], i).
/// The internal kernel's leaf case, register-blocked like the above.
template <idx_t R, typename AccumT = val_t, typename D, typename P,
          typename S, typename Fids>
inline void fiber_pullup_mul_r(D* SPTD_RESTRICT dst,
                               const P* SPTD_RESTRICT path,
                               const S* SPTD_RESTRICT vals,
                               Fids fids,
                               nnz_t begin, nnz_t end,
                               const S* SPTD_RESTRICT factor,
                               idx_t ld, nnz_t prefetch_horizon) {
  alignas(kCacheLineBytes) AccumT acc[R] = {};
  for (nnz_t x = begin; x < end; ++x) {
    if (x + kGatherPrefetch < prefetch_horizon) {
      __builtin_prefetch(
          factor +
              static_cast<std::size_t>(fids[x + kGatherPrefetch]) * ld,
          0, 3);
    }
    const S v = vals[x];
    const S* SPTD_RESTRICT row = detail::assume_line_aligned(
        factor + static_cast<std::size_t>(fids[x]) * ld);
#pragma omp simd
    for (idx_t i = 0; i < R; ++i) {
      acc[i] += static_cast<AccumT>(v) * static_cast<AccumT>(row[i]);
    }
  }
  D* SPTD_RESTRICT d = detail::assume_line_aligned(dst);
  const P* SPTD_RESTRICT p = detail::assume_line_aligned(path);
#pragma omp simd
  for (idx_t i = 0; i < R; ++i) {
    d[i] = static_cast<D>(p[i]) * static_cast<D>(acc[i]);
  }
}

}  // namespace sptd::la::kern
