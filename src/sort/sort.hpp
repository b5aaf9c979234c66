#pragma once
/// \file sort.hpp
/// \brief Nonzero sorting for CSF construction, on two paths.
///
///  * Production (stable_sort_perm / stable_counting_pass): an LSD radix
///    sort of stable parallel counting passes, one per mode, least
///    significant first. CsfSet takes this path; because every
///    csf_mode_order() is its root followed by the ascending order, each
///    representation after the first costs one more pass.
///  * Figure 1 ablation (sort_tensor / sort_tensor_perm): SPLATT's parallel
///    counting sort on the primary mode followed by per-slice quicksort on
///    the remaining modes, in the paper's four variants. CsfSet takes this
///    path only for the three non-reference variants (`--impl
///    chapel-initial`); bench_fig1_sort times it directly.
///
/// Both give the same order on duplicate-free input. Duplicate coordinates
/// keep their input order on the production path; the quicksort leaves
/// their order unspecified.
///
/// The ablation reproduces the paper's sorting performance study
/// (Section V-C, Figure 1). The Chapel port's sort was ~8.7x slower than C
/// for two concrete reasons, each individually toggleable here:
///
///  * Per-call temporary array: the recursive quicksort declared a local
///    2-element array each invocation — trivial in C, a heap-managed
///    high-level construct in Chapel (46M allocations on NELL-2).
///    `ArrayOpt` replaces it with scalar locals.
///  * Sub-array reassignment by copy: after the counting-sort pass the C
///    code swaps buffer *pointers*; naive Chapel array assignment deep-
///    copies nnz-length arrays. `SlicesOpt` swaps; the initial code copies.
///
/// Variants: Initial (neither fix), ArrayOpt, SlicesOpt, AllOpts (both,
/// equivalent to the reference C behaviour).

#include <string>

#include "tensor/coo.hpp"

namespace sptd {

/// Which of the paper's sorting optimizations are applied (Figure 1).
enum class SortVariant : int {
  kInitial = 0,  ///< per-call heap pivot array + copy reassignment
  kArrayOpt,     ///< scalar pivots, still copy reassignment
  kSlicesOpt,    ///< per-call heap pivots, pointer-swap reassignment
  kAllOpts,      ///< both optimizations (reference behaviour)
};

/// Parses "initial" / "array-opt" / "slices-opt" / "all-opts".
SortVariant parse_sort_variant(const std::string& name);

/// Figure-legend name of a variant.
const char* sort_variant_name(SortVariant variant);

/// Sorts the tensor's nonzeros lexicographically with \p primary_mode as
/// the most significant key and the remaining modes in cyclic order
/// (SPLATT's tt_sort convention: mode, mode+1, ..., wrapping).
/// Parallelized over \p nthreads.
void sort_tensor(SparseTensor& t, int primary_mode, int nthreads,
                 SortVariant variant = SortVariant::kAllOpts);

/// Sorts by an arbitrary mode permutation (\p perm[0] most significant).
/// CSF construction sorts with csf_mode_order() through this entry point.
/// A pre-scan skips the sort entirely when the nonzeros are already in
/// \p perm order (e.g. re-building a CSF representation over a COO a
/// previous build ordered); sort_fastpath_hits() counts those skips.
void sort_tensor_perm(SparseTensor& t, std::span<const int> perm,
                      int nthreads,
                      SortVariant variant = SortVariant::kAllOpts);

/// One stable counting pass keyed on mode \p key_mode: writes \p src's
/// nonzeros into \p dst in ascending \p key_mode coordinate, ties in \p src
/// order. Each of \p nthreads counts one block_partition block into its own
/// histogram; the histograms are scanned slice-major, thread-minor (so a
/// slice's share from block t lands after blocks < t, which keeps the pass
/// stable), then every thread scatters its block. \p dst is reshaped to
/// \p src's dims and nnz only when they differ, so a scratch tensor passed
/// to every pass is allocated once; \p dst's old contents are never read
/// (the pass writes every entry).
void stable_counting_pass(const SparseTensor& src, SparseTensor& dst,
                          int key_mode, int nthreads);

/// Sorts lexicographically by \p perm (\p perm[0] most significant) with
/// one stable_counting_pass per mode, perm.back() first, ping-ponging
/// between \p t and \p scratch (modes of length 1 are skipped). Shares
/// sort_tensor_perm()'s already-sorted pre-scan and fast-path counter.
/// Duplicate coordinates keep their input order.
void stable_sort_perm(SparseTensor& t, std::span<const int> perm,
                      int nthreads, SparseTensor& scratch);

/// Same, with a scratch tensor of its own.
void stable_sort_perm(SparseTensor& t, std::span<const int> perm,
                      int nthreads);

/// Process-wide count of sort_tensor_perm() / stable_sort_perm() calls
/// that exited through the already-sorted fast path (monotonic, relaxed).
std::uint64_t sort_fastpath_hits();

/// The cyclic mode permutation sort_tensor uses: {m, m+1, ..., m-1}.
std::vector<int> sort_mode_order(int order, int primary_mode);

/// True if the tensor is sorted per sort_tensor(primary_mode).
bool is_sorted(const SparseTensor& t, int primary_mode);

/// True if the tensor is sorted lexicographically by \p perm.
bool is_sorted_perm(const SparseTensor& t, std::span<const int> perm);

}  // namespace sptd
