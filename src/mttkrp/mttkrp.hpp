#pragma once
/// \file mttkrp.hpp
/// \brief MTTKRP — the matricized tensor times Khatri-Rao product, the
///        critical kernel of CP-ALS (lines 5/8/11 of Algorithm 1).
///
/// Given a tensor X and factor matrices A(0..N-1), the mode-m MTTKRP is
///   M(i, r) = sum over nonzeros X(c) with c[m] == i of
///             X(c) * prod_{n != m} A(n)(c[n], r).
///
/// SPLATT evaluates it over CSF trees with three kernels selected by the
/// output mode's tree level:
///   * root     — each tree writes a distinct output row: no synchronization
///   * internal — conflicting writes: mutex pool or privatized buffers
///   * leaf     — conflicting writes at the deepest level: same choice
///
/// The privatize-or-lock decision compares the rows each path touches,
/// counted from the CSF itself. For a mode at tree level L > 0 on T > 1
/// threads, privatization zeroes T replicas of the dims[m] output rows and
/// the reduction reads them back once more: (T + 1) * dims[m] rows. The
/// locked path takes one lock and deposits one row per fiber at level L:
/// nfibers(L) rows, where the leaf level counts one per nonzero. Rank and
/// value width scale both sides alike, so the rule is
///   privatize iff (T + 1) * dims[m] <= kPrivatizeFiberFactor * nfibers(L).
/// It also bounds the privatized bank: T * dims[m] rows stay below
/// kPrivatizeFiberFactor * nfibers(L) <= kPrivatizeFiberFactor * nnz rows.
///
/// Setting MttkrpOptions::privatization_threshold selects SPLATT's
/// heuristic instead: privatize iff dims[m] * T <= threshold * nnz. At
/// SPLATT's 0.02 that is what makes the paper's YELP runs lock beyond 2
/// threads while NELL-2 never locks (Section V-D2); the paper-figure
/// benches set it.

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/aligned.hpp"
#include "common/precision.hpp"
#include "common/types.hpp"
#include "csf/csf.hpp"
#include "la/kernels.hpp"
#include "la/matrix.hpp"
#include "mttkrp/row_access.hpp"
#include "parallel/backend.hpp"
#include "parallel/locks.hpp"
#include "parallel/reduce.hpp"
#include "parallel/schedule.hpp"

namespace sptd {

/// How a kernel synchronizes conflicting output-row writes.
enum class SyncStrategy : int {
  kNone = 0,    ///< no conflicts possible (root kernel or 1 thread)
  kLock,        ///< mutex pool keyed by output row
  kPrivatize,   ///< per-thread output copies + reduction
};

/// Name for logs/benches: "none" / "lock" / "privatize".
const char* sync_strategy_name(SyncStrategy s);

/// MTTKRP tuning knobs (the paper's studied axes).
struct MttkrpOptions {
  int nthreads = 1;
  RowAccess row_access = RowAccess::kPointer;
  LockKind lock_kind = LockKind::kOmp;
  /// How kernel slice loops are distributed over the team (the tasking
  /// axis the paper studies); weighted is SPLATT's nnz-balanced blocking,
  /// workstealing adds per-thread deques on top of the weighted seed.
  SchedulePolicy schedule = SchedulePolicy::kWeighted;
  /// Unset (the default): privatize by the fiber-count rule in the file
  /// header. Set: SPLATT's heuristic, privatize mode m iff
  /// dims[m] * nthreads <= *privatization_threshold * nnz (SPLATT and the
  /// paper figures use 0.02).
  std::optional<double> privatization_threshold;
  /// Force lock use even where privatization would be chosen (Figure 4
  /// sweeps lock kinds and needs the locked path exercised).
  bool force_locks = false;
  /// Disable privatization AND locks is invalid; disabling privatization
  /// alone falls back to locks.
  bool allow_privatization = true;
  /// Workstealing steal granularity: each thread's seeded block is cut
  /// into up to chunk_target chunks (claims). Larger targets mean
  /// finer chunks (better skew smoothing, more claim traffic). Exposed as
  /// --chunk on the CLI and benches.
  int chunk_target = 16;
  /// Dispatch rank-specialized SIMD inner loops (la/kernels.hpp) when the
  /// rank has a compile-time instantiation and the row-access policy is
  /// pointer. Disable to force the generic runtime-rank loops — the
  /// baseline the kernel benches compare against.
  bool use_fixed_kernels = true;
  /// CSF index-stream widths for the representations this run builds
  /// (compressed = narrowest per level, the default; wide = the fixed
  /// u32/u64 baseline). The kernels themselves read the widths off each
  /// CsfTensor, so this knob matters to whoever constructs the CsfSet —
  /// cp_als, tucker_hooi, the benches — and is recorded in bench JSON.
  CsfLayout csf_layout = CsfLayout::kCompressed;
  /// Value-stream precision (common/precision.hpp): f64 runs the exact
  /// pre-precision code paths; f32/mixed stream fp32 factor-row shadows
  /// and an fp32 copy of the CSF values, with fp32 (f32) or fp64 (mixed)
  /// register accumulation. Applies to the pointer row-access kernels —
  /// the production path; the slice/2d ablation policies always run f64
  /// (they exist to measure access idioms, not bandwidth). The output
  /// matrix is fp64 under every precision (deposits widen).
  Precision precision = Precision::kF64;
  /// Which parallel backend executes the team regions (parallel/
  /// backend.hpp): omp (the default; behavior-identical to the
  /// pre-backend tree) or pool (persistent worker threads that compose
  /// across concurrent decompositions in one process). Applied
  /// process-wide via set_parallel_backend() by the MttkrpWorkspace
  /// constructor, before it builds its lock pool, and by the drivers.
  /// Defaults from the SPTD_BACKEND environment variable.
  ParallelBackendKind backend = default_parallel_backend();
};

/// The compile-time kernel width an MTTKRP plan will select for \p rank
/// under \p opts: la::kern::fixed_width_for(rank) — the rank itself when
/// it is in la::kern::kInstantiatedWidths, the rank's padded row stride
/// when *that* width is (rank 35, the paper's default, runs the R=40
/// kernels over its zero-filled padding lanes) — provided the row access
/// is pointer and specialization is not disabled; else 0 (generic
/// runtime-rank loops).
idx_t selected_kernel_width(idx_t rank, const MttkrpOptions& opts);

/// The factor k of the default sync rule: privatize iff
/// (T + 1) * dims[m] <= k * nfibers(L). Fixed from a lock-vs-privatize
/// crossover sweep (README, "Sync strategy"): f64 turns over near 0.5,
/// mixed near 1.2, and a miss costs f64 far more.
inline constexpr double kPrivatizeFiberFactor = 0.5;

/// Decides the sync strategy for an MTTKRP writing \p out_mode at tree
/// level \p level of a CSF with \p nnz nonzeros and \p level_fibers
/// fibers at that level (nnz at the leaf): the fiber-count rule, or
/// SPLATT's heuristic when opts.privatization_threshold is set.
SyncStrategy choose_sync_strategy(const dims_t& dims, int out_mode, int level,
                                  nnz_t nnz, nnz_t level_fibers,
                                  const MttkrpOptions& opts);

/// Process-wide count of choose_sync_strategy() calls (monotonic). Like
/// weighted_partition_calls(): strategy choice is plan-construction work,
/// and tests assert the ALS hot loop performs none of it.
std::uint64_t choose_sync_strategy_calls();

/// Reusable scratch for MTTKRP calls: per-thread accumulators, the mutex
/// pool, and (lazily) privatized output buffers. Thread-count and rank are
/// fixed at construction; privatized buffers grow to the largest mode used.
class MttkrpWorkspace {
 public:
  MttkrpWorkspace(const MttkrpOptions& opts, idx_t rank, int order);

  [[nodiscard]] const MttkrpOptions& options() const { return opts_; }
  [[nodiscard]] idx_t rank() const { return rank_; }

  /// Stride (in values) of every length-rank scratch row and of the
  /// privatized buffers: rank rounded up to a cache line, matching
  /// la::Matrix::ld() for a rank-column matrix.
  [[nodiscard]] idx_t rank_stride() const {
    return static_cast<idx_t>(slot_stride_);
  }

  /// Per-thread scratch row (length rank). Slots 0..order-1 hold path
  /// products, order..2*order-1 children sums, and two extra scratch rows
  /// follow; kernels address them through the slot helpers in mttkrp.cpp.
  [[nodiscard]] val_t* accum(int tid, int slot);

  /// The same scratch row reinterpreted at the kernel's accumulator type:
  /// slot bases are 64-byte aligned and rank_stride() doubles hold at
  /// least rank_stride() lanes of any narrower type, so the fp32 kernels
  /// address the identical storage as float rows.
  template <typename A>
  [[nodiscard]] A* accum_as(int tid, int slot) {
    return reinterpret_cast<A*>(accum(tid, slot));
  }

  /// fp32 shadows of the factor matrices for the f32/mixed kernels, one
  /// per mode, refreshed (converted from the fp64 masters) at each launch
  /// of an fp32-stream kernel for every mode the kernel reads. Entry \p mode
  /// may be stale for the launch's output mode — kernels never read the
  /// output mode's factor.
  std::vector<la::MatrixT<float>>& factor_shadows() { return shadows_; }

  /// The lock pool (constructed with options().lock_kind).
  [[nodiscard]] AnyMutexPool& pool() { return pool_; }

  /// Privatized output buffers sized for >= rows*rank values per thread;
  /// reallocated only when a larger mode is requested. The privatized
  /// kernel zeroes the rows*rank_stride() prefix it uses before each launch.
  PrivateBuffers& privatized(idx_t rows);

  /// The strategy chosen by the most recent mttkrp() call (bench
  /// introspection).
  SyncStrategy last_strategy = SyncStrategy::kNone;

 private:
  MttkrpOptions opts_;
  idx_t rank_;
  int order_;
  std::size_t slot_stride_ = 0;       ///< rank rounded up to a cache line
  std::size_t slots_per_thread_ = 0;  ///< 2*order + 2
  aligned_vector<val_t> accum_storage_;
  std::vector<la::MatrixT<float>> shadows_;  ///< f32/mixed factor copies
  AnyMutexPool pool_;
  std::unique_ptr<PrivateBuffers> priv_;
  nnz_t priv_capacity_ = 0;
};

/// Key of one row of the MTTKRP kernel table: the value-stream precision,
/// the compile-time kernel width (0 = generic runtime-rank loops) and the
/// typed index view — the stored byte widths of the leaf fid stream and
/// of the deepest fptr stream, the two per-nonzero streams. A view width
/// pair of (0, 0) names the width-erased view, which serves every pair a
/// precision's typed views do not cover.
struct MttkrpKernelKey {
  Precision precision = Precision::kF64;
  idx_t width = 0;
  int leaf_fid_width = 0;
  int deep_ptr_width = 0;

  bool operator==(const MttkrpKernelKey&) const = default;
};

struct MttkrpModePlan;

/// One instantiated kernel: runs the level- and strategy-appropriate CSF
/// kernel of its (bundle, index view) over a mode plan.
using MttkrpKernelFn = void (*)(const MttkrpModePlan& mp,
                                const std::vector<la::Matrix>& factors,
                                la::Matrix& out, MttkrpWorkspace& ws);

/// Every decision for one output mode's MTTKRP, frozen: the kernel level,
/// the sync strategy, the root-slice schedule, and the kernel itself —
/// looked up once in the kernel table, so execution never re-switches on
/// precision, kernel width or index width. Tests that force a strategy or
/// schedule overwrite those fields of a plan_mode() result.
struct MttkrpModePlan {
  const CsfTensor* csf = nullptr;  ///< representation serving this mode
  int mode = 0;                    ///< output mode
  int level = 0;                   ///< the mode's tree level in csf
  SyncStrategy strategy = SyncStrategy::kNone;
  SliceSchedule slices;            ///< root-slice distribution
  MttkrpKernelKey key;             ///< the kernel table row of `kernel`
  MttkrpKernelFn kernel = nullptr;
};

/// Plans the mode-\p mode MTTKRP over \p csf (which must hold \p mode)
/// at \p rank under \p opts: the sync choice, the slice schedule,
/// and the kernel table row for (precision, selected_kernel_width(),
/// stored index widths). The slice/2d row-access ablations resolve from
/// their own small f64 rows outside the production table, keyed with
/// precision f64 and width 0. Shared by MttkrpPlan and mttkrp_csf().
MttkrpModePlan plan_mode(const CsfTensor& csf, int mode, idx_t rank,
                         const MttkrpOptions& opts);

/// Pure execution of a mode plan into \p out (dims[mode] x rank): checks
/// the shapes, rewinds the slice schedule and calls the frozen kernel.
/// \p ws must have been built for the plan's rank.
void mttkrp_csf_exec(const MttkrpModePlan& mp,
                     const std::vector<la::Matrix>& factors,
                     la::Matrix& out, MttkrpWorkspace& ws);

/// Computes the mode-\p mode MTTKRP over a CSF set into \p out
/// (dims[mode] x rank). Selects representation, kernel level, and sync
/// strategy (choose_sync_strategy()); applies the workspace's row-access
/// policy inside the kernels. \p out is zeroed first.
void mttkrp(const CsfSet& csf_set, const std::vector<la::Matrix>& factors,
            int mode, la::Matrix& out, MttkrpWorkspace& ws);

/// Single-representation entry point used by tests/benches that want to
/// exercise a specific kernel level: computes the MTTKRP for \p mode which
/// must live at some level of \p csf. A one-shot plan_mode() per call —
/// the planless path; hot loops build an MttkrpPlan (mttkrp/plan.hpp)
/// instead.
void mttkrp_csf(const CsfTensor& csf, const std::vector<la::Matrix>& factors,
                int mode, la::Matrix& out, MttkrpWorkspace& ws);

/// Reference COO MTTKRP (no CSF), parallelized over nonzero blocks with a
/// mutex pool. The correctness oracle for mid-size inputs and the
/// "no data structure" baseline.
void mttkrp_coo(const SparseTensor& coo,
                const std::vector<la::Matrix>& factors, int mode,
                la::Matrix& out, const MttkrpOptions& opts);

}  // namespace sptd
