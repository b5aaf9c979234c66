/// \file solver_als.cpp
/// \brief Alternating least squares for tensor completion.
///
/// One ALS pass over mode m updates every row i independently:
///   (Σ_{x ∈ slice i} c_x c_x^T + λI) a_i = Σ_{x ∈ slice i} X_x c_x
/// where c_x is the Hadamard product of the other factors' rows at x.
/// Rows are independent, so the pass parallelizes over the cached
/// per-mode `SliceSchedule` with no locks, and the length-R inner loops
/// (Hadamard build-up, rhs/normal accumulation) run through the
/// rank-specialized `RowOps<W>` primitives: the normal matrix is
/// assembled with full-row `axpy` deposits — symmetric by construction,
/// no mirror pass — which vectorizes where the seed's triangular scalar
/// loop could not.

#include <algorithm>
#include <atomic>

#include "completion/solver.hpp"
#include "la/cholesky.hpp"
#include "la/kernels.hpp"
#include "parallel/team.hpp"

namespace sptd {
namespace {

namespace kern = la::kern;

/// \p vals is the mode's grouped value stream — fp64 under f64 precision,
/// the workspace's fp32 copy under f32/mixed; each value widens to val_t
/// at the read, so the normal equations accumulate fp64 regardless.
template <idx_t W, typename StoreT>
void als_update_mode(CompletionWorkspace& ws, int mode,
                     const StoreT* SPTD_RESTRICT vals,
                     std::vector<la::Matrix>& factors,
                     std::vector<la::Matrix>& normals,
                     std::vector<la::Matrix>& rhs,
                     std::atomic<std::uint64_t>& bumps) {
  using Ops = kern::RowOps<W>;
  const ModeSlices& ms = ws.mode_slices(mode);
  const SparseTensor& t = ms.grouped;
  const int order = t.order();
  const idx_t rank = factors[0].cols();
  const auto reg = static_cast<val_t>(ws.options().regularization);
  la::Matrix& target = factors[static_cast<std::size_t>(mode)];

  ms.schedule.reset();
  parallel_region(ws.nthreads(), [&](int tid, int) {
    la::Matrix& scratch = ws.scratch(tid);
    val_t* SPTD_RESTRICT c = scratch.row_ptr(0);
    val_t* SPTD_RESTRICT b = scratch.row_ptr(1);
    la::Matrix& normal = normals[static_cast<std::size_t>(tid)];
    la::Matrix& solution = rhs[static_cast<std::size_t>(tid)];
    std::uint64_t thread_bumps = 0;

    const auto update_row = [&](idx_t i) {
      const nnz_t lo = ms.slice_ptr[i];
      const nnz_t hi = ms.slice_ptr[static_cast<std::size_t>(i) + 1];
      if (lo == hi) {
        return;  // unobserved row keeps its current value
      }
      normal.fill(val_t{0});
      std::fill_n(b, rank, val_t{0});
      for (nnz_t x = lo; x < hi; ++x) {
        // c = Hadamard of the other factors' rows.
        bool first = true;
        for (int m = 0; m < order; ++m) {
          if (m == mode) continue;
          const val_t* row =
              factors[static_cast<std::size_t>(m)].row_ptr(t.ind(m)[x]);
          if (first) {
            Ops::copy(c, row, rank);
            first = false;
          } else {
            Ops::hadamard(c, row, rank);
          }
        }
        Ops::axpy(b, c, static_cast<val_t>(vals[x]), rank);
        // Full-row deposits build the whole symmetric normal matrix in
        // one vectorized sweep (padding lanes of c are zero, so the
        // padded columns of `normal` stay zero).
        for (idx_t r = 0; r < rank; ++r) {
          Ops::axpy(normal.row_ptr(r), c, c[r], rank);
        }
      }
      for (idx_t r = 0; r < rank; ++r) {
        normal(r, r) += reg;
      }
      Ops::copy(solution.row_ptr(0), b, rank);
      thread_bumps += static_cast<std::uint64_t>(
          la::solve_normal_equations(normal, solution, 1));
      Ops::copy(target.row_ptr(i), solution.row_ptr(0), rank);
    };

    ms.schedule.for_ranges(tid, [&](nnz_t begin, nnz_t end) {
      for (nnz_t i = begin; i < end; ++i) {
        update_row(static_cast<idx_t>(i));
      }
    });
    bumps.fetch_add(thread_bumps, std::memory_order_relaxed);
  });
}

class AlsSolver final : public CompletionSolver {
 public:
  explicit AlsSolver(CompletionWorkspace& ws) : ws_(ws) {
    const idx_t rank = ws.options().rank;
    normals_.reserve(static_cast<std::size_t>(ws.nthreads()));
    rhs_.reserve(static_cast<std::size_t>(ws.nthreads()));
    for (int t = 0; t < ws.nthreads(); ++t) {
      normals_.emplace_back(rank, rank);
      rhs_.emplace_back(1, rank);
    }
  }

  [[nodiscard]] const char* name() const override { return "als"; }

  std::uint64_t run_epoch(KruskalModel& model, int /*epoch*/) override {
    std::atomic<std::uint64_t> bumps{0};
    const bool narrow = ws_.options().precision != Precision::kF64;
    for (int m = 0; m < ws_.order(); ++m) {
      const ModeSlices& ms = ws_.mode_slices(m);
      kern::dispatch_width(ws_.kernel_width(), [&](auto wc) {
        if (narrow) {
          als_update_mode<decltype(wc)::value>(
              ws_, m, ms.vals_f32.data(), model.factors, normals_, rhs_,
              bumps);
        } else {
          als_update_mode<decltype(wc)::value>(
              ws_, m, ms.grouped.vals().data(), model.factors, normals_,
              rhs_, bumps);
        }
      });
    }
    return bumps.load();
  }

 private:
  CompletionWorkspace& ws_;
  std::vector<la::Matrix> normals_;  ///< per-thread R×R normal equations
  std::vector<la::Matrix> rhs_;      ///< per-thread 1×R solve buffer
};

}  // namespace

namespace detail {

std::unique_ptr<CompletionSolver> make_als_solver(CompletionWorkspace& ws) {
  return std::make_unique<AlsSolver>(ws);
}

}  // namespace detail
}  // namespace sptd
