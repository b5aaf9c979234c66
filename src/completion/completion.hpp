#pragma once
/// \file completion.hpp
/// \brief Sparse tensor completion: CP decomposition with missing values,
///        behind a pluggable solver subsystem.
///
/// SPLATT's completion command exposes six optimizers (gd/cg/lbfgs/sgd/
/// ccd/als) behind one interface; this module ports the three that cover
/// the design space — direct row solves (ALS), stochastic first-order
/// updates (SGD), and scalar coordinate descent (CCD++) — as
/// `CompletionSolver` implementations over a shared `CompletionWorkspace`
/// (completion/workspace.hpp). Unlike CP-ALS — which treats unobserved
/// coordinates as zeros — every solver fits ONLY the observed entries:
///
///   min_{A(0..N-1)} Σ_{x ∈ Ω} (X_x - Σ_r Π_m A(m)(x_m, r))² +
///                   λ Σ_m ||A(m)||²_F
///
/// All solvers route their slice/row distribution through the
/// execution-plan layer (`SchedulePolicy` / `SliceSchedule`) and their
/// length-R inner loops through the rank-specialized primitives in
/// la/kernels.hpp (`RowOps<W>` over `dot_r`/`axpy_r`/`hadamard_r`).

#include <string>
#include <vector>

#include "common/precision.hpp"
#include "common/types.hpp"
#include "cpd/kruskal.hpp"
#include "parallel/backend.hpp"
#include "parallel/schedule.hpp"
#include "resilience/resilience.hpp"
#include "tensor/coo.hpp"

namespace sptd {

/// Which completion optimizer runs (the `--alg` flag).
enum class CompletionAlgorithm : int {
  kAls = 0,  ///< alternating least squares: per-row R×R normal equations
  kSgd,      ///< stratified stochastic gradient descent
  kCcd,      ///< CCD++: rank-one column sweeps with residual maintenance
};

/// Parses "als" / "sgd" / "ccd"; throws sptd::Error otherwise.
CompletionAlgorithm parse_completion_algorithm(const std::string& name);

/// Flag/log name of an algorithm.
const char* completion_algorithm_name(CompletionAlgorithm alg);

/// Knobs for tensor completion (all solvers).
struct CompletionOptions {
  idx_t rank = 10;
  /// Which solver runs (`--alg als|sgd|ccd`).
  CompletionAlgorithm algorithm = CompletionAlgorithm::kAls;
  int max_iterations = 50;
  /// Tikhonov regularization on every row's update. Also keeps rows with
  /// very few observations well-posed.
  double regularization = 1e-2;
  /// Stop when validation RMSE fails to improve by this much between
  /// iterations (0 disables; training then runs max_iterations).
  double tolerance = 1e-4;
  /// SGD step size (`--lr`). Ignored by ALS and CCD++.
  double learn_rate = 0.02;
  /// SGD learning-rate decay (`--decay`): epoch e runs at
  /// learn_rate / (1 + decay * e). Ignored by ALS and CCD++.
  double decay = 0.01;
  std::uint64_t seed = 31;
  int nthreads = 1;
  /// Slice scheduling for the per-mode row/column passes (weighted |
  /// workstealing); the schedules are built once per mode in the
  /// workspace and reused across all iterations (reset() per pass
  /// reseeds the work-stealing deques).
  /// SGD stratum boundaries always come from the weighted partition
  /// because stratum ownership must not move at run time.
  SchedulePolicy schedule = SchedulePolicy::kWeighted;
  /// Work-stealing claims-per-thread target (the --chunk flag).
  int chunk_target = static_cast<int>(SliceSchedule::kDefaultChunkTarget);
  /// Route inner loops through the rank-specialized fixed-width kernels
  /// where the rank has one (la/kernels.hpp); false forces the generic
  /// runtime-length loops (the scalar reference path).
  bool use_fixed_kernels = true;
  /// Value-stream precision (common/precision.hpp). f64 is the exact
  /// pre-precision pipeline. f32/mixed read the observed training values
  /// through an fp32 copy (the per-epoch value stream of every solver) —
  /// widened at the read, so errors, gradients, row solves, the CCD++
  /// residual, and all RMSEs still accumulate fp64. f32 additionally
  /// rounds every factor through fp32 after each epoch (the pure-fp32
  /// ablation endpoint mixed is judged against).
  Precision precision = Precision::kF64;
  /// Parallel backend (parallel/backend.hpp): omp (default) or pool.
  /// The completion driver applies this process-wide via
  /// set_parallel_backend() before building the workspace; defaults from
  /// SPTD_BACKEND.
  ParallelBackendKind backend = default_parallel_backend();

  /// Checkpoint/restart, numeric-health guards, and fault injection
  /// (inert by default). Checkpoints carry the best-validation model and
  /// the CCD++ residual, so resume reproduces the uninterrupted run
  /// bitwise for every solver.
  ResilienceOptions resilience;
};

/// Result of a completion run.
struct CompletionResult {
  /// The returned model: when a validation set was given, the factors are
  /// restored from the iteration with the *best* validation RMSE (SPLATT's
  /// best-model behavior), not the last iteration's.
  KruskalModel model;
  std::vector<double> train_rmse;  ///< per-iteration RMSE on train set
  std::vector<double> val_rmse;    ///< per-iteration RMSE on val set
                                   ///< (empty when no val set given)
  int iterations = 0;              ///< iterations actually run
  /// 1-based iteration whose factors `model` holds: argmin of val_rmse
  /// when validation was given, else the last iteration.
  int best_iteration = 0;
  /// Checkpoint/recovery activity observed during the run.
  ResilienceCounters resilience;
};

/// Root-mean-square error of the model on a set of observed entries.
/// \p use_fixed_kernels routes the per-entry prediction loop through the
/// rank-specialized primitives (false = the scalar reference loops, the
/// same escape hatch as CompletionOptions::use_fixed_kernels).
double rmse(const SparseTensor& observed, const KruskalModel& model,
            int nthreads, bool use_fixed_kernels = true);

/// Runs tensor completion on the observed entries of \p train with the
/// solver named by options.algorithm.
/// \p validation may be empty (pass nullptr) — then no early stopping and
/// the last iteration's factors are returned.
CompletionResult complete_tensor(const SparseTensor& train,
                                 const SparseTensor* validation,
                                 const CompletionOptions& options);

/// Randomly splits a tensor's nonzeros into train/holdout parts
/// (holdout_fraction in (0,1)). Deterministic in the seed. Both outputs
/// keep the input's dims, so indices stay comparable. The split is
/// slice-aware: every slice of every mode that is nonempty in \p t keeps
/// at least one *training* entry (a random holdout that would orphan a
/// slice is repaired by returning its first entry to the train side), so
/// no row of any factor is ever determined purely by regularization.
std::pair<SparseTensor, SparseTensor> split_train_test(
    const SparseTensor& t, double holdout_fraction, std::uint64_t seed);

}  // namespace sptd
