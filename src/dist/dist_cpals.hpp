#pragma once
/// \file dist_cpals.hpp
/// \brief Simulated medium-grained distributed CP-ALS — the paper's stated
///        future work (Section VI), runnable on one machine.
///
/// SPLATT's medium-grained distributed algorithm (Smith & Karypis, IPDPS
/// 2016) lays an N-dimensional grid of "locales" over the tensor: locale
/// (g_0, ..., g_{N-1}) owns the nonzeros whose mode-m coordinates fall in
/// the g_m-th block of mode m. A mode-m MTTKRP then needs communication
/// only within mode-m "layers" (locales sharing g_m): each layer reduces
/// its partial MTTKRP rows and broadcasts the updated factor rows back.
///
/// The driver runs the algorithm over a pluggable communication seam
/// (dist/transport.hpp): every rank executes the identical replicated ALS
/// loop and only the locale-order all-reduce of MTTKRP partials is
/// transport-specific. `--transport sim` (the default) keeps the original
/// in-process byte-accounting simulation — the tensor is really
/// partitioned per locale (each with its own CSF set and execution plan)
/// and every inter-locale transfer the real algorithm would make is
/// accounted in bytes, so grid-shape trade-offs (the 1-D vs N-D volume
/// gap) are measurable without a cluster. `--transport shm` forks one real
/// process per locale over a shared-memory ring (heartbeat death
/// detection, SIGKILL recovery from checkpoint); `--transport mpi` runs
/// one MPI rank per locale when built with MPI. All transports sum in
/// locale order, so fits match across transports bitwise at f64 with one
/// thread per locale. The ALS iteration itself is cp_als_csf's
/// (cpd/als_loop.hpp), so one locale matches the shared-memory driver
/// exactly at every precision.

#include <vector>

#include "common/precision.hpp"
#include "common/types.hpp"
#include "cpd/kruskal.hpp"
#include "csf/csf.hpp"
#include "dist/transport.hpp"
#include "parallel/backend.hpp"
#include "parallel/schedule.hpp"
#include "resilience/resilience.hpp"
#include "tensor/coo.hpp"

namespace sptd {

/// Knobs of a simulated distributed run.
struct DistOptions {
  /// Locale grid, one extent per tensor mode (e.g. {2, 2, 2} = 8 locales).
  dims_t grid;
  idx_t rank = 10;
  int max_iterations = 10;
  std::uint64_t seed = 23;  ///< factor initialization seed (as CP-ALS)
  /// Slice scheduling inside each locale's MTTKRP plan
  /// (weighted | workstealing).
  SchedulePolicy schedule = SchedulePolicy::kWeighted;
  /// Workstealing claims-per-thread target inside each locale's
  /// plan (MttkrpOptions::chunk_target).
  int chunk_target = 16;
  /// Rank-specialized SIMD inner loops inside each locale's plan
  /// (MttkrpOptions::use_fixed_kernels).
  bool use_fixed_kernels = true;
  /// CSF index-stream widths of each locale's representations
  /// (compressed = narrowest per level; wide = u32/u64 baseline).
  CsfLayout csf_layout = CsfLayout::kCompressed;
  /// Value-stream precision, applied as in cp_als: each locale's MTTKRP
  /// plan streams at this precision (MttkrpOptions::precision), and f32
  /// also rounds every updated factor through fp32. The reductions,
  /// solves, and fit always run fp64.
  Precision precision = Precision::kF64;
  /// Parallel backend (parallel/backend.hpp): omp (default) or pool.
  /// Applied process-wide by the dist driver via set_parallel_backend()
  /// before locale plans are built; defaults from SPTD_BACKEND. Under the
  /// shm transport each forked locale is strictly single-threaded (the
  /// runtime is never initialized in children — fork and thread pools
  /// don't mix).
  ParallelBackendKind backend = default_parallel_backend();

  /// Communication backend: sim (in-process simulation, the default),
  /// shm (fork-per-locale over a shared-memory ring), or mpi (one MPI
  /// rank per locale; requires an MPI build).
  TransportKind transport = TransportKind::kSim;
  /// Per-operation deadline for shm collective waits, in seconds. A wait
  /// that exhausts its exponential-backoff retries past this bound throws
  /// TransportError. Must cover a respawned rank's CSF rebuild + replay
  /// lag, not just one reduce.
  double comm_deadline_s = 60.0;
  /// Launcher-side rank-death threshold: a child whose heartbeat counter
  /// stalls this long is declared dead and SIGKILLed into recovery.
  double heartbeat_timeout_s = 30.0;

  /// Checkpoint/restart, numeric-health guards, and fault injection
  /// (inert by default). `--inject locale-fail:k` kills locale k's CSF set
  /// and plan at the halfway iteration; the driver detects the dead locale
  /// (owns nonzeros, has no plan) and rebuilds it from its block —
  /// deterministically, so the recovered run matches the clean run bitwise.
  ResilienceOptions resilience;
};

/// Per-mode communication volume of one CP-ALS iteration, in bytes, both
/// collective directions (partial-MTTKRP reduce, factor-row broadcast).
struct CommVolume {
  std::vector<std::uint64_t> reduce_bytes;     ///< one entry per mode
  std::vector<std::uint64_t> broadcast_bytes;  ///< one entry per mode

  [[nodiscard]] std::uint64_t total() const {
    std::uint64_t acc = 0;
    for (const std::uint64_t b : reduce_bytes) acc += b;
    for (const std::uint64_t b : broadcast_bytes) acc += b;
    return acc;
  }
};

/// Result of a simulated distributed run.
struct DistResult {
  KruskalModel model;
  std::vector<double> fit_history;  ///< fit after each iteration
  int iterations = 0;
  std::vector<nnz_t> locale_nnz;    ///< nonzeros owned per locale
  CommVolume comm;                  ///< modeled total bytes, all iterations
  /// Bytes/seconds the transport actually moved/spent per collective
  /// phase. Zero under sim (nothing real moves); under shm/mpi it counts
  /// physical buffers and recovery replay, so it can exceed the model.
  CommMeasured comm_measured;
  /// Checkpoint/recovery activity observed during the run (including
  /// locale_restarts: simulated rebuilds under sim, real respawns under
  /// shm).
  ResilienceCounters resilience;
};

/// Bytes one CP-ALS iteration moves under the medium-grained algorithm:
/// for mode m, every layer of P/grid[m] locales all-reduces dims[m]*rank
/// partial rows and broadcasts the updated rows back, i.e.
/// (P/grid[m] - 1) * dims[m] * rank * sizeof(val_t) bytes per direction
/// (zero when the layer is a single locale).
CommVolume predict_comm_volume(const dims_t& dims, const dims_t& grid,
                               idx_t rank);

/// Runs CP-ALS over a locale grid. \p opts.grid must have one extent per
/// mode, each in [1, dims[m]]. Runs exactly max_iterations iterations;
/// the fit trajectory matches cp_als (1 thread, same seed) up to partial-
/// sum reduction order — bitwise for a single locale, and bitwise across
/// transports for any grid (all transports reduce in locale order).
DistResult dist_cp_als(const SparseTensor& x, const DistOptions& opts);

}  // namespace sptd
