#pragma once
/// \file internal.hpp
/// \brief Internal seams between the dist driver, transports, and the
///        fork launcher. Not part of the public dist_cpals.hpp surface —
///        the pieces the tentpole split dist_cpals.cpp into wire together
///        here.

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "dist/dist_cpals.hpp"
#include "dist/transport.hpp"
#include "tensor/coo.hpp"

namespace sptd::dist {

/// The medium-grained tensor partition: one block per locale of the
/// mixed-radix grid (mode 0 slowest), built once per run — in-process for
/// sim, pre-fork for shm (children inherit their block copy-on-write),
/// identically on every rank for mpi.
struct DistPartition {
  std::size_t nlocales = 1;
  std::vector<SparseTensor> blocks;
  std::vector<nnz_t> locale_nnz;
};

DistPartition partition_tensor(const SparseTensor& x,
                               const DistOptions& options);

/// Everything the replicated ALS loop needs besides the transport. One
/// process runs the loop for the ranks in \p owned: all of them under
/// sim, exactly one under shm (a forked child) and mpi (an MPI rank). The
/// shared ALS core runs with options->rank, max_iterations, seed,
/// precision and resilience, one thread, and no tolerance stop.
struct LoopConfig {
  const DistOptions* options = nullptr;
  const dims_t* dims = nullptr;
  val_t tensor_norm_sq = 0;
  /// Mutable: CsfSet construction sorts each block in place.
  DistPartition* part = nullptr;
  std::vector<std::size_t> owned;
  /// Checkpoint kind: "dist" for sim (one writer), per-rank
  /// "dist-rank<r>" under shm/mpi so concurrent writers never collide.
  std::string checkpoint_kind = "dist";
  /// Invoked with the finished result just before the transport's
  /// completion barrier — the shm rank-0 child ships its result file here.
  std::function<void(const DistResult&)> on_complete;
};

/// The replicated CP-ALS loop over a transport. Every rank runs
/// cp_als_csf's iteration core (cpd/als_loop.hpp) with one thread on
/// identical state, so solve, normalize, f32 rounding, fit, health
/// rollback and checkpoints are the shared-memory driver's own. This
/// function adds only what is distributed: the locale CSF sets and plans,
/// the locale-partial MTTKRP and the transport's locale-order all-reduce,
/// heartbeats, rank-kill / locale-kill injection and locale restart, the
/// comm accounting, and (under shm) the RecoveryInterrupt rejoin.
DistResult run_dist_loop(const LoopConfig& cfg, DistTransport& tr);

/// Modeled comm totals after \p iterations completed iterations. Every
/// iteration moves the same predicted volume, so totals are rebuilt from
/// the count (after rollback, restore, or from a result file) rather than
/// accumulated or serialized.
CommVolume comm_after(const DistOptions& options, const dims_t& dims,
                      int iterations);

/// The in-process byte-accounting simulation (the original dist backend
/// and still the default): all ranks live in one process and the
/// all-reduce is a plain locale-order sum.
class SimTransport final : public DistTransport {
 public:
  explicit SimTransport(std::size_t nranks) : nranks_(nranks) {}

  [[nodiscard]] TransportKind kind() const override {
    return TransportKind::kSim;
  }
  [[nodiscard]] std::size_t nranks() const override { return nranks_; }

  void allreduce(std::uint64_t op, int mode,
                 const std::vector<const la::Matrix*>& partials,
                 la::Matrix& out) override;

 private:
  std::size_t nranks_;
};

/// Fork-per-locale run over the shared-memory ring (launcher.cpp): forks
/// one child per locale, monitors heartbeats and exits, drives
/// kill/respawn recovery, and collects rank 0's result.
DistResult run_shm_dist(const SparseTensor& x, const DistOptions& options,
                        DistPartition& part);

/// One-MPI-rank-per-locale run (transport_mpi.cpp; only linked when
/// find_package(MPI) succeeded — callers gate on
/// mpi_transport_available()).
DistResult run_mpi_dist(const SparseTensor& x, const DistOptions& options,
                        DistPartition& part);

/// Checkpoint kind (and so filename prefix) of one rank's snapshots:
/// "dist-rank<r>" -> files "dist-rank<r>-<iteration>.ckpt".
std::string dist_rank_kind(std::size_t rank);

}  // namespace sptd::dist
