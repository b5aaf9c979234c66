/// \file dist_cpals.cpp
/// \brief Distributed CP-ALS driver: tensor partitioning, the replicated
///        ALS loop over a DistTransport, and the transport dispatch.
///
/// The fork launcher lives in launcher.cpp, the shared-memory transport in
/// transport_shm.cpp, rollback selection in recovery.cpp, and the MPI
/// transport (configure-gated) in transport_mpi.cpp; internal.hpp is the
/// seam between them.

#include "dist/dist_cpals.hpp"

#include <array>
#include <csignal>
#include <memory>
#include <optional>

#include "common/error.hpp"
#include "common/log.hpp"
#include "cpd/als_loop.hpp"
#include "csf/csf.hpp"
#include "dist/internal.hpp"
#include "mttkrp/plan.hpp"
#include "parallel/partition.hpp"
#include "parallel/team.hpp"
#include "resilience/context.hpp"

namespace sptd {

CommVolume predict_comm_volume(const dims_t& dims, const dims_t& grid,
                               idx_t rank) {
  const std::size_t order = dims.size();
  SPTD_CHECK(grid.size() == order,
             "predict_comm_volume: grid order mismatch");
  std::uint64_t locales = 1;
  for (const idx_t g : grid) {
    SPTD_CHECK(g >= 1, "predict_comm_volume: grid extents must be >= 1");
    locales *= g;
  }
  CommVolume cv;
  cv.reduce_bytes.assign(order, 0);
  cv.broadcast_bytes.assign(order, 0);
  for (std::size_t m = 0; m < order; ++m) {
    const std::uint64_t layer = locales / grid[m];
    if (layer <= 1) {
      continue;  // the layer is one locale: its rows never leave it
    }
    const std::uint64_t bytes = (layer - 1) *
                                static_cast<std::uint64_t>(dims[m]) *
                                static_cast<std::uint64_t>(rank) *
                                sizeof(val_t);
    cv.reduce_bytes[m] = bytes;
    cv.broadcast_bytes[m] = bytes;
  }
  return cv;
}

namespace {

/// Block boundaries of one mode's index space over grid[mode] locales:
/// grid[m]+1 monotone row indices balanced by slice nonzero count.
std::vector<idx_t> block_boundaries(const SparseTensor& x, int mode,
                                    idx_t parts) {
  const std::vector<nnz_t> wb = weighted_partition(
      slice_nnz_prefix(x.ind(mode), x.dim(mode)), static_cast<int>(parts));
  std::vector<idx_t> bounds(wb.size());
  for (std::size_t p = 0; p < wb.size(); ++p) {
    bounds[p] = static_cast<idx_t>(wb[p]);
  }
  return bounds;
}

}  // namespace

namespace dist {

std::string dist_rank_kind(std::size_t rank) {
  return "dist-rank" + std::to_string(rank);
}

DistPartition partition_tensor(const SparseTensor& x,
                               const DistOptions& options) {
  const int order = x.order();
  DistPartition part;
  part.nlocales = 1;
  for (const idx_t g : options.grid) {
    part.nlocales *= g;
  }

  // Locale of a nonzero: mixed-radix over per-mode block ids (mode 0
  // slowest). The per-mode row -> block maps make assignment O(order).
  std::vector<std::vector<idx_t>> block_of(static_cast<std::size_t>(order));
  for (int m = 0; m < order; ++m) {
    const idx_t parts = options.grid[static_cast<std::size_t>(m)];
    const std::vector<idx_t> bounds = block_boundaries(x, m, parts);
    auto& map = block_of[static_cast<std::size_t>(m)];
    map.assign(x.dim(m), 0);
    for (idx_t p = 0; p < parts; ++p) {
      for (idx_t i = bounds[p]; i < bounds[static_cast<std::size_t>(p) + 1];
           ++i) {
        map[i] = p;
      }
    }
  }

  part.blocks.reserve(part.nlocales);
  for (std::size_t l = 0; l < part.nlocales; ++l) {
    part.blocks.emplace_back(x.dims());
  }
  std::array<idx_t, kMaxOrder> coord{};
  for (nnz_t n = 0; n < x.nnz(); ++n) {
    std::size_t locale = 0;
    for (int m = 0; m < order; ++m) {
      const idx_t i = x.ind(m)[n];
      coord[static_cast<std::size_t>(m)] = i;
      locale = locale * options.grid[static_cast<std::size_t>(m)] +
               block_of[static_cast<std::size_t>(m)][i];
    }
    part.blocks[locale].push_back(
        {coord.data(), static_cast<std::size_t>(order)}, x.vals()[n]);
  }

  part.locale_nnz.reserve(part.nlocales);
  for (const SparseTensor& b : part.blocks) {
    part.locale_nnz.push_back(b.nnz());
  }
  return part;
}

CommVolume comm_after(const DistOptions& options, const dims_t& dims,
                      int iterations) {
  CommVolume cv = predict_comm_volume(dims, options.grid, options.rank);
  const auto n = static_cast<std::uint64_t>(iterations);
  for (std::size_t m = 0; m < dims.size(); ++m) {
    cv.reduce_bytes[m] *= n;
    cv.broadcast_bytes[m] *= n;
  }
  return cv;
}

DistResult run_dist_loop(const LoopConfig& cfg, DistTransport& tr) {
  const DistOptions& options = *cfg.options;
  const dims_t& dims = *cfg.dims;
  DistPartition& part = *cfg.part;
  const int order = static_cast<int>(dims.size());
  const idx_t rank = options.rank;
  const std::size_t nlocales = part.nlocales;

  // Each locale is serial (locale-level parallelism is the process/locale
  // grid itself, not intra-locale threading), with its own CSF set and
  // execution plan.
  MttkrpOptions mopts;
  mopts.nthreads = 1;
  mopts.schedule = options.schedule;
  mopts.chunk_target = options.chunk_target;
  mopts.use_fixed_kernels = options.use_fixed_kernels;
  mopts.csf_layout = options.csf_layout;
  mopts.precision = options.precision;
  mopts.backend = options.backend;
  std::vector<std::unique_ptr<CsfSet>> sets(nlocales);
  std::vector<std::unique_ptr<MttkrpPlan>> plans(nlocales);
  auto build_plan = [&](std::size_t l) {
    sets[l] = std::make_unique<CsfSet>(part.blocks[l], CsfPolicy::kTwoMode,
                                       1, nullptr, SortVariant::kAllOpts,
                                       options.csf_layout);
    plans[l] = std::make_unique<MttkrpPlan>(*sets[l], rank, mopts);
  };
  for (const std::size_t l : cfg.owned) {
    if (part.blocks[l].nnz() == 0) {
      continue;  // empty locale: contributes nothing, moves nothing real
    }
    build_plan(l);
    tr.beat();
  }

  // The ALS iteration is cp_als_csf's, run with one thread and a fixed
  // iteration count; only the MTTKRP below is assembled from locale
  // partials.
  CpalsOptions als_opts;
  als_opts.rank = rank;
  als_opts.max_iterations = options.max_iterations;
  als_opts.tolerance = 0.0;
  als_opts.seed = options.seed;
  als_opts.nthreads = 1;
  als_opts.precision = options.precision;
  als_opts.resilience = options.resilience;
  detail::CpalsLoop als(als_opts, dims, cfg.tensor_norm_sq,
                        cfg.checkpoint_kind);
  ResilienceContext& rctx = als.resilience();

  auto apply_rejoin = [&](const RejoinPoint& rp) {
    if (rp.checkpoint_path.empty() && rp.iteration == 0) {
      // No snapshot existed (checkpointing off or nothing written yet):
      // deterministic reinit from the seed, replay from iteration 0.
      als.reset();
      return;
    }
    try {
      if (std::optional<Checkpoint> ck =
              load_checkpoint_file(rp.checkpoint_path)) {
        SPTD_CHECK(ck->iteration == rp.iteration,
                   "dist rejoin: rollback iteration mismatch");
        als.restore(std::move(*ck));
        log_info("resilience: " + cfg.checkpoint_kind +
                 " rejoined from iteration " + std::to_string(rp.iteration));
        return;
      }
    } catch (const Error& e) {
      log_warn("dist rejoin: rollback checkpoint unusable: " +
               std::string(e.what()));
    }
    // The launcher validated the file before publishing it; losing it
    // here means this rank's view diverged from its peers' — replaying
    // from scratch would desynchronize the collectives, so fail loudly.
    throw Error("dist rejoin: rollback checkpoint " + rp.checkpoint_path +
                " disappeared or failed validation");
  };

  // Adopt the current epoch. shm: returns the launcher's rollback preset
  // after a recovery (and for --resume, preset pre-fork); sim/mpi: none.
  if (std::optional<RejoinPoint> rp = tr.rejoin()) {
    apply_rejoin(*rp);
  } else {
    als.resume();
  }

  // Layer-wise all-reduce of partial MTTKRPs, summed in locale order by
  // the transport (one locale executes straight into the output — nothing
  // moves on any transport).
  auto mttkrp = [&](const std::vector<la::Matrix>& factors, int m,
                    la::Matrix& out) {
    tr.beat();
    if (nlocales == 1) {
      plans[0]->execute(factors, m, out);
      return;
    }
    std::vector<la::Matrix> partial_store;
    partial_store.reserve(cfg.owned.size());
    std::vector<const la::Matrix*> partials(nlocales, nullptr);
    for (const std::size_t l : cfg.owned) {
      if (!plans[l]) continue;
      partial_store.emplace_back(out.rows(), rank);
      plans[l]->execute(factors, m, partial_store.back());
      // Same shape implies the same padded stride; padding lanes are
      // zero, so summing physical buffers is the logical sum.
      partials[l] = &partial_store.back();
    }
    tr.allreduce(static_cast<std::uint64_t>(als.iteration()) *
                         static_cast<std::uint64_t>(order) +
                     static_cast<std::uint64_t>(m),
                 m, partials, out);
  };

  DistResult result;
  result.locale_nnz = part.locale_nnz;
  for (;;) {
    try {
      while (!als.done()) {
        const int it = als.iteration();
        tr.beat();
        if (FaultInjector* inj = rctx.injector()) {
          if (tr.kind() == TransportKind::kShm) {
            // Real rank death: SIGKILL ourselves mid-iteration. The
            // shared-memory token claim is one-shot across respawns, so
            // the victim replaying this iteration after recovery lives.
            for (const std::size_t l : cfg.owned) {
              if (inj->rank_kill_due(l, nlocales, it,
                                     options.max_iterations) &&
                  tr.claim_kill_token()) {
                log_warn("fault: rank-kill of rank " + std::to_string(l) +
                         " at iteration " + std::to_string(it));
                std::raise(SIGKILL);
              }
            }
          } else {
            // A killed locale loses its in-memory CSF set and execution
            // plan — the analogue of a node dropping out of the grid.
            for (const std::size_t l : cfg.owned) {
              if (inj->kill_locale(l, nlocales, it,
                                   options.max_iterations)) {
                sets[l].reset();
                plans[l].reset();
              }
            }
          }
        }
        // Failure detection + restart: a locale that owns nonzeros but has
        // no plan is down. Its block is still resident (the simulated
        // analogue of re-reading the locale's partition from durable
        // storage), so the CSF set and plan rebuild deterministically and
        // the recovered run matches the clean run bitwise.
        for (const std::size_t l : cfg.owned) {
          if (!plans[l] && part.blocks[l].nnz() > 0) {
            build_plan(l);
            ++rctx.counters().locale_restarts;
            log_warn("[resilience] dist: restarted locale " +
                     std::to_string(l) + " at iteration " +
                     std::to_string(it));
          }
        }
        als.step(mttkrp);
      }
      result.model = als.model();
      result.fit_history = als.fit_history();
      result.iterations = als.iteration();
      result.comm = comm_after(options, dims, result.iterations);
      rctx.finish(result.resilience);
      if (cfg.on_complete) cfg.on_complete(result);
      tr.finalize();
      return result;
    } catch (const RecoveryInterrupt&) {
      // A peer died; the launcher bumped the epoch and published a
      // rollback point. Adopt it, quiesce with the other survivors and
      // the respawned rank, restore, and replay.
      if (std::optional<RejoinPoint> rp = tr.rejoin()) {
        apply_rejoin(*rp);
      } else {
        als.reset();
      }
    }
  }
}

}  // namespace dist

DistResult dist_cp_als(const SparseTensor& x, const DistOptions& options) {
  const int order = x.order();
  SPTD_CHECK(x.nnz() > 0, "dist_cp_als: empty tensor");
  SPTD_CHECK(static_cast<int>(options.grid.size()) == order,
             "dist_cp_als: grid must have one extent per mode");
  for (int m = 0; m < order; ++m) {
    const idx_t g = options.grid[static_cast<std::size_t>(m)];
    SPTD_CHECK(g >= 1 && g <= x.dim(m),
               "dist_cp_als: grid extent out of [1, dims[m]]");
  }
  SPTD_CHECK(options.rank >= 1, "dist_cp_als: rank must be >= 1");
  SPTD_CHECK(options.max_iterations >= 1,
             "dist_cp_als: need >= 1 iteration");
  if (options.transport == TransportKind::kMpi) {
    SPTD_CHECK(mpi_transport_available(),
               "dist_cp_als: this build has no MPI transport (configure "
               "with MPI available)");
  }
  set_parallel_backend(options.backend);

  dist::DistPartition part = dist::partition_tensor(x, options);

  switch (options.transport) {
    case TransportKind::kShm:
      return dist::run_shm_dist(x, options, part);
    case TransportKind::kMpi:
#ifdef SPTD_HAVE_MPI
      return dist::run_mpi_dist(x, options, part);
#else
      throw Error("dist_cp_als: MPI transport not built");  // unreachable
#endif
    case TransportKind::kSim:
      break;
  }

  dist::SimTransport tr(part.nlocales);
  dist::LoopConfig cfg;
  cfg.options = &options;
  cfg.dims = &x.dims();
  cfg.tensor_norm_sq = x.norm_sq();
  cfg.part = &part;
  cfg.owned.resize(part.nlocales);
  for (std::size_t l = 0; l < part.nlocales; ++l) {
    cfg.owned[l] = l;
  }
  return dist::run_dist_loop(cfg, tr);
}

}  // namespace sptd
