/// \file bench_ablation_oversubscribe.cpp
/// \brief Analogue of the paper's Section V-E (Qthreads vs OpenMP
///        conflicts). Two runtimes cannot fight here — everything is
///        OpenMP — but the *mechanism* the paper isolates is threads of
///        one phase occupying cores the next phase needs. This harness
///        measures that directly: the Inverse routine (Cholesky solves)
///        and the Mat-norm routine run back-to-back after a parallel
///        MTTKRP, with team sizes swept past the hardware core count.
///        Expected shape: times flat (or improving) up to the core count,
///        degrading beyond it — the paper's observation that the 36-core
///        box went bad once Qthreads workers + OpenMP threads exceeded
///        the cores.
///
///        --concurrent N adds the scenario the pool backend exists for:
///        N whole CP-ALS runs sharing one process, each asking for a full
///        hardware-sized team. Under --backend omp every run's regions
///        wake a private libgomp team (N x T threads on T cores — the
///        in-process flavour of the paper's two-runtime conflict); under
///        --backend pool every region multiplexes onto the one persistent
///        worker pool, so the box never oversubscribes. The recorded
///        wall seconds (start of first run to last join) is what ci.sh
///        gates pool-vs-omp composition on.

#include <algorithm>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace sptd;
  using namespace sptd::bench;

  Options cli("bench_ablation_oversubscribe",
              "phase interference under thread oversubscription");
  add_common_flags(cli, "yelp", "0.01", "5", "1,2,4,8,16,32");
  cli.add("concurrent", "0",
          "run N whole CP-ALS decompositions concurrently in this process "
          "(0 = skip); the composition scenario the pool backend targets");
  if (!cli.parse(argc, argv)) {
    return 0;
  }

  std::printf("== Ablation: oversubscription (Section V-E analogue) ==\n");
  std::printf("# hardware threads: %d\n", hardware_threads());
  SparseTensor x = make_dataset(cli.get_string("preset"),
                                cli.get_double("scale"),
                                static_cast<std::uint64_t>(
                                    cli.get_int("seed")));
  const auto rank = static_cast<idx_t>(cli.get_int("rank"));
  const int iters = static_cast<int>(cli.get_int("iters"));
  const auto factors = make_factors(x, rank, 7);
  const CsfSet set(x, CsfPolicy::kTwoMode, hardware_threads(), nullptr,
                   SortVariant::kAllOpts, csf_layout_flag(cli));
  const auto threads = cli.get_int_list("threads-list");

  // Fixed-size inverse problem (rank x rank normal equations over the
  // largest mode's rows), like one CP-ALS inverse step at rank 35.
  idx_t max_dim = 0;
  for (int m = 0; m < x.order(); ++m) {
    max_dim = std::max(max_dim, x.dim(m));
  }
  Rng rng(9);
  la::Matrix a = la::Matrix::random(static_cast<idx_t>(rank) + 5, rank,
                                    rng);
  la::Matrix spd(rank, rank);
  la::ata(a, spd, 1);
  for (idx_t i = 0; i < rank; ++i) {
    spd(i, i) += rank;
  }
  const la::Matrix rhs = la::Matrix::random(max_dim, rank, rng);

  std::printf("# per-phase seconds: MTTKRP sweep x%d, then INVERSE x%d, "
              "then MAT NORM x%d\n", iters, iters, iters);
  std::printf("%8s %12s %12s %12s\n", "threads", "mttkrp", "inverse",
              "matnorm");
  for (const int t : threads) {
    MttkrpOptions mo;
    mo.nthreads = t;
    apply_kernel_flags(cli, mo);
    const double mttkrp_s =
        time_mttkrp_sweeps(set, factors, rank, mo, iters);

    WallTimer inv;
    inv.start();
    for (int i = 0; i < iters; ++i) {
      la::Matrix m = rhs;
      la::solve_normal_equations(spd, m, t);
    }
    inv.stop();

    la::Matrix norm_target = rhs;
    std::vector<val_t> lambda(rank);
    WallTimer nrm;
    nrm.start();
    for (int i = 0; i < iters; ++i) {
      la::normalize_columns(norm_target, lambda, la::MatNorm::kMax, t);
    }
    nrm.stop();

    std::printf("%8d %12.4f %12.4f %12.4f\n", t, mttkrp_s, inv.seconds(),
                nrm.seconds());
    std::fflush(stdout);
    emit_json_record(cli, "ablation_oversubscribe",
                     bench::JsonRecord()
                         .field("config", "phases")
                         .field("threads", std::int64_t{t})
                         .field("MTTKRP", mttkrp_s)
                         .field("INVERSE", inv.seconds())
                         .field("MAT NORM", nrm.seconds()));
  }

  // Composition scenario: N whole decompositions share the process, each
  // asking for a hardware-sized team. omp wakes N private libgomp teams
  // (the in-process analogue of the paper's Qthreads-vs-OpenMP conflict);
  // pool multiplexes every region onto the one persistent worker set.
  const int concurrent = static_cast<int>(cli.get_int("concurrent"));
  if (concurrent >= 1) {
    // Per-run team = the sweep's largest team, floored at 2: a team of
    // one takes the inline shortcut on every backend and launches
    // nothing, so on a 1-core box the scenario would measure no team
    // machinery at all. With >= 2 the omp path wakes concurrent * team
    // threads while pool multiplexes them onto its fixed worker set —
    // the larger the requested teams, the starker the gap.
    const int team =
        std::max(2, *std::max_element(threads.begin(), threads.end()));
    CpalsOptions co;
    co.rank = rank;
    co.max_iterations = iters;
    co.tolerance = 0.0;
    co.nthreads = team;
    // Pinned to the locked deposits this scenario has always measured:
    // concurrent runs contending on each backend's locks.
    co.force_locks = true;
    apply_kernel_flags(cli, co);

    // Private tensor copies built before the clock starts: the measured
    // window is decomposition work (sort/CSF build + iterations), the
    // same under either backend.
    std::vector<SparseTensor> copies(static_cast<std::size_t>(concurrent),
                                     x);
    WallTimer wall;
    wall.start();
    std::vector<std::thread> runs;
    runs.reserve(static_cast<std::size_t>(concurrent));
    for (int r = 0; r < concurrent; ++r) {
      runs.emplace_back([&, r] {
        cp_als(copies[static_cast<std::size_t>(r)], co);
      });
    }
    for (std::thread& r : runs) {
      r.join();
    }
    wall.stop();

    const std::string config =
        "concurrent-" + std::to_string(concurrent);
    std::printf("# %d concurrent CP-ALS runs x %d threads each "
                "(backend %s): %.4f s wall\n",
                concurrent, team, parallel_backend_name(co.backend),
                wall.seconds());
    std::fflush(stdout);
    emit_json_record(cli, "ablation_oversubscribe",
                     bench::JsonRecord()
                         .field("config", config)
                         .field("threads", std::int64_t{team})
                         .field("seconds", wall.seconds()));
  }
  return 0;
}
