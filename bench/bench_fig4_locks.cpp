/// \file bench_fig4_locks.cpp
/// \brief Reproduces **Figure 4** (MTTKRP runtime, sync vs atomic vs
///        fifo-sync mutex pools, YELP): the lock-implementation study.
///
/// YELP's shape makes SPLATT's heuristic require locks beyond 2 threads
/// (Section V-D2); this harness forces the locked path at every thread
/// count so the lock cost is isolated, and sweeps the pool implementation:
///   sync       — parked waits (Chapel sync vars under Qthreads)
///   atomic     — test-and-set + yield (the paper's fix, Listing 6)
///   fifo-sync  — ticket spin lock (sync vars under the fifo layer)
///   omp        — omp_lock_t (the reference C code), for context
///
/// Expected shape: sync degrades sharply with threads; atomic and
/// fifo-sync stay close to omp (paper: 14.5x gain from sync -> atomic).
/// Paper-scale: --scale 1.0 --threads-list 1,2,4,8,16,32 --iters 20.

#include <cstdio>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace sptd;
  using namespace sptd::bench;

  Options cli("bench_fig4_locks",
              "Figure 4: mutex pool implementations on a lock-bound MTTKRP");
  add_common_flags(cli, "yelp", "0.01", "5", "1,2,4,8");
  if (!cli.parse(argc, argv)) {
    return 0;
  }

  std::printf("== Figure 4: sync vs atomic vs fifo-sync locks (%s) ==\n",
              cli.get_string("preset").c_str());
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

  std::printf("# seconds for %d MTTKRP mode sweeps; locks forced on "
              "non-root modes\n", iters);
  print_series_header(threads);
  for (const auto kind : {LockKind::kSync, LockKind::kAtomic,
                          LockKind::kFifoSync, LockKind::kOmp}) {
    std::vector<double> seconds;
    for (const int t : threads) {
      MttkrpOptions mo;
      mo.nthreads = t;
      mo.row_access = RowAccess::kPointer;
      mo.lock_kind = kind;
      mo.force_locks = true;
      apply_kernel_flags(cli, mo);
      seconds.push_back(time_mttkrp_sweeps(set, factors, rank, mo, iters));
      emit_json_record(cli, "Figure 4",
                       bench::JsonRecord()
                           .field("lock", lock_kind_name(kind))
                           .field("threads", std::int64_t{t})
                           .field("seconds", seconds.back()));
    }
    print_series(lock_kind_name(kind), threads, seconds);
  }
  return 0;
}
