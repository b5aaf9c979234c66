/// \file bench_ablation_rank.cpp
/// \brief Ablation: decomposition rank. The paper fixes R = 35; this
///        harness sweeps R and reports MTTKRP time per sweep and the
///        slice-vs-pointer row-access gap as a function of R. The gap
///        shrinks as R grows (slice-descriptor setup amortizes over more
///        arithmetic per row) — the regime where the paper's YELP/NELL-2
///        numbers live is small-R, where the overhead dominates.

#include <cstdio>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace sptd;
  using namespace sptd::bench;

  Options cli("bench_ablation_rank", "decomposition-rank sweep");
  add_common_flags(cli, "yelp", "0.01", "5", "1");
  cli.add("rank-list", "8,16,35,64,128", "ranks to sweep");
  if (!cli.parse(argc, argv)) {
    return 0;
  }

  std::printf("== Ablation: rank sweep ==\n");
  SparseTensor x = make_dataset(cli.get_string("preset"),
                                cli.get_double("scale"),
                                static_cast<std::uint64_t>(
                                    cli.get_int("seed")));
  const int iters = static_cast<int>(cli.get_int("iters"));
  const int nthreads = cli.get_int_list("threads-list").front();
  const CsfSet set(x, CsfPolicy::kTwoMode, hardware_threads(), nullptr,
                   SortVariant::kAllOpts, csf_layout_flag(cli));

  std::printf("# %d thread(s); seconds for %d MTTKRP sweeps\n", nthreads,
              iters);
  std::printf("%8s %12s %12s %12s\n", "rank", "pointer", "slice",
              "slice/ptr");
  for (const int rank_i : cli.get_int_list("rank-list")) {
    const auto rank = static_cast<idx_t>(rank_i);
    const auto factors = make_factors(x, rank, 7);
    double secs[2] = {0, 0};
    int which = 0;
    for (const auto ra : {RowAccess::kPointer, RowAccess::kSlice}) {
      MttkrpOptions mo;
      mo.nthreads = nthreads;
      apply_kernel_flags(cli, mo);
      mo.row_access = ra;
      // This ablation isolates the row-access idiom: rank specialization
      // would otherwise accelerate only the pointer column at ranks with
      // a fixed-width kernel and misattribute the gap to the idiom.
      // Measure the specialization win with --kernels A/B on the figure
      // harnesses instead.
      mo.use_fixed_kernels = false;
      secs[which++] = time_mttkrp_sweeps(set, factors, rank, mo, iters);
    }
    std::printf("%8u %12.4f %12.4f %12.2fx\n", static_cast<unsigned>(rank),
                secs[0], secs[1], secs[1] / secs[0]);
    std::fflush(stdout);
  }
  return 0;
}
