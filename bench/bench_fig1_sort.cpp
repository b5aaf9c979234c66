/// \file bench_fig1_sort.cpp
/// \brief Reproduces **Figure 1** (Chapel sorting runtime on NELL-2):
///        the four sorting-implementation variants across a thread sweep.
///
/// Variants: `initial` (per-recursion heap pivot array + copy-based
/// sub-array reassignment), `array-opt` (scalar pivots), `slices-opt`
/// (pointer-swap reassignment), `all-opts` (both — the reference
/// behaviour). Expected shape: initial slowest; array-opt shaves ~10%;
/// slices-opt a large constant factor; all-opts fastest at every thread
/// count (paper: ~8x total on NELL-2).
///
/// Paper-scale: --scale 1.0 --threads-list 1,2,4,8,16,32 --trials 10.

#include <algorithm>
#include <cstdio>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace sptd;
  using namespace sptd::bench;

  Options cli("bench_fig1_sort", "Figure 1: sorting optimization ablation");
  add_common_flags(cli, "nell-2", "0.02", "1", "1,2,4,8");
  if (!cli.parse(argc, argv)) {
    return 0;
  }
  const int fig1_trials = std::max(3, static_cast<int>(
      cli.get_int("trials")));

  std::printf("== Figure 1: sorting runtime by variant (%s) ==\n",
              cli.get_string("preset").c_str());
  const SparseTensor base =
      make_dataset(cli.get_string("preset"), cli.get_double("scale"),
                   static_cast<std::uint64_t>(cli.get_int("seed")));
  const auto threads = cli.get_int_list("threads-list");
  const int trials = fig1_trials;
  const auto mode_order = csf_mode_order(base.dims(), -1);

  std::printf("# seconds to fully sort the tensor (counting sort + "
              "per-slice quicksort)\n");
  print_series_header(threads);
  for (const auto variant :
       {SortVariant::kInitial, SortVariant::kArrayOpt,
        SortVariant::kSlicesOpt, SortVariant::kAllOpts}) {
    std::vector<double> seconds;
    for (const int t : threads) {
      double total = 0.0;
      for (int trial = 0; trial < trials; ++trial) {
        SparseTensor work = base;  // fresh unsorted copy each trial
        WallTimer timer;
        timer.start();
        sort_tensor_perm(work, mode_order, t, variant);
        timer.stop();
        total += timer.seconds();
      }
      seconds.push_back(total / trials);
    }
    print_series(sort_variant_name(variant), threads, seconds);
  }
  return 0;
}
