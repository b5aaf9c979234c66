/// \file bench_ablation_reorder.cpp
/// \brief Ablation: slice-relabeling locality. SPLATT offers graph
///        reorderings to improve MTTKRP cache behaviour; this harness
///        measures the mechanism's two poles on a skewed dataset:
///        frequency ordering (hot slices packed together at low ids) vs
///        random relabeling (locality destroyed) vs the generator's
///        natural order.

#include <cstdio>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace sptd;
  using namespace sptd::bench;

  Options cli("bench_ablation_reorder", "slice reordering vs MTTKRP time");
  add_common_flags(cli, "yelp", "0.01", "5", "1");
  if (!cli.parse(argc, argv)) {
    return 0;
  }

  std::printf("== Ablation: slice relabeling and MTTKRP locality ==\n");
  const auto preset = find_preset(cli.get_string("preset"));
  auto cfg = preset.scaled(cli.get_double("scale"),
                           static_cast<std::uint64_t>(cli.get_int("seed")));
  cfg.zipf_exponent = 1.0;  // strong skew makes ordering matter
  SparseTensor base = generate_synthetic(cfg);
  const auto rank = static_cast<idx_t>(cli.get_int("rank"));
  const int iters = static_cast<int>(cli.get_int("iters"));
  const int nthreads = cli.get_int_list("threads-list").front();

  std::printf("# %s, zipf 1.0, %d thread(s), %d MTTKRP sweeps\n",
              format_dims(base.dims()).c_str(), nthreads, iters);
  const char* labels[] = {"natural", "frequency", "random"};
  for (int which = 0; which < 3; ++which) {
    SparseTensor t = base;
    if (which == 1) {
      std::vector<std::vector<idx_t>> maps;
      for (int m = 0; m < t.order(); ++m) {
        maps.push_back(frequency_order(t, m));
      }
      relabel(t, maps);
    } else if (which == 2) {
      shuffle_all_modes(t, 99);
    }
    const auto factors = make_factors(t, rank, 7);
    const CsfSet set(t, CsfPolicy::kTwoMode, nthreads, nullptr,
                     SortVariant::kAllOpts, csf_layout_flag(cli));
    MttkrpOptions mo;
    mo.nthreads = nthreads;
    apply_kernel_flags(cli, mo);
    const double secs = time_mttkrp_sweeps(set, factors, rank, mo, iters);
    std::printf("  %-10s %10.4f s\n", labels[which], secs);
    emit_json_record(cli, "ablation_reorder",
                     bench::JsonRecord()
                         .field("reorder", labels[which])
                         .field("seconds", secs));
    std::fflush(stdout);
  }
  return 0;
}
