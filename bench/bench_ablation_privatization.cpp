/// \file bench_ablation_privatization.cpp
/// \brief Ablation: the lock-vs-privatize decision. Sweeps the two
///        extremes (always-lock, always-privatize) against SPLATT's
///        heuristic (threshold 0.02) and the library's default fiber-count
///        rule across thread counts, on both the YELP shape (SPLATT's
///        heuristic flips to locks beyond 2 threads) and the NELL-2 shape
///        (privatizes everywhere). A rule should track the better extreme
///        on each dataset.

#include <cstdio>
#include <optional>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace sptd;
  using namespace sptd::bench;

  Options cli("bench_ablation_privatization",
              "lock vs privatize vs SPLATT heuristic vs cost rule");
  add_common_flags(cli, "yelp", "0.01", "5", "1,2,4,8");
  if (!cli.parse(argc, argv)) {
    return 0;
  }

  std::printf("== Ablation: synchronization strategy for non-root MTTKRP "
              "==\n");
  SparseTensor x = make_dataset(cli.get_string("preset"),
                                cli.get_double("scale"),
                                static_cast<std::uint64_t>(
                                    cli.get_int("seed")));
  const auto rank = static_cast<idx_t>(cli.get_int("rank"));
  const int iters = static_cast<int>(cli.get_int("iters"));
  const auto factors = make_factors(x, rank, 7);
  const CsfSet set(x, CsfPolicy::kOneMode, hardware_threads(), nullptr,
                   SortVariant::kAllOpts, csf_layout_flag(cli));
  const auto threads = cli.get_int_list("threads-list");

  struct Config {
    const char* name;
    bool force_locks;
    std::optional<double> threshold;  // unset: the fiber-count rule
  };
  const Config configs[] = {
      {"always-lock", true, 0.02},
      {"always-privatize", false, 1e18},
      {"splatt-heuristic", false, 0.02},
      {"cost-rule", false, std::nullopt},
  };

  std::printf("# seconds for %d MTTKRP sweeps (OneMode CSF: two non-root "
              "modes)\n", iters);
  print_series_header(threads);
  for (const Config& cfg : configs) {
    std::vector<double> seconds;
    std::string strategies;
    for (const int t : threads) {
      MttkrpOptions mo;
      mo.nthreads = t;
      apply_kernel_flags(cli, mo);
      mo.force_locks = cfg.force_locks;
      mo.privatization_threshold = cfg.threshold;
      std::string* strat =
          (t == threads.back()) ? &strategies : nullptr;
      seconds.push_back(
          time_mttkrp_sweeps(set, factors, rank, mo, iters, strat));
    }
    std::printf("%-24s", cfg.name);
    for (const double s : seconds) {
      std::printf(" %10.4f", s);
    }
    std::printf("  [%s @%d]\n", strategies.c_str(), threads.back());
  }
  return 0;
}
