/// \file bench_table3_initial.cpp
/// \brief Reproduces **Table III** (runtime in seconds for CP-ALS routines,
///        initial results): the reference C code paths vs the *unoptimized*
///        Chapel port (slice row access, sync-variable locks, naive sort)
///        on the YELP and NELL-2 shapes at two team sizes.
///
/// Paper-scale: --scale 1.0 --iters 20 --threads-list 1,32 --trials 10.
/// Expected shape: chapel-initial MTTKRP ~an order of magnitude slower
/// than C; sort several times slower; the other routines comparable.

#include <cstdio>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace sptd;
  using namespace sptd::bench;

  Options cli("bench_table3_initial",
              "Table III: initial per-routine CP-ALS runtimes");
  add_common_flags(cli, "yelp", "0.01", "3", "1,4");
  cli.add("presets", "yelp,nell-2", "comma list of datasets to run");
  if (!cli.parse(argc, argv)) {
    return 0;
  }

  std::printf("== Table III: CP-ALS routine runtimes, C vs initial port ==\n");
  const auto threads = cli.get_int_list("threads-list");
  const int trials = static_cast<int>(cli.get_int("trials"));

  // Parse the preset list manually (comma separated names).
  std::vector<std::string> presets;
  {
    const std::string s = cli.get_string("presets");
    std::size_t pos = 0;
    while (pos < s.size()) {
      const std::size_t comma = s.find(',', pos);
      const std::size_t end = (comma == std::string::npos) ? s.size() : comma;
      if (end > pos) {
        presets.push_back(s.substr(pos, end - pos));
      }
      pos = end + 1;
    }
  }

  for (const auto& preset : presets) {
    const SparseTensor x =
        make_dataset(preset, cli.get_double("scale"),
                     static_cast<std::uint64_t>(cli.get_int("seed")));
    const std::vector<std::string> impls = {"c", "chapel-initial"};
    for (const int t : threads) {
      std::printf("-- %s, %d thread(s), %lld iterations --\n",
                  preset.c_str(), t,
                  static_cast<long long>(cli.get_int("iters")));
      print_routine_header("impl");
      CpalsOptions base;
      base.rank = static_cast<idx_t>(cli.get_int("rank"));
      base.max_iterations = static_cast<int>(cli.get_int("iters"));
      base.tolerance = 0.0;
      base.nthreads = t;
      apply_kernel_flags(cli, base);
      const auto results = run_impls_fair(x, base, impls, trials);
      for (std::size_t i = 0; i < impls.size(); ++i) {
        print_routine_row(impls[i].c_str(), results[i]);
      }
    }
  }
  return 0;
}
