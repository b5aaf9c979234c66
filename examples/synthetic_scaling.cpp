/// \file synthetic_scaling.cpp
/// \brief Thread-scaling study of the MTTKRP on a paper dataset preset —
///        a runnable miniature of the paper's Figures 9/10 workflow.
///
///   $ ./synthetic_scaling --preset nell-2 --scale 0.01 --threads-list 1,2,4
///
/// For each thread count, times `--reps` full mode sweeps of the MTTKRP
/// under the reference configuration and prints the runtime and speedup
/// over one thread, plus which synchronization strategy the plan chose
/// per mode (lock or privatize; README "Sync strategy").

#include <cstdio>

#include "sptd.hpp"

int main(int argc, char** argv) {
  using namespace sptd;

  Options cli("synthetic_scaling", "MTTKRP thread-scaling study");
  cli.add("preset", "yelp", "dataset preset");
  cli.add("scale", "0.01", "preset scale factor");
  cli.add("rank", "35", "decomposition rank");
  cli.add("reps", "5", "mode sweeps per measurement");
  cli.add("threads-list", "1,2,4,8", "thread counts to test");
  cli.add("seed", "42", "generator seed");
  if (!cli.parse(argc, argv)) {
    return 0;
  }

  const auto preset = find_preset(cli.get_string("preset"));
  const auto cfg = preset.scaled(cli.get_double("scale"),
                                 static_cast<std::uint64_t>(
                                     cli.get_int("seed")));
  std::printf("generating %s at scale %g: %s, %llu nnz ...\n",
              preset.name.c_str(), cli.get_double("scale"),
              format_dims(cfg.dims).c_str(),
              static_cast<unsigned long long>(cfg.nnz));
  SparseTensor x = generate_synthetic(cfg);

  const auto rank = static_cast<idx_t>(cli.get_int("rank"));
  const int reps = static_cast<int>(cli.get_int("reps"));
  const int order = x.order();

  // Deterministic factors shared by all runs.
  Rng rng(7);
  std::vector<la::Matrix> factors;
  for (int m = 0; m < order; ++m) {
    factors.push_back(la::Matrix::random(x.dim(m), rank, rng));
  }

  const CsfSet set(x, CsfPolicy::kTwoMode, hardware_threads());

  std::printf("\n%8s %12s %8s  strategies per mode\n", "threads",
              "seconds", "speedup");
  double base_seconds = 0.0;
  for (const int nthreads : cli.get_int_list("threads-list")) {
    MttkrpOptions mo;
    mo.nthreads = nthreads;
    MttkrpWorkspace ws(mo, rank, order);
    std::string strategies;

    WallTimer timer;
    timer.start();
    for (int rep = 0; rep < reps; ++rep) {
      for (int mode = 0; mode < order; ++mode) {
        la::Matrix out(x.dim(mode), rank);
        mttkrp(set, factors, mode, out, ws);
        if (rep == 0) {
          if (!strategies.empty()) strategies += ", ";
          strategies += sync_strategy_name(ws.last_strategy);
        }
      }
    }
    timer.stop();

    if (base_seconds == 0.0) {
      base_seconds = timer.seconds();
    }
    std::printf("%8d %12.4f %7.2fx  [%s]\n", nthreads, timer.seconds(),
                base_seconds / timer.seconds(), strategies.c_str());
  }
  return 0;
}
