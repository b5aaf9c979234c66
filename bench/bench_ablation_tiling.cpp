/// \file bench_ablation_tiling.cpp
/// \brief Ablation: mode tiling (the SPLATT feature the paper's port
///        omitted, Section V-A) against the synchronization strategies it
///        replaces. Compares, for a conflicting output mode:
///          coo+locks      — mutex pool on a flat COO kernel
///          coo+tiled      — lock-free 1-D output tiling (this repo's
///                           implementation of the omitted feature)
///          csf+locks      — SPLATT's locked CSF kernel
///          csf+privatize  — SPLATT's privatized CSF kernel
///        on both uniform and heavily skewed tensors (skew is tiling's
///        weak spot: tile balance degrades as single slices dominate).
///        Every row emits a --json record, so the ledger carries the
///        evidence for keeping (or dropping) the tiling ablation.

#include <cstdio>

#include "bench_common.hpp"

namespace {

using namespace sptd;

double time_reps(int reps, const std::function<void()>& body) {
  body();  // warm-up
  WallTimer t;
  t.start();
  for (int i = 0; i < reps; ++i) {
    body();
  }
  t.stop();
  return t.seconds();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sptd;
  using namespace sptd::bench;

  Options cli("bench_ablation_tiling",
              "mode tiling vs locks vs privatization");
  add_common_flags(cli, "yelp", "0.01", "5", "4");
  cli.add("zipf", "0.0,1.1", "skew exponents to test");
  if (!cli.parse(argc, argv)) {
    return 0;
  }
  init_parallel_runtime();

  const auto rank = static_cast<idx_t>(cli.get_int("rank"));
  const int iters = static_cast<int>(cli.get_int("iters"));
  const int nthreads = cli.get_int_list("threads-list").front();
  const auto preset = find_preset(cli.get_string("preset"));
  const auto base_cfg =
      preset.scaled(cli.get_double("scale"),
                    static_cast<std::uint64_t>(cli.get_int("seed")));

  std::printf("== Ablation: tiling vs locks vs privatization ==\n");
  std::printf("# %d threads, %d MTTKRP repetitions of the largest mode\n",
              nthreads, iters);

  // Parse skew list as doubles.
  std::vector<double> skews;
  {
    const std::string s = cli.get_string("zipf");
    std::size_t pos = 0;
    while (pos < s.size()) {
      const std::size_t comma = s.find(',', pos);
      const std::size_t end = (comma == std::string::npos) ? s.size() : comma;
      skews.push_back(std::stod(s.substr(pos, end - pos)));
      pos = end + 1;
    }
  }

  for (const double skew : skews) {
    SyntheticConfig cfg = base_cfg;
    cfg.zipf_exponent = skew;
    SparseTensor x = generate_synthetic(cfg);
    // Output mode: the largest (worst privatization footprint).
    int mode = 0;
    for (int m = 1; m < x.order(); ++m) {
      if (x.dim(m) > x.dim(mode)) mode = m;
    }
    auto factors = make_factors(x, rank, 7);
    la::Matrix out(x.dim(mode), rank);

    std::printf("-- zipf %.2f (%s, mode %d) --\n", skew,
                format_dims(x.dims()).c_str(), mode);

    {
      MttkrpOptions mo;
      mo.nthreads = nthreads;
      const double s = time_reps(iters, [&] {
        mttkrp_coo(x, factors, mode, out, mo);
      });
      std::printf("  %-16s %10.4f s\n", "coo+locks", s);
      emit_json_record(cli, "ablation_tiling",
                       JsonRecord()
                           .field("config", "coo+locks")
                           .field("zipf", skew)
                           .field("threads", std::int64_t{nthreads})
                           .field("seconds", s));
    }
    {
      // --schedule static gives the uniform-row-range tile baseline;
      // weighted (default) balances tiles by nonzero count. Dynamic /
      // workstealing requests coerce to weighted — the JSON record
      // carries the policy that actually shaped the tiles.
      const TiledTensor tiled(x, mode, nthreads, schedule_flag(cli));
      const double s = time_reps(iters, [&] {
        mttkrp_tiled(tiled, factors, out);
      });
      std::printf("  %-16s %10.4f s  (tile policy %s)\n", "coo+tiled", s,
                  schedule_policy_name(tiled.effective_policy()));
      emit_json_record(
          cli, "ablation_tiling",
          JsonRecord()
              .field("config", "coo+tiled")
              .field("zipf", skew)
              .field("threads", std::int64_t{nthreads})
              .field("tile_policy",
                     schedule_policy_name(tiled.effective_policy()))
              .field("seconds", s));
    }
    {
      SparseTensor work = x;
      // Root the CSF away from the output mode so the kernel conflicts.
      const CsfSet set(work, CsfPolicy::kOneMode, nthreads, nullptr,
                       SortVariant::kAllOpts, csf_layout_flag(cli));
      for (const bool privatize : {false, true}) {
        MttkrpOptions mo;
        mo.nthreads = nthreads;
        apply_kernel_flags(cli, mo);
        mo.force_locks = !privatize;
        mo.privatization_threshold = privatize ? 1e18 : 0.0;
        MttkrpWorkspace ws(mo, rank, x.order());
        const double s = time_reps(iters, [&] {
          mttkrp(set, factors, mode, out, ws);
        });
        const char* config = privatize ? "csf+privatize" : "csf+locks";
        std::printf("  %-16s %10.4f s  (strategy %s)\n", config, s,
                    sync_strategy_name(ws.last_strategy));
        emit_json_record(cli, "ablation_tiling",
                         JsonRecord()
                             .field("config", config)
                             .field("zipf", skew)
                             .field("threads", std::int64_t{nthreads})
                             .field("seconds", s));
      }
    }
  }
  return 0;
}
