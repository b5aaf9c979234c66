/// \file bench_ablation_precision.cpp
/// \brief Ablation: value-stream precision (f64 / f32 / mixed).
///
/// MTTKRP is bandwidth-bound; once the index stream is compressed the
/// fp64 factor rows and nonzero values dominate the bytes per launch.
/// This harness quantifies what narrowing those streams buys and costs on
/// a Table I dataset: MTTKRP sweep time, value-stream bytes, and the
/// CP-ALS fit each precision reaches against the f64 baseline — the
/// number the `mixed` mode's accuracy contract is gated on (fp32 streams
/// with fp64 accumulation should track f64 to ~1e-6 while moving the
/// same bytes as pure f32).

#include <cmath>
#include <cstdio>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace sptd;
  using namespace sptd::bench;

  Options cli("bench_ablation_precision",
              "value-stream precision ablation (f64/f32/mixed)");
  add_common_flags(cli, "yelp", "0.002", "5", "1");
  if (!cli.parse(argc, argv)) {
    return 0;
  }

  std::printf("== Ablation: value-stream precision (f64/f32/mixed) ==\n");
  SparseTensor base = make_dataset(cli.get_string("preset"),
                                   cli.get_double("scale"),
                                   static_cast<std::uint64_t>(
                                       cli.get_int("seed")));
  const auto rank = static_cast<idx_t>(cli.get_int("rank"));
  const int iters = static_cast<int>(cli.get_int("iters"));
  const int nthreads = cli.get_int_list("threads-list").front();
  const auto factors = make_factors(base, rank, 7);

  SparseTensor work = base;
  const CsfSet set(work, CsfPolicy::kTwoMode, nthreads, nullptr,
                   SortVariant::kAllOpts, csf_layout_flag(cli));

  std::printf("# %d thread(s); seconds for %d MTTKRP sweeps; fit after "
              "%d CP-ALS iterations\n", nthreads, iters, iters);
  std::printf("%-8s %12s %14s %12s %14s\n", "prec", "seconds", "values",
              "fit", "|fit - f64|");
  double f64_fit = 0.0;
  for (const auto p :
       {Precision::kF64, Precision::kF32, Precision::kMixed}) {
    MttkrpOptions mo;
    mo.nthreads = nthreads;
    apply_kernel_flags(cli, mo);
    mo.precision = p;
    const double secs = time_mttkrp_sweeps(set, factors, rank, mo, iters);

    CpalsOptions co;
    co.rank = rank;
    co.max_iterations = iters;
    co.tolerance = 0.0;
    co.nthreads = nthreads;
    apply_kernel_flags(cli, co);
    co.precision = p;
    SparseTensor trial = base;
    const CpalsResult r = cp_als(trial, co);
    const double fit = r.fit_history.back();
    if (p == Precision::kF64) {
      f64_fit = fit;  // first in the sweep: the accuracy baseline
    }
    const double gap = std::abs(fit - f64_fit);

    std::printf("%-8s %12.4f %14s %12.8f %14.3e\n", precision_name(p),
                secs, format_bytes(r.value_bytes).c_str(), fit, gap);
    emit_json_record(cli, "ablation_precision",
                     bench::JsonRecord()
                         .field("precision", precision_name(p))
                         .field("threads", std::int64_t{nthreads})
                         .field("csf_bytes",
                                static_cast<std::int64_t>(r.csf_bytes))
                         .field("value_bytes",
                                static_cast<std::int64_t>(r.value_bytes))
                         .field("fit", fit)
                         .field("fit_gap_vs_f64", gap)
                         .field("seconds", secs));
  }
  return 0;
}
