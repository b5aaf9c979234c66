/// \file bench_ablation_csf.cpp
/// \brief Ablation: CSF allocation policy (one / two / all
///        representations). SPLATT defaults to TWOMODE; ALLMODE buys
///        always-root (lock-free) MTTKRP kernels with N-fold memory;
///        ONEMODE is the memory floor but leaves two modes on
///        internal/leaf kernels. This harness quantifies the trade on a
///        Table I dataset: per-mode MTTKRP time, chosen sync strategy,
///        and CSF bytes per policy.

#include <cstdio>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace sptd;
  using namespace sptd::bench;

  Options cli("bench_ablation_csf", "CSF allocation policy ablation");
  add_common_flags(cli, "yelp", "0.01", "5", "4");
  if (!cli.parse(argc, argv)) {
    return 0;
  }

  std::printf("== Ablation: CSF policy (one/two/all) ==\n");
  SparseTensor base = make_dataset(cli.get_string("preset"),
                                   cli.get_double("scale"),
                                   static_cast<std::uint64_t>(
                                       cli.get_int("seed")));
  const auto rank = static_cast<idx_t>(cli.get_int("rank"));
  const int iters = static_cast<int>(cli.get_int("iters"));
  const int nthreads = cli.get_int_list("threads-list").front();
  const auto factors = make_factors(base, rank, 7);

  std::printf("# %d thread(s); seconds for %d MTTKRP sweeps; memory is "
              "total CSF bytes\n", nthreads, iters);
  std::printf("%-8s %12s %14s  strategies per mode\n", "policy", "seconds",
              "memory");
  for (const auto policy : {CsfPolicy::kOneMode, CsfPolicy::kTwoMode,
                            CsfPolicy::kAllMode}) {
    SparseTensor work = base;
    const CsfSet set(work, policy, nthreads, nullptr,
                     SortVariant::kAllOpts, csf_layout_flag(cli));
    MttkrpOptions mo;
    mo.nthreads = nthreads;
    apply_kernel_flags(cli, mo);
    std::string strategies;
    const double secs =
        time_mttkrp_sweeps(set, factors, rank, mo, iters, &strategies);
    std::printf("%-8s %12.4f %14s  [%s]\n", csf_policy_name(policy), secs,
                format_bytes(set.memory_bytes()).c_str(),
                strategies.c_str());
    emit_json_record(cli, "ablation_csf",
                     bench::JsonRecord()
                         .field("csf", csf_policy_name(policy))
                         .field("threads", std::int64_t{nthreads})
                         .field("strategies", strategies)
                         .field("csf_bytes", static_cast<std::int64_t>(
                                                 set.memory_bytes()))
                         .field("value_bytes",
                                static_cast<std::int64_t>(
                                    set.value_bytes(mo.precision)))
                         .field("seconds", secs));
  }
  return 0;
}
