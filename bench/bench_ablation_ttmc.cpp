/// \file bench_ablation_ttmc.cpp
/// \brief Ablation: COO vs CSF TTMc (the kernel behind SPLATT's Tucker
///        work). CSF shares partial Kronecker products across nonzeros
///        with common fiber prefixes; COO recomputes them per nonzero.
///        The win grows with core size and with fiber density — this
///        harness sweeps core size on one dataset and reports the ratio.

#include <cstdio>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace sptd;
  using namespace sptd::bench;

  Options cli("bench_ablation_ttmc", "COO vs CSF TTMc");
  add_common_flags(cli, "nell-2", "0.01", "3", "1");
  cli.add("core-list", "4,8,12,16", "core sizes to sweep (same per mode)");
  if (!cli.parse(argc, argv)) {
    return 0;
  }

  std::printf("== Ablation: TTMc over COO vs CSF ==\n");
  SparseTensor x = make_dataset(cli.get_string("preset"),
                                cli.get_double("scale"),
                                static_cast<std::uint64_t>(
                                    cli.get_int("seed")));
  const int iters = static_cast<int>(cli.get_int("iters"));
  const int nthreads = cli.get_int_list("threads-list").front();

  SparseTensor sorted = x;
  const auto mode_order = csf_mode_order(x.dims(), -1);
  sort_tensor_perm(sorted, mode_order, nthreads);
  const CsfTensor csf(sorted, mode_order);
  const int root = csf.mode_at_level(0);
  // Root-slice schedule built once and reused by every repetition, the
  // same shape tucker_hooi uses.
  const SliceSchedule slices(schedule_flag(cli), csf.nfibers(0),
                             csf.root_nnz_prefix(), nthreads,
                             static_cast<nnz_t>(chunk_flag(cli)));

  std::printf("# root mode %d, %d thread(s), %d repetitions\n", root,
              nthreads, iters);
  std::printf("%8s %12s %12s %10s\n", "core", "coo (s)", "csf (s)",
              "coo/csf");
  for (const int core : cli.get_int_list("core-list")) {
    Rng rng(7);
    std::vector<la::Matrix> factors;
    for (int m = 0; m < x.order(); ++m) {
      factors.push_back(la::Matrix::random(
          x.dim(m), static_cast<idx_t>(core), rng));
    }
    std::size_t k = 1;
    for (int n = 0; n < x.order(); ++n) {
      if (n != root) k *= static_cast<std::size_t>(core);
    }
    la::Matrix out(x.dim(root), static_cast<idx_t>(k));

    ttmc(x, factors, root, out, nthreads);  // warm
    WallTimer coo_t;
    coo_t.start();
    for (int i = 0; i < iters; ++i) {
      ttmc(x, factors, root, out, nthreads);
    }
    coo_t.stop();

    ttmc_csf(csf, factors, out, nthreads, &slices);  // warm
    WallTimer csf_t;
    csf_t.start();
    for (int i = 0; i < iters; ++i) {
      ttmc_csf(csf, factors, out, nthreads, &slices);
    }
    csf_t.stop();

    std::printf("%8d %12.4f %12.4f %10.2fx\n", core, coo_t.seconds(),
                csf_t.seconds(), coo_t.seconds() / csf_t.seconds());
    std::fflush(stdout);
    emit_json_record(cli, "ablation_ttmc",
                     bench::JsonRecord()
                         .field("core", std::int64_t{core})
                         .field("coo_seconds", coo_t.seconds())
                         .field("csf_seconds", csf_t.seconds()));
  }
  return 0;
}
