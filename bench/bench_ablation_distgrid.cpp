/// \file bench_ablation_distgrid.cpp
/// \brief Ablation for the medium-grained distributed CP-ALS (the paper's
///        future work): locale-grid shape vs communication volume and
///        nonzero balance. Reproduces the medium-grained paper's central
///        trade-off — for a fixed locale count, an N-dimensional grid
///        moves far fewer factor-row bytes per iteration than a 1-D
///        decomposition, at equal mathematics (fit is checked equal).
///
/// `--transport sim` (the default) reports the modeled volume only;
/// `--transport shm` runs real forked locales over the shared-memory ring
/// and reports the measured bytes/seconds next to the model. The fit is
/// transport-independent (bitwise at one thread per locale).

#include <cstdio>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace sptd;
  using namespace sptd::bench;

  Options cli("bench_ablation_distgrid",
              "locale grid shape vs communication volume");
  add_common_flags(cli, "yelp", "0.005", "5", "1");
  cli.add("transport", "sim",
          "dist communication backend: sim (in-process model) | shm "
          "(fork-per-locale, measured bytes) | mpi");
  if (!cli.parse(argc, argv)) {
    return 0;
  }
  const TransportKind transport =
      parse_transport(cli.get_string("transport"));

  std::printf("== Ablation: distributed locale-grid shape (8 locales) ==\n");
  SparseTensor x = make_dataset(cli.get_string("preset"),
                                cli.get_double("scale"),
                                static_cast<std::uint64_t>(
                                    cli.get_int("seed")));
  const auto rank = static_cast<idx_t>(cli.get_int("rank"));
  const int iters = static_cast<int>(cli.get_int("iters"));

  const dims_t grids[] = {
      {8, 1, 1}, {1, 8, 1}, {1, 1, 8}, {4, 2, 1}, {2, 2, 2},
  };
  std::printf("# rank %u, %d iterations, %s transport; "
              "volume = total bytes moved\n",
              static_cast<unsigned>(rank), iters,
              transport_name(transport));
  std::printf("%-10s %12s %12s %12s %10s\n", "grid", "comm model",
              "measured", "max/avg nnz", "final fit");
  for (const auto& grid : grids) {
    DistOptions opts;
    opts.grid = grid;
    opts.rank = rank;
    opts.max_iterations = iters;
    opts.transport = transport;
    apply_kernel_flags(cli, opts);
    const DistResult r = dist_cp_als(x, opts);
    nnz_t max_nnz = 0;
    for (const nnz_t n : r.locale_nnz) {
      max_nnz = std::max(max_nnz, n);
    }
    char label[32];
    std::snprintf(label, sizeof(label), "%ux%ux%u",
                  static_cast<unsigned>(grid[0]),
                  static_cast<unsigned>(grid[1]),
                  static_cast<unsigned>(grid[2]));
    std::printf("%-10s %12s %12s %11.2fx %10.4f\n", label,
                format_bytes(r.comm.total()).c_str(),
                format_bytes(r.comm_measured.total_bytes()).c_str(),
                static_cast<double>(max_nnz) * r.locale_nnz.size() /
                    static_cast<double>(x.nnz()),
                r.fit_history.back());
    std::fflush(stdout);
    emit_json_record(
        cli, "ablation_distgrid",
        bench::JsonRecord()
            .field("grid", label)
            .field("transport", transport_name(transport))
            .field("comm_bytes",
                   static_cast<std::int64_t>(r.comm.total()))
            .field("comm_bytes_measured",
                   static_cast<std::int64_t>(r.comm_measured.total_bytes()))
            .field("comm_seconds_measured",
                   r.comm_measured.reduce_seconds +
                       r.comm_measured.broadcast_seconds)
            .field("fit", r.fit_history.back()));
  }
  return 0;
}
