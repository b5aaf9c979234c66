/// \file perfbench_triad.cpp
/// \brief STREAM-triad bandwidth probe: a[i] = b[i] + s * c[i] over three
///        fp64 arrays, on a team of --threads via sptd::parallel_region.
///
///   perfbench_triad --threads T --array-mib N
///
/// Each array is --array-mib MiB (size it to at least four times the
/// last-level cache so the arrays stream from memory). Counts 24 bytes per
/// element per pass (two reads, one write; write-allocate traffic not
/// counted, as STREAM does) and prints the best of five passes' GB/s as
/// JSON.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>

#include "sptd.hpp"

int main(int argc, char** argv) {
  using namespace sptd;
  Options cli("perfbench_triad", "STREAM-triad bandwidth probe");
  cli.add("threads", "1", "team size");
  cli.add("array-mib", "1200", "MiB per array");
  try {
    if (!cli.parse(argc, argv)) return 0;
    const std::int64_t threads = cli.get_int("threads");
    const std::int64_t array_mib = cli.get_int("array-mib");
    SPTD_CHECK(threads >= 1 && threads <= 1024 && array_mib >= 1 &&
                   array_mib <= (1 << 20),
               "perfbench_triad: need 1 <= --threads <= 1024 and "
               "1 <= --array-mib <= 1048576");
    const int nt = static_cast<int>(threads);
    const auto mib = static_cast<std::size_t>(array_mib);
    init_parallel_runtime();
    const std::size_t n = mib * 1024 * 1024 / sizeof(double);
    const std::unique_ptr<double[]> a(new double[n]);
    const std::unique_ptr<double[]> b(new double[n]);
    const std::unique_ptr<double[]> c(new double[n]);
    // First touch on the team that runs the passes.
    parallel_region(nt, [&](int tid, int team) {
      const Range r = block_partition(n, team, tid);
      for (nnz_t i = r.begin; i < r.end; ++i) {
        a[i] = 0.0;
        b[i] = 1.0;
        c[i] = 2.0;
      }
    });
    const double s = 3.0;
    double best = 0.0;
    for (int pass = 0; pass < 5; ++pass) {
      const auto t0 = std::chrono::steady_clock::now();
      parallel_region(nt, [&](int tid, int team) {
        const Range r = block_partition(n, team, tid);
        for (nnz_t i = r.begin; i < r.end; ++i) a[i] = b[i] + s * c[i];
      });
      const double secs = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
      best = std::max(best, 3.0 * sizeof(double) * static_cast<double>(n) /
                                secs / 1e9);
    }
    SPTD_CHECK(a[n / 2] == 7.0, "perfbench_triad: wrong triad result");
    std::printf("{\"triad_gbps\": %.6f, \"array_mib\": %zu, \"threads\": %d}\n",
                best, mib, nt);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_triad: %s\n", e.what());
    return 1;
  }
}
