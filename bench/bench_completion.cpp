/// \file bench_completion.cpp
/// \brief Completion-solver comparison: ALS vs SGD vs CCD++ on a noisy
///        low-rank tensor shaped like a Table I preset.
///
/// Unlike the figure harnesses (which replay the paper's MTTKRP-bound
/// experiments), this bench exercises the completion subsystem end to
/// end: split a synthetic ratings tensor, run each solver over the thread
/// sweep, and report wall time plus train/holdout RMSE. With --json each
/// (alg, threads) measurement appends one record carrying the `alg`
/// field, the RMSEs and the iteration counts.
///
///   $ ./bench_completion --preset yelp --scale 0.01 --alg-list als,sgd,ccd
///
/// Paper-scale runs: --scale 1.0 --iters 50 --threads-list 1,2,4,8,16,32.

#include <string>
#include <vector>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace sptd;
  using namespace sptd::bench;

  Options cli("bench_completion",
              "tensor-completion solver comparison (als|sgd|ccd)");
  add_common_flags(cli, "yelp", "0.01", "10", "1,2");
  cli.add("alg-list", "als,sgd,ccd", "solvers to compare");
  cli.add("holdout", "0.2", "fraction held out for validation");
  cli.add("reg", "1e-3", "regularization");
  cli.add("lr", "0.02", "SGD learning rate");
  cli.add("decay", "0.01", "SGD learning-rate decay");
  cli.add("data-rank", "4", "true rank of the synthetic tensor");
  cli.add("noise", "0.05", "observation noise level");
  if (!cli.parse(argc, argv)) {
    return 0;
  }

  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const auto cfg =
      find_preset(cli.get_string("preset"))
          .scaled(cli.get_double("scale"), seed);
  std::printf("# dataset %s @ scale %g (low-rank content, rank %lld, "
              "noise %g): %s, %llu nnz\n",
              cli.get_string("preset").c_str(), cli.get_double("scale"),
              static_cast<long long>(cli.get_int("data-rank")),
              cli.get_double("noise"), format_dims(cfg.dims).c_str(),
              static_cast<unsigned long long>(cfg.nnz));
  const SparseTensor full = generate_low_rank(
      cfg.dims, static_cast<idx_t>(cli.get_int("data-rank")), cfg.nnz,
      cli.get_double("noise"), seed);
  const auto [train, test] =
      split_train_test(full, cli.get_double("holdout"), seed + 1);
  std::printf("# train %llu nnz, holdout %llu nnz\n",
              static_cast<unsigned long long>(train.nnz()),
              static_cast<unsigned long long>(test.nnz()));

  CompletionOptions base;
  base.rank = static_cast<idx_t>(cli.get_int("rank"));
  base.max_iterations = static_cast<int>(cli.get_int("iters"));
  base.tolerance = 0.0;  // fixed work per measurement
  base.regularization = cli.get_double("reg");
  base.learn_rate = cli.get_double("lr");
  base.decay = cli.get_double("decay");
  base.seed = seed + 2;
  base.schedule = schedule_flag(cli);
  base.chunk_target = chunk_flag(cli);
  base.use_fixed_kernels = cli.get_string("kernels") == "fixed";

  std::vector<std::string> algs;
  {
    const std::string list = cli.get_string("alg-list");
    std::size_t pos = 0;
    while (pos < list.size()) {
      std::size_t comma = list.find(',', pos);
      if (comma == std::string::npos) comma = list.size();
      algs.push_back(list.substr(pos, comma - pos));
      pos = comma + 1;
    }
  }
  const std::vector<int> threads_list = cli.get_int_list("threads-list");
  const int trials = static_cast<int>(cli.get_int("trials"));

  std::printf("%-6s %8s %10s %12s %12s %6s\n", "alg", "threads",
              "seconds", "train RMSE", "val RMSE", "best");
  for (const std::string& alg_name : algs) {
    CompletionOptions opts = base;
    opts.algorithm = parse_completion_algorithm(alg_name);
    {
      // Untimed warm-up (page faults, allocator growth).
      CompletionOptions warm = opts;
      warm.max_iterations = 1;
      warm.nthreads = threads_list.front();
      (void)complete_tensor(train, &test, warm);
    }
    for (const int nthreads : threads_list) {
      opts.nthreads = nthreads;
      const std::uint64_t steals_before = work_steal_count();
      WallTimer timer;
      timer.start();
      CompletionResult last;
      for (int trial = 0; trial < trials; ++trial) {
        last = complete_tensor(train, &test, opts);
      }
      timer.stop();
      const double seconds = timer.seconds() / trials;
      // The slice-aware split can hand back an empty holdout on
      // degenerate inputs; 0 then reads as "no validation".
      const double val =
          last.val_rmse.empty() ? 0.0 : last.val_rmse.back();
      std::printf("%-6s %8d %10.4f %12.4f %12.4f %6d\n", alg_name.c_str(),
                  nthreads, seconds, last.train_rmse.back(), val,
                  last.best_iteration);
      std::fflush(stdout);

      JsonRecord record;
      record.field("alg", alg_name)
          .field("threads", static_cast<std::int64_t>(nthreads))
          .field("steals",
                 static_cast<std::int64_t>(work_steal_count() -
                                           steals_before))
          .field("seconds", seconds)
          .field("train_rmse", last.train_rmse.back())
          .field("val_rmse", val)
          .field("iterations", static_cast<std::int64_t>(last.iterations))
          .field("best_iteration",
                 static_cast<std::int64_t>(last.best_iteration));
      emit_json_record(cli, "completion", std::move(record));
    }
  }
  return 0;
}
