/// \file completion_demo.cpp
/// \brief Tensor completion on a ratings-style tensor: hold out a fraction
///        of the observed entries, fit the rest with each of the three
///        solvers (ALS / SGD / CCD++), and predict the holdout.
///
///   $ ./completion_demo --rank 8 --holdout 0.2
///
/// This is SPLATT's "CP with missing values" use case: unlike plain
/// CP-ALS — which treats unobserved cells as zeros — completion fits only
/// the observed entries and can therefore *predict* the held-out ones.
/// The demo runs every solver of the completion subsystem on the same
/// split, then a plain CP-ALS for contrast, to make both differences
/// concrete: solver vs solver, and completion vs zero-filling.

#include <cstdio>

#include "sptd.hpp"

int main(int argc, char** argv) {
  using namespace sptd;

  Options cli("completion_demo",
              "tensor completion (als|sgd|ccd) vs plain CP-ALS");
  cli.add("rank", "8", "model rank");
  cli.add("holdout", "0.2", "fraction of entries held out for testing");
  cli.add("iters", "30", "max iterations per solver");
  cli.add("reg", "1e-3", "Tikhonov regularization");
  cli.add("lr", "0.02", "SGD learning rate");
  cli.add("decay", "0.01", "SGD learning-rate decay");
  cli.add("schedule", "weighted",
          "slice scheduling policy weighted|workstealing");
  cli.add("threads", "0", "worker threads (0 = all)");
  cli.add("seed", "42", "seed");
  if (!cli.parse(argc, argv)) {
    return 0;
  }

  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  int nthreads = static_cast<int>(cli.get_int("threads"));
  if (nthreads <= 0) nthreads = hardware_threads();

  // "Ratings" data: a rank-4 user x item x context tensor observed at a
  // random 4% of cells, plus noise.
  std::printf("generating a noisy rank-4 ratings tensor ...\n");
  SparseTensor observed = generate_low_rank({400, 300, 50}, 4,
                                            /*nnz=*/240000, /*noise=*/0.05,
                                            seed);
  auto [train, test] = split_train_test(
      observed, cli.get_double("holdout"), seed + 1);
  std::printf("observed %llu entries -> train %llu, holdout %llu\n",
              static_cast<unsigned long long>(observed.nnz()),
              static_cast<unsigned long long>(train.nnz()),
              static_cast<unsigned long long>(test.nnz()));

  // --- The completion solvers (each fits observed entries only). ---
  CompletionOptions copts;
  copts.rank = static_cast<idx_t>(cli.get_int("rank"));
  copts.max_iterations = static_cast<int>(cli.get_int("iters"));
  copts.regularization = cli.get_double("reg");
  copts.learn_rate = cli.get_double("lr");
  copts.decay = cli.get_double("decay");
  copts.schedule = parse_schedule_policy(cli.get_string("schedule"));
  copts.nthreads = nthreads;
  copts.seed = seed + 2;

  double best_holdout = 1e30;
  std::printf("\n%-6s %10s %12s %12s %6s %6s\n", "alg", "iterations",
              "train RMSE", "holdout RMSE", "best", "sec");
  for (const auto alg :
       {CompletionAlgorithm::kAls, CompletionAlgorithm::kSgd,
        CompletionAlgorithm::kCcd}) {
    CompletionOptions opts = copts;
    opts.algorithm = alg;
    // SGD epochs are cheaper than ALS/CCD sweeps; give it more of them.
    if (alg == CompletionAlgorithm::kSgd) {
      opts.max_iterations *= 4;
    }
    WallTimer timer;
    timer.start();
    const CompletionResult r = complete_tensor(train, &test, opts);
    timer.stop();
    std::printf("%-6s %10d %12.4f %12.4f %6d %6.2f\n",
                completion_algorithm_name(alg), r.iterations,
                r.train_rmse.back(),
                r.val_rmse.empty() ? 0.0 : r.val_rmse.back(),
                r.best_iteration, timer.seconds());
    best_holdout = std::min(best_holdout, rmse(test, r.model, nthreads));
  }

  // --- Plain CP-ALS on the zero-filled tensor, for contrast. ---
  CpalsOptions aopts;
  aopts.rank = copts.rank;
  aopts.max_iterations = copts.max_iterations;
  aopts.nthreads = nthreads;
  aopts.seed = seed + 2;
  SparseTensor train_copy = train;
  const CpalsResult cpals = cp_als(train_copy, aopts);
  const double cpals_holdout = rmse(test, cpals.model, nthreads);
  std::printf("\nplain CP-ALS (zeros assumed): holdout RMSE %.4f\n",
              cpals_holdout);

  std::printf("completion beats zero-filled CP on held-out entries by "
              "%.1fx\n", cpals_holdout / std::max(1e-12, best_holdout));
  return 0;
}
