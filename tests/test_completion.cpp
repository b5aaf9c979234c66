// Tests for src/completion: tensor completion with missing values (the
// ALS default path of the solver subsystem; cross-solver coverage lives
// in test_completion_solvers.cpp).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "common/error.hpp"
#include "completion/completion.hpp"
#include "cpd/cpals.hpp"
#include "tensor/synthetic.hpp"

namespace sptd {
namespace {

// ------------------------------------------------------------------ rmse

TEST(Rmse, ZeroForPerfectModel) {
  Rng rng(1);
  KruskalModel model;
  model.lambda = {1.0, 1.0};
  model.factors.push_back(la::Matrix::random(6, 2, rng));
  model.factors.push_back(la::Matrix::random(7, 2, rng));
  SparseTensor x({6, 7});
  for (idx_t i = 0; i < 6; ++i) {
    for (idx_t j = 0; j < 7; j += 2) {
      const idx_t c[] = {i, j};
      x.push_back(c, model.value_at(c));
    }
  }
  EXPECT_NEAR(rmse(x, model, 2), 0.0, 1e-12);
}

TEST(Rmse, KnownErrorValue) {
  KruskalModel model;
  model.lambda = {1.0};
  model.factors.emplace_back(2, 1, 1.0);
  model.factors.emplace_back(2, 1, 1.0);
  // Model predicts 1.0 everywhere; observations are 1 and 4 -> errors 0,3.
  SparseTensor x({2, 2});
  const idx_t c0[] = {0, 0};
  const idx_t c1[] = {1, 1};
  x.push_back(c0, 1.0);
  x.push_back(c1, 4.0);
  EXPECT_NEAR(rmse(x, model, 1), std::sqrt((0.0 + 9.0) / 2.0), 1e-12);
}

TEST(Rmse, EmptySetIsZero) {
  KruskalModel model;
  model.lambda = {1.0};
  model.factors.emplace_back(2, 1, 1.0);
  model.factors.emplace_back(2, 1, 1.0);
  SparseTensor empty({2, 2});
  EXPECT_EQ(rmse(empty, model, 1), 0.0);
}

// ----------------------------------------------------------------- split

TEST(Split, PartitionsAllNonzeros) {
  const SparseTensor t = generate_synthetic(
      {.dims = {40, 40, 40}, .nnz = 5000, .seed = 3000});
  const auto [train, test] = split_train_test(t, 0.2, 9);
  EXPECT_EQ(train.nnz() + test.nnz(), t.nnz());
  EXPECT_EQ(train.dims(), t.dims());
  EXPECT_EQ(test.dims(), t.dims());
  // Roughly the requested fraction held out.
  EXPECT_NEAR(static_cast<double>(test.nnz()) / t.nnz(), 0.2, 0.05);
}

TEST(Split, DeterministicInSeed) {
  const SparseTensor t = generate_synthetic(
      {.dims = {30, 30, 30}, .nnz = 1000, .seed = 3001});
  const auto [train_a, test_a] = split_train_test(t, 0.3, 7);
  const auto [train_b, test_b] = split_train_test(t, 0.3, 7);
  EXPECT_EQ(train_a.nnz(), train_b.nnz());
  for (nnz_t x = 0; x < test_a.nnz(); ++x) {
    EXPECT_EQ(test_a.coord(x), test_b.coord(x));
  }
}

TEST(Split, InvalidFractionThrows) {
  const SparseTensor t = generate_synthetic(
      {.dims = {10, 10}, .nnz = 20, .seed = 3002});
  EXPECT_THROW(split_train_test(t, 0.0, 1), Error);
  EXPECT_THROW(split_train_test(t, 1.0, 1), Error);
}

TEST(Split, EveryNonemptySliceKeepsATrainingEntry) {
  // Adversarial fixture: a pure diagonal — every slice of every mode has
  // exactly ONE nonzero — plus a dense corner block so the holdout side
  // stays nonempty. At 90% holdout an unrepaired split would orphan most
  // diagonal slices, leaving their factor rows determined purely by
  // regularization.
  SparseTensor t({24, 24, 24});
  for (idx_t i = 4; i < 24; ++i) {
    const idx_t c[] = {i, i, i};
    t.push_back(c, 1.0 + 0.1 * static_cast<double>(i));
  }
  for (idx_t i = 0; i < 4; ++i) {
    for (idx_t j = 0; j < 4; ++j) {
      for (idx_t k = 0; k < 4; ++k) {
        const idx_t c[] = {i, j, k};
        t.push_back(c, 2.0);
      }
    }
  }
  const auto [train, test] = split_train_test(t, 0.9, 5);
  EXPECT_EQ(train.nnz() + test.nnz(), t.nnz());
  EXPECT_GT(test.nnz(), 0u);
  for (int m = 0; m < t.order(); ++m) {
    std::vector<nnz_t> total(t.dim(m), 0);
    std::vector<nnz_t> in_train(t.dim(m), 0);
    for (nnz_t x = 0; x < t.nnz(); ++x) {
      ++total[t.ind(m)[x]];
    }
    for (nnz_t x = 0; x < train.nnz(); ++x) {
      ++in_train[train.ind(m)[x]];
    }
    for (idx_t i = 0; i < t.dim(m); ++i) {
      if (total[i] > 0) {
        EXPECT_GE(in_train[i], 1u) << "mode " << m << " slice " << i;
      }
    }
  }
}

// ------------------------------------------------------------ completion

TEST(Completion, RecoversHeldOutEntriesOfLowRankTensor) {
  // The central property: fitting only 80% of a low-rank tensor's entries
  // must predict the held-out 20% accurately — this is what CP-ALS on the
  // zero-filled tensor cannot do.
  const SparseTensor full =
      generate_low_rank({25, 20, 15}, 3, 3000, 0.0, 3003);
  const auto [train, test] = split_train_test(full, 0.2, 11);

  CompletionOptions opts;
  opts.rank = 3;
  opts.max_iterations = 25;
  opts.regularization = 1e-3;
  opts.tolerance = 0.0;
  opts.nthreads = 2;
  const CompletionResult r = complete_tensor(train, &test, opts);

  ASSERT_FALSE(r.train_rmse.empty());
  ASSERT_FALSE(r.val_rmse.empty());
  // Values are O(1); recovering the held-out set to <5% of that scale
  // demonstrates real completion.
  EXPECT_LT(r.train_rmse.back(), 0.02);
  EXPECT_LT(r.val_rmse.back(), 0.05);
}

TEST(Completion, SmokeRmseStaysWithinFourTimesRecorded) {
  // The completion smoke (bench_completion --preset yelp --scale 0.005
  // --rank 8 --iters 5 --threads-list 1,2). Each solver's train and
  // holdout RMSE must stay within 4x of the value that smoke recorded,
  // and train RMSE below 0.5: the data is low-rank with O(1) values, so
  // past that a solver has diverged or gone inert.
  const auto cfg = find_preset("yelp").scaled(0.005, 42);
  const SparseTensor full = generate_low_rank(cfg.dims, 4, cfg.nnz, 0.05, 42);
  const auto [train, test] = split_train_test(full, 0.2, 43);
  struct Recorded {
    CompletionAlgorithm alg;
    int nthreads;
    double train_rmse;
    double val_rmse;
  };
  const Recorded recorded[] = {
      {CompletionAlgorithm::kAls, 1, 0.046178162, 0.0569196239},
      {CompletionAlgorithm::kAls, 2, 0.046178162, 0.0569196239},
      {CompletionAlgorithm::kSgd, 1, 0.144506454, 0.150229462},
      {CompletionAlgorithm::kSgd, 2, 0.144539296, 0.150328594},
      {CompletionAlgorithm::kCcd, 1, 0.0509042377, 0.0610033391},
      {CompletionAlgorithm::kCcd, 2, 0.0509042377, 0.0610033391},
  };
  for (const Recorded& row : recorded) {
    CompletionOptions opts;
    opts.algorithm = row.alg;
    opts.nthreads = row.nthreads;
    opts.rank = 8;
    opts.max_iterations = 5;
    opts.tolerance = 0.0;
    opts.regularization = 1e-3;
    opts.seed = 44;
    const CompletionResult r = complete_tensor(train, &test, opts);
    const std::string what = std::string(completion_algorithm_name(row.alg)) +
                             " x" + std::to_string(row.nthreads);
    ASSERT_FALSE(r.val_rmse.empty()) << what;
    EXPECT_LE(r.train_rmse.back(), std::min(4.0 * row.train_rmse, 0.5))
        << what;
    EXPECT_LE(r.val_rmse.back(), 4.0 * row.val_rmse) << what;
  }
}

TEST(Completion, TrainRmseDecreases) {
  const SparseTensor full =
      generate_low_rank({20, 20, 20}, 2, 2500, 0.05, 3004);
  const auto [train, test] = split_train_test(full, 0.25, 13);
  CompletionOptions opts;
  opts.rank = 4;
  opts.max_iterations = 10;
  opts.tolerance = 0.0;
  const CompletionResult r = complete_tensor(train, nullptr, opts);
  ASSERT_EQ(r.train_rmse.size(), 10u);
  EXPECT_LT(r.train_rmse.back(), r.train_rmse.front());
}

TEST(Completion, EarlyStoppingOnValidation) {
  const SparseTensor full =
      generate_low_rank({18, 18, 18}, 2, 2000, 0.2, 3005);
  const auto [train, test] = split_train_test(full, 0.3, 17);
  CompletionOptions opts;
  opts.rank = 6;  // overfit-prone: validation should stop early
  opts.max_iterations = 200;
  opts.tolerance = 1e-4;
  const CompletionResult r = complete_tensor(train, &test, opts);
  EXPECT_LT(r.iterations, 200);
}

TEST(Completion, ReturnsBestValidationModelNotLast) {
  // Overfit-prone setup with early stopping disabled: training runs past
  // the validation minimum, so the last iteration's factors are strictly
  // worse on the holdout than the best iteration's. The result must carry
  // the best-iteration factors (SPLATT's best-model behavior), and
  // best_iteration must point at the argmin of val_rmse.
  const SparseTensor full =
      generate_low_rank({18, 18, 18}, 2, 1800, 0.25, 3105);
  const auto [train, test] = split_train_test(full, 0.3, 21);
  CompletionOptions opts;
  opts.rank = 8;
  opts.max_iterations = 60;
  opts.regularization = 1e-4;
  opts.tolerance = 0.0;  // no early stop: force the run past the minimum
  opts.nthreads = 2;
  const CompletionResult r = complete_tensor(train, &test, opts);
  ASSERT_EQ(r.val_rmse.size(), static_cast<std::size_t>(r.iterations));

  const auto best_it = std::min_element(r.val_rmse.begin(), r.val_rmse.end());
  const int argmin = static_cast<int>(best_it - r.val_rmse.begin()) + 1;
  EXPECT_EQ(r.best_iteration, argmin);
  // The fixture must actually regress (otherwise it proves nothing).
  ASSERT_LT(r.best_iteration, r.iterations);
  ASSERT_GT(r.val_rmse.back(), *best_it);
  // The returned factors score exactly the recorded best, not the last.
  EXPECT_NEAR(rmse(test, r.model, opts.nthreads), *best_it, 1e-12);
}

TEST(Completion, EmptyHoldoutFromSliceAwareSplitIsHandled) {
  // A strictly diagonal tensor: every slice of every mode has exactly one
  // nonzero, so the slice-aware repair returns EVERY held-out entry to
  // the train side and the holdout comes back empty at any fraction.
  // complete_tensor must treat that like "no validation": empty val_rmse,
  // best_iteration = last, no crash.
  SparseTensor t({16, 16, 16});
  for (idx_t i = 0; i < 16; ++i) {
    const idx_t c[] = {i, i, i};
    t.push_back(c, 1.0 + 0.25 * static_cast<double>(i));
  }
  const auto [train, test] = split_train_test(t, 0.9, 3);
  EXPECT_EQ(train.nnz(), t.nnz());
  EXPECT_EQ(test.nnz(), 0u);
  CompletionOptions opts;
  opts.rank = 2;
  opts.max_iterations = 3;
  const CompletionResult r = complete_tensor(train, &test, opts);
  EXPECT_TRUE(r.val_rmse.empty());
  EXPECT_EQ(r.best_iteration, r.iterations);
  EXPECT_EQ(r.train_rmse.size(), 3u);
}

TEST(Completion, BestIterationIsLastWithoutValidation) {
  const SparseTensor full =
      generate_low_rank({12, 12, 12}, 2, 800, 0.0, 3106);
  CompletionOptions opts;
  opts.rank = 2;
  opts.max_iterations = 5;
  opts.tolerance = 0.0;
  const CompletionResult r = complete_tensor(full, nullptr, opts);
  EXPECT_EQ(r.best_iteration, r.iterations);
}

TEST(Completion, DeterministicInSeed) {
  const SparseTensor full =
      generate_low_rank({15, 15, 15}, 2, 1200, 0.0, 3006);
  const auto [train, test] = split_train_test(full, 0.2, 19);
  CompletionOptions opts;
  opts.rank = 2;
  opts.max_iterations = 5;
  opts.tolerance = 0.0;
  const CompletionResult a = complete_tensor(train, nullptr, opts);
  const CompletionResult b = complete_tensor(train, nullptr, opts);
  ASSERT_EQ(a.train_rmse.size(), b.train_rmse.size());
  for (std::size_t i = 0; i < a.train_rmse.size(); ++i) {
    EXPECT_EQ(a.train_rmse[i], b.train_rmse[i]);
  }
}

TEST(Completion, ThreadCountDoesNotChangeResultMuch) {
  const SparseTensor full =
      generate_low_rank({20, 16, 12}, 2, 1500, 0.0, 3007);
  const auto [train, test] = split_train_test(full, 0.2, 23);
  CompletionOptions opts;
  opts.rank = 2;
  opts.max_iterations = 8;
  opts.tolerance = 0.0;
  opts.nthreads = 1;
  const CompletionResult serial = complete_tensor(train, nullptr, opts);
  opts.nthreads = 4;
  const CompletionResult parallel = complete_tensor(train, nullptr, opts);
  EXPECT_NEAR(serial.train_rmse.back(), parallel.train_rmse.back(), 1e-8);
}

TEST(Completion, UnobservedRowsKeepFiniteValues) {
  // A tensor where several slices have no observations at all.
  SparseTensor train({10, 10, 10});
  Rng rng(29);
  for (int k = 0; k < 50; ++k) {
    const idx_t c[] = {rng.next_index(5), rng.next_index(5),
                       rng.next_index(5)};  // only the first half of rows
    train.push_back(c, 1.0 + rng.next_double());
  }
  CompletionOptions opts;
  opts.rank = 2;
  opts.max_iterations = 5;
  const CompletionResult r = complete_tensor(train, nullptr, opts);
  for (const auto& f : r.model.factors) {
    for (const val_t v : f.values()) {
      EXPECT_TRUE(std::isfinite(v));
    }
  }
}

TEST(Completion, RejectsBadInputs) {
  SparseTensor empty({5, 5});
  CompletionOptions opts;
  EXPECT_THROW(complete_tensor(empty, nullptr, opts), Error);

  SparseTensor ok({5, 5});
  const idx_t c[] = {0, 0};
  ok.push_back(c, 1.0);
  opts.rank = 0;
  EXPECT_THROW(complete_tensor(ok, nullptr, opts), Error);
  opts.rank = 2;
  opts.max_iterations = 0;
  EXPECT_THROW(complete_tensor(ok, nullptr, opts), Error);
}

// --------------------------------------------------------- nonnegative CP

TEST(NonnegativeCp, FactorsAreNonnegative) {
  SparseTensor x = generate_synthetic(
      {.dims = {30, 25, 20}, .nnz = 3000, .seed = 3008});
  CpalsOptions opts;
  opts.rank = 5;
  opts.max_iterations = 8;
  opts.tolerance = 0.0;
  opts.nonnegative = true;
  opts.nthreads = 2;
  const CpalsResult r = cp_als(x, opts);
  for (const auto& f : r.model.factors) {
    for (const val_t v : f.values()) {
      EXPECT_GE(v, 0.0);
    }
  }
  EXPECT_TRUE(std::isfinite(r.fit_history.back()));
}

TEST(NonnegativeCp, FitsNonnegativeLowRankData) {
  // U[0,1) factors generate strictly non-negative data, so the projection
  // should not prevent a good fit.
  SparseTensor x = generate_full_low_rank({14, 12, 10}, 3, 0.0, 3009);
  CpalsOptions opts;
  opts.rank = 5;
  opts.max_iterations = 60;
  opts.tolerance = 0.0;
  opts.nonnegative = true;
  const CpalsResult r = cp_als(x, opts);
  EXPECT_GT(r.fit_history.back(), 0.98);
}

}  // namespace
}  // namespace sptd
