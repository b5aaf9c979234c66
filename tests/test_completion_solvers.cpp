// Tests for the pluggable completion-solver subsystem: ALS / SGD / CCD++
// cross-equivalence on a noiseless low-rank tensor, across schedule
// policies and thread counts, plus the fixed-vs-generic kernel-path
// equivalence the kernel routing contract requires.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "completion/completion.hpp"
#include "tensor/synthetic.hpp"

namespace sptd {
namespace {

// A noiseless rank-2 tensor: every solver must drive the training RMSE
// essentially to zero (values are O(1), so these are relative errors).
SparseTensor solver_fixture() {
  return generate_low_rank({16, 14, 12}, 2, 1100, 0.0, 4001);
}

CompletionOptions solver_options(CompletionAlgorithm alg) {
  CompletionOptions opts;
  opts.algorithm = alg;
  opts.rank = 2;
  opts.tolerance = 0.0;
  opts.seed = 77;
  switch (alg) {
    case CompletionAlgorithm::kAls:
      opts.max_iterations = 30;
      opts.regularization = 1e-6;
      break;
    case CompletionAlgorithm::kSgd:
      opts.max_iterations = 250;
      opts.regularization = 1e-5;
      opts.learn_rate = 0.05;
      opts.decay = 0.002;
      break;
    case CompletionAlgorithm::kCcd:
      opts.max_iterations = 60;
      opts.regularization = 1e-6;
      break;
  }
  return opts;
}

double converged_rmse_bound(CompletionAlgorithm alg) {
  // Values are O(1), so these are relative errors: two orders of
  // magnitude under the data scale demonstrates real completion (ALS and
  // CCD++ plateau at a small regularization-bias floor; SGD is
  // first-order stochastic, so its bound is looser).
  return alg == CompletionAlgorithm::kSgd ? 5e-2 : 1e-2;
}

// ------------------------------------------------------- alg parsing

TEST(CompletionAlg, ParsesAndNames) {
  EXPECT_EQ(parse_completion_algorithm("als"), CompletionAlgorithm::kAls);
  EXPECT_EQ(parse_completion_algorithm("sgd"), CompletionAlgorithm::kSgd);
  EXPECT_EQ(parse_completion_algorithm("ccd"), CompletionAlgorithm::kCcd);
  EXPECT_EQ(parse_completion_algorithm("ccd++"), CompletionAlgorithm::kCcd);
  EXPECT_THROW(parse_completion_algorithm("lbfgs"), Error);
  for (const auto alg :
       {CompletionAlgorithm::kAls, CompletionAlgorithm::kSgd,
        CompletionAlgorithm::kCcd}) {
    EXPECT_EQ(parse_completion_algorithm(completion_algorithm_name(alg)),
              alg);
  }
}

// -------------------------------------------------- cross-equivalence

TEST(CompletionSolvers, AllConvergeAcrossSchedulesAndThreads) {
  const SparseTensor train = solver_fixture();
  const SchedulePolicy policies[] = {SchedulePolicy::kWeighted,
                                     SchedulePolicy::kWorkStealing};
  for (const auto alg :
       {CompletionAlgorithm::kAls, CompletionAlgorithm::kSgd,
        CompletionAlgorithm::kCcd}) {
    for (const auto policy : policies) {
      for (const int nthreads : {1, 2, 4}) {
        CompletionOptions opts = solver_options(alg);
        opts.schedule = policy;
        opts.nthreads = nthreads;
        const CompletionResult r = complete_tensor(train, nullptr, opts);
        ASSERT_FALSE(r.train_rmse.empty());
        EXPECT_LT(r.train_rmse.back(), converged_rmse_bound(alg))
            << completion_algorithm_name(alg) << " schedule "
            << schedule_policy_name(policy) << " threads " << nthreads;
      }
    }
  }
}

TEST(CompletionSolvers, SgdIsBitwiseDeterministicAtFixedThreadCount) {
  const SparseTensor train = solver_fixture();
  for (const int nthreads : {1, 3}) {
    CompletionOptions opts = solver_options(CompletionAlgorithm::kSgd);
    opts.max_iterations = 15;
    opts.nthreads = nthreads;
    const CompletionResult a = complete_tensor(train, nullptr, opts);
    const CompletionResult b = complete_tensor(train, nullptr, opts);
    ASSERT_EQ(a.train_rmse.size(), b.train_rmse.size());
    for (std::size_t i = 0; i < a.train_rmse.size(); ++i) {
      EXPECT_EQ(a.train_rmse[i], b.train_rmse[i]);
    }
    for (int m = 0; m < train.order(); ++m) {
      const auto& fa = a.model.factors[static_cast<std::size_t>(m)];
      const auto& fb = b.model.factors[static_cast<std::size_t>(m)];
      ASSERT_EQ(fa.values().size(), fb.values().size());
      for (std::size_t i = 0; i < fa.values().size(); ++i) {
        EXPECT_EQ(fa.values()[i], fb.values()[i]) << "mode " << m;
      }
    }
  }
}

TEST(CompletionSolvers, AlsAndCcdThreadCountInvariant) {
  // ALS rows and CCD++ (row, column) coordinates are updated from inputs
  // no other concurrent update writes, so the arithmetic is identical at
  // any thread count (SGD intentionally is not: its strata depend on the
  // team size).
  const SparseTensor train = solver_fixture();
  for (const auto alg :
       {CompletionAlgorithm::kAls, CompletionAlgorithm::kCcd}) {
    CompletionOptions opts = solver_options(alg);
    opts.max_iterations = 6;
    opts.nthreads = 1;
    const CompletionResult serial = complete_tensor(train, nullptr, opts);
    opts.nthreads = 4;
    opts.schedule = SchedulePolicy::kWorkStealing;
    const CompletionResult parallel = complete_tensor(train, nullptr, opts);
    EXPECT_NEAR(serial.train_rmse.back(), parallel.train_rmse.back(), 1e-10)
        << completion_algorithm_name(alg);
  }
}

// ------------------------------------------- kernel-path equivalence

TEST(CompletionSolvers, FixedKernelsMatchGenericReferenceAt1e12) {
  // The solvers' inner loops run through RowOps<W>: W > 0 selects the
  // rank-specialized SIMD primitives, W = 0 the scalar reference loops.
  // Both paths must agree to 1e-12 on every factor entry. rank 4 has an
  // exact fixed-width instantiation; rank 3 exercises the padded-width
  // promotion (3 -> 8 over zero padding lanes).
  const SparseTensor train = solver_fixture();
  for (const idx_t rank : {idx_t{3}, idx_t{4}}) {
    for (const auto alg :
         {CompletionAlgorithm::kAls, CompletionAlgorithm::kSgd,
          CompletionAlgorithm::kCcd}) {
      CompletionOptions opts = solver_options(alg);
      opts.rank = rank;
      opts.max_iterations = 5;
      opts.nthreads = 2;
      opts.use_fixed_kernels = true;
      const CompletionResult fixed = complete_tensor(train, nullptr, opts);
      opts.use_fixed_kernels = false;
      const CompletionResult generic =
          complete_tensor(train, nullptr, opts);
      for (int m = 0; m < train.order(); ++m) {
        const auto& ff = fixed.model.factors[static_cast<std::size_t>(m)];
        const auto& fg =
            generic.model.factors[static_cast<std::size_t>(m)];
        for (idx_t i = 0; i < ff.rows(); ++i) {
          for (idx_t j = 0; j < ff.cols(); ++j) {
            EXPECT_NEAR(ff(i, j), fg(i, j), 1e-12)
                << completion_algorithm_name(alg) << " rank " << rank
                << " mode " << m;
          }
        }
      }
    }
  }
}

// ----------------------------------------------------- SGD specifics

TEST(CompletionSolvers, SgdLearningRateDecayIsApplied) {
  // With a huge decay the step collapses after the first epochs and the
  // model barely moves; with zero decay it keeps training. Distinguishes
  // the two to prove the knob reaches the update.
  const SparseTensor train = solver_fixture();
  CompletionOptions opts = solver_options(CompletionAlgorithm::kSgd);
  opts.max_iterations = 60;
  opts.decay = 0.0;
  const CompletionResult no_decay = complete_tensor(train, nullptr, opts);
  opts.decay = 1e4;
  const CompletionResult frozen = complete_tensor(train, nullptr, opts);
  EXPECT_LT(no_decay.train_rmse.back(), 0.5 * frozen.train_rmse.back());
}

TEST(CompletionSolvers, SgdRejectsBadHyperparameters) {
  const SparseTensor train = solver_fixture();
  CompletionOptions opts = solver_options(CompletionAlgorithm::kSgd);
  opts.learn_rate = 0.0;
  EXPECT_THROW(complete_tensor(train, nullptr, opts), Error);
  opts = solver_options(CompletionAlgorithm::kSgd);
  opts.decay = -1.0;
  EXPECT_THROW(complete_tensor(train, nullptr, opts), Error);
}

// ------------------------------------------------------ higher order

TEST(CompletionSolvers, AllSolversHandleFourthOrderTensors) {
  const SparseTensor train = generate_low_rank({9, 8, 7, 6}, 2, 900, 0.0, 4002);
  for (const auto alg :
       {CompletionAlgorithm::kAls, CompletionAlgorithm::kSgd,
        CompletionAlgorithm::kCcd}) {
    CompletionOptions opts = solver_options(alg);
    opts.nthreads = 2;
    const CompletionResult r = complete_tensor(train, nullptr, opts);
    EXPECT_LT(r.train_rmse.back(), converged_rmse_bound(alg))
        << completion_algorithm_name(alg);
  }
}

}  // namespace
}  // namespace sptd
