// Tests for the execution-plan layer: SchedulePolicy / SliceSchedule
// partition invariants, team dispatch, MttkrpPlan vs the planless path,
// and the "hot loop does zero planning" guarantee.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "cpd/cpals.hpp"
#include "csf/csf.hpp"
#include "mttkrp/mttkrp.hpp"
#include "mttkrp/plan.hpp"
#include "parallel/partition.hpp"
#include "parallel/schedule.hpp"
#include "parallel/team.hpp"
#include "tensor/synthetic.hpp"

namespace sptd {
namespace {

constexpr SchedulePolicy kAllPolicies[] = {SchedulePolicy::kWeighted,
                                           SchedulePolicy::kWorkStealing};

std::vector<nnz_t> uniform_prefix(nnz_t total) {
  std::vector<nnz_t> prefix(static_cast<std::size_t>(total) + 1);
  std::iota(prefix.begin(), prefix.end(), nnz_t{0});
  return prefix;
}

/// Skewed weights: item i weighs 1 + (i % 17 == 0 ? 50 : 0).
std::vector<nnz_t> skewed_prefix(nnz_t total) {
  std::vector<nnz_t> prefix(static_cast<std::size_t>(total) + 1, 0);
  for (nnz_t i = 0; i < total; ++i) {
    prefix[static_cast<std::size_t>(i) + 1] =
        prefix[static_cast<std::size_t>(i)] + 1 + (i % 17 == 0 ? 50 : 0);
  }
  return prefix;
}

/// Runs the schedule on a real team and records how often each slice was
/// visited; every policy must cover [0, total) exactly once.
void expect_exact_coverage(const SliceSchedule& sched, nnz_t total,
                           int nthreads) {
  std::vector<std::atomic<int>> visits(static_cast<std::size_t>(total));
  sched.reset();
  parallel_region(nthreads, [&](int tid, int) {
    sched.for_ranges(tid, [&](nnz_t begin, nnz_t end) {
      ASSERT_LE(begin, end);
      ASSERT_LE(end, total);
      for (nnz_t s = begin; s < end; ++s) {
        visits[static_cast<std::size_t>(s)].fetch_add(1);
      }
    });
  });
  for (nnz_t s = 0; s < total; ++s) {
    EXPECT_EQ(visits[static_cast<std::size_t>(s)].load(), 1)
        << "slice " << s;
  }
}

// ------------------------------------------------------------ parse/name

TEST(SchedulePolicy, ParseRoundTrips) {
  for (const SchedulePolicy p : kAllPolicies) {
    EXPECT_EQ(parse_schedule_policy(schedule_policy_name(p)), p);
  }
  EXPECT_THROW(parse_schedule_policy("guided"), Error);
}

TEST(SchedulePolicy, ParseRefusesDynamic) {
  // OpenMP's shared-cursor `dynamic` and equal-count `static` are not
  // policies: their names are refused like any other, and the message
  // lists the policies that exist.
  for (const char* name : {"dynamic", "static"}) {
    try {
      (void)parse_schedule_policy(name);
      ADD_FAILURE() << name << " accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("(expected weighted|workstealing)"),
                std::string::npos)
          << e.what();
    }
  }
}

// ----------------------------------------------------- partition shapes

TEST(SliceSchedule, EmptyPrefixBoundsCoverDisjointly) {
  // Without weights both policies cut equal slice counts: the weighted
  // bounds and the work-stealing seed alike.
  for (const SchedulePolicy policy : kAllPolicies) {
    for (const nnz_t total : {0ULL, 1ULL, 7ULL, 100ULL, 10007ULL}) {
      for (const int threads : {1, 2, 3, 8, 32}) {
        const SliceSchedule sched(policy, total, {}, threads);
        const auto bounds = sched.bounds();
        ASSERT_EQ(bounds.size(), static_cast<std::size_t>(threads) + 1);
        EXPECT_EQ(bounds.front(), 0u);
        EXPECT_EQ(bounds.back(), total);
        for (int t = 0; t < threads; ++t) {
          EXPECT_LE(bounds[static_cast<std::size_t>(t)],
                    bounds[static_cast<std::size_t>(t) + 1]);
          // Equal split: sizes differ by at most one.
          const nnz_t size = bounds[static_cast<std::size_t>(t) + 1] -
                             bounds[static_cast<std::size_t>(t)];
          EXPECT_LE(size, total / static_cast<nnz_t>(threads) + 1);
        }
      }
    }
  }
}

TEST(SliceSchedule, WeightedBoundsBalanceSkewedWeights) {
  const nnz_t total = 500;
  const auto prefix = skewed_prefix(total);
  const nnz_t weight_total = prefix.back();
  for (const int threads : {2, 4, 8}) {
    const SliceSchedule sched(SchedulePolicy::kWeighted, total, prefix,
                              threads);
    const auto bounds = sched.bounds();
    ASSERT_EQ(bounds.size(), static_cast<std::size_t>(threads) + 1);
    EXPECT_EQ(bounds.front(), 0u);
    EXPECT_EQ(bounds.back(), total);
    // Every part's weight stays within one max item of the ideal share.
    const nnz_t ideal = weight_total / static_cast<nnz_t>(threads);
    for (int t = 0; t < threads; ++t) {
      const nnz_t w = prefix[static_cast<std::size_t>(
                          bounds[static_cast<std::size_t>(t) + 1])] -
                      prefix[static_cast<std::size_t>(
                          bounds[static_cast<std::size_t>(t)])];
      EXPECT_LE(w, ideal + 51) << "part " << t;
    }
  }
}

TEST(SliceSchedule, WeightedWithoutWeightsCutsEqualCounts) {
  // The empty-prefix fallback keeps the policy and cuts OpenMP's
  // schedule(static) blocks: sizes 3, 3, 2, 2 for 10 slices on 4 threads.
  const SliceSchedule sched(SchedulePolicy::kWeighted, 10, {}, 4);
  EXPECT_EQ(sched.policy(), SchedulePolicy::kWeighted);
  EXPECT_EQ(std::vector<nnz_t>(sched.bounds().begin(), sched.bounds().end()),
            (std::vector<nnz_t>{0, 3, 6, 8, 10}));
  EXPECT_EQ(sched.chunk_count(), 0u);
}

// ------------------------------------------------------------- coverage

TEST(SliceSchedule, EveryPolicyCoversEachSliceExactlyOnce) {
  for (const SchedulePolicy policy : kAllPolicies) {
    for (const nnz_t total : {0ULL, 1ULL, 5ULL, 1000ULL}) {
      for (const int threads : {1, 4, 16}) {  // 16 oversubscribes this box
        const auto prefix = uniform_prefix(total);
        const SliceSchedule sched(policy, total, prefix, threads);
        expect_exact_coverage(sched, total, threads);
      }
    }
  }
}

TEST(SliceSchedule, WorkStealingReusableAfterReset) {
  // The reset() contract that cached MTTKRP plans rely on: each launch
  // must reseed every deque, or the second iteration sees nothing.
  const nnz_t total = 64;
  const auto prefix = skewed_prefix(total);
  const SliceSchedule sched(SchedulePolicy::kWorkStealing, total, prefix, 4);
  expect_exact_coverage(sched, total, 4);
  expect_exact_coverage(sched, total, 4);
}

TEST(SliceSchedule, ReuseWithoutResetThrowsForRuntimePolicies) {
  // The launch-generation guard behind the reset() contract: a
  // work-stealing schedule admits at most nthreads workers per
  // generation, so forgetting reset() before the next parallel region
  // throws instead of silently iterating nothing (or double-issuing).
  const nnz_t total = 64;
  const auto prefix = uniform_prefix(total);
  const SliceSchedule sched(SchedulePolicy::kWorkStealing, total, prefix, 4);
  sched.reset();
  for (int tid = 0; tid < 4; ++tid) {
    sched.for_ranges(tid, [](nnz_t, nnz_t) {});
  }
  EXPECT_THROW(sched.for_ranges(0, [](nnz_t, nnz_t) {}), Error);
  // reset() opens a fresh generation and the schedule works again.
  expect_exact_coverage(sched, total, 4);
}

TEST(SliceSchedule, ResetAdvancesLaunchGeneration) {
  const SliceSchedule sched(SchedulePolicy::kWorkStealing, 16, {}, 2);
  const std::uint64_t g0 = sched.generation();
  sched.reset();
  sched.reset();
  EXPECT_EQ(sched.generation(), g0 + 2);
}

TEST(SliceSchedule, PrecomputedPoliciesHaveNoEntryBudget) {
  // Weighted bounds are pure functions of tid: re-entering without
  // reset() is harmless and must stay legal (kernels re-read bounds
  // freely), so the generation guard applies only to the stateful
  // runtime policy.
  const nnz_t total = 64;
  const auto prefix = uniform_prefix(total);
  const SliceSchedule sched(SchedulePolicy::kWeighted, total, prefix, 4);
  for (int round = 0; round < 3; ++round) {
    for (int tid = 0; tid < 4; ++tid) {
      EXPECT_NO_THROW(sched.for_ranges(tid, [](nnz_t, nnz_t) {}));
    }
  }
}

// --------------------------------------------------------- work stealing

TEST(SliceSchedule, WorkStealingSeedsFromWeightedPartition) {
  const nnz_t total = 500;
  const auto prefix = skewed_prefix(total);
  for (const int threads : {2, 4, 8}) {
    const SliceSchedule ws(SchedulePolicy::kWorkStealing, total, prefix,
                           threads);
    const SliceSchedule weighted(SchedulePolicy::kWeighted, total, prefix,
                                 threads);
    // Same first assignment as SPLATT's nnz balancing...
    ASSERT_EQ(ws.bounds().size(), weighted.bounds().size());
    for (std::size_t i = 0; i < ws.bounds().size(); ++i) {
      EXPECT_EQ(ws.bounds()[i], weighted.bounds()[i]) << "bound " << i;
    }
    // ...subdivided into a monotone chunk list covering [0, total).
    const auto chunks = ws.chunk_bounds();
    ASSERT_GE(chunks.size(), 2u);
    EXPECT_EQ(chunks.front(), 0u);
    EXPECT_EQ(chunks.back(), total);
    for (std::size_t i = 1; i < chunks.size(); ++i) {
      EXPECT_LT(chunks[i - 1], chunks[i]);
    }
    EXPECT_LE(ws.chunk_count(),
              static_cast<nnz_t>(threads) *
                  SliceSchedule::kDefaultChunkTarget);
  }
}

TEST(SliceSchedule, WorkStealingSerialThiefDrainsEveryVictim) {
  // Deterministic steal mechanics, no timing: drive for_ranges from
  // serial code. Thread 3 runs first — the limiting case of imbalance
  // where the other workers never arrive — so after draining its own
  // deque it must steal every other thread's chunks.
  const nnz_t total = 96;
  const SliceSchedule sched(SchedulePolicy::kWorkStealing, total, {}, 4,
                            /*chunk_target=*/4);
  sched.reset();
  const std::uint64_t sched_before = sched.steals();
  const std::uint64_t global_before = work_steal_count();
  std::vector<int> visits(static_cast<std::size_t>(total), 0);
  sched.for_ranges(3, [&](nnz_t begin, nnz_t end) {
    for (nnz_t s = begin; s < end; ++s) {
      ++visits[static_cast<std::size_t>(s)];
    }
  });
  for (nnz_t s = 0; s < total; ++s) {
    EXPECT_EQ(visits[static_cast<std::size_t>(s)], 1) << "slice " << s;
  }
  // Everything outside thread 3's own seed (3 victims x 4 chunks) was
  // stolen; the per-schedule and process-wide counters both saw it.
  EXPECT_EQ(sched.steals() - sched_before, 12u);
  EXPECT_EQ(work_steal_count() - global_before, 12u);
  // The other workers then find every deque (including their own) empty.
  sched.for_ranges(0, [](nnz_t, nnz_t) { FAIL() << "deques not drained"; });
}

TEST(SliceSchedule, WorkStealingOwnerAloneNeverSteals) {
  // One thread, one deque: the no-steal path must leave the counters
  // untouched.
  const nnz_t total = 64;
  const SliceSchedule sched(SchedulePolicy::kWorkStealing, total, {}, 1);
  const std::uint64_t before = sched.steals();
  expect_exact_coverage(sched, total, 1);
  EXPECT_EQ(sched.steals(), before);
}

TEST(SliceSchedule, WorkStealingStealsUnderRuntimeImbalance) {
  // A real team with artificial slice-cost skew: thread 0's seeded slices
  // spin, everyone else's are free, so the idle workers must steal. The
  // schedule is count-seeded (empty prefix) to make the imbalance
  // invisible to the seed. Oversubscribed single-core boxes still steal
  // across launches (preemption mid-chunk), so accumulate over a few.
  const nnz_t total = 256;
  const int threads = 4;
  const SliceSchedule sched(SchedulePolicy::kWorkStealing, total, {},
                            threads);
  const nnz_t heavy_end = sched.bounds()[1];  // thread 0's seed block
  const std::uint64_t before = sched.steals();
  for (int launch = 0; launch < 50 && sched.steals() == before; ++launch) {
    sched.reset();
    parallel_region(threads, [&](int tid, int) {
      sched.for_ranges(tid, [&](nnz_t begin, nnz_t end) {
        for (nnz_t s = begin; s < end; ++s) {
          if (s < heavy_end) {
            // ~50us of spinning per heavy slice.
            volatile double sink = 0.0;
            for (int i = 0; i < 20000; ++i) {
              sink = sink + static_cast<double>(i) * 1e-9;
            }
          }
        }
      });
    });
  }
  EXPECT_GT(sched.steals(), before)
      << "no steal in 50 launches under 64:1 slice-cost skew";
}

TEST(SliceSchedule, MoreThreadsThanSlices) {
  for (const SchedulePolicy policy : kAllPolicies) {
    const SliceSchedule sched(policy, 3, uniform_prefix(3), 8);
    expect_exact_coverage(sched, 3, 8);
  }
}

// -------------------------------------------------------- team dispatch

TEST(Team, TemplateOverloadRunsWithoutFunctionWrapper) {
  // The hot-path overload dispatches a mutable capturing lambda through a
  // non-owning reference; the captured state must be visible afterwards.
  std::atomic<int> sum{0};
  int witnessed_threads = 0;
  auto body = [&](int tid, int nt) {
    witnessed_threads = nt;
    sum.fetch_add(tid + 1);
  };
  parallel_region(3, body);
  EXPECT_EQ(witnessed_threads, 3);
  EXPECT_EQ(sum.load(), 1 + 2 + 3);
}

// ------------------------------------------------------- plan numerics

SparseTensor plan_tensor(std::uint64_t seed = 7100) {
  return generate_synthetic({.dims = {10, 30, 40}, .nnz = 2000,
                             .seed = seed, .zipf_exponent = 0.8});
}

std::vector<la::Matrix> plan_factors(const SparseTensor& t, idx_t rank) {
  Rng rng(901);
  std::vector<la::Matrix> factors;
  for (int m = 0; m < t.order(); ++m) {
    factors.push_back(la::Matrix::random(t.dim(m), rank, rng));
  }
  return factors;
}

/// Compares the planned MTTKRP against the planless path for every mode.
/// Strategies with a fixed thread->output assignment (none, privatize
/// under the weighted schedule) must match BITWISE; the lock
/// strategy and the runtime schedule (workstealing) only fix the per-row
/// term sets, not their accumulation order, so those match to round-off.
void expect_plan_matches_planless(const CsfSet& set,
                                  const MttkrpOptions& opts, idx_t rank) {
  const SparseTensor probe = plan_tensor();
  const auto factors = plan_factors(probe, rank);
  MttkrpPlan plan(set, rank, opts);
  MttkrpWorkspace ws(opts, rank, set.order());
  for (int m = 0; m < set.order(); ++m) {
    const idx_t dim = set.csfs().front().dims()[static_cast<std::size_t>(m)];
    la::Matrix planned(dim, rank);
    la::Matrix planless(dim, rank);
    plan.execute(factors, m, planned);
    mttkrp(set, factors, m, planless, ws);
    EXPECT_EQ(plan.mode_plan(m).strategy, ws.last_strategy) << "mode " << m;

    const bool deterministic =
        plan.mode_plan(m).strategy != SyncStrategy::kLock &&
        opts.schedule != SchedulePolicy::kWorkStealing;
    const auto a = planned.values();
    const auto b = planless.values();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (deterministic) {
        ASSERT_EQ(a[i], b[i]) << "mode " << m << " element " << i;
      } else {
        ASSERT_NEAR(a[i], b[i], 1e-9 * (1.0 + std::abs(b[i])))
            << "mode " << m << " element " << i;
      }
    }
  }
}

TEST(MttkrpPlan, MatchesPlanlessAcrossStrategiesAndPolicies) {
  SparseTensor x = plan_tensor();
  CsfSet set(x, CsfPolicy::kTwoMode, 2);
  const idx_t rank = 5;

  for (const SchedulePolicy policy : kAllPolicies) {
    for (const int threads : {1, 4}) {
      // Default heuristic (locks on this shape), forced locks, forced
      // privatization, and disabled privatization.
      MttkrpOptions base;
      base.nthreads = threads;
      base.schedule = policy;
      expect_plan_matches_planless(set, base, rank);

      MttkrpOptions locks = base;
      locks.force_locks = true;
      expect_plan_matches_planless(set, locks, rank);

      MttkrpOptions priv = base;
      priv.privatization_threshold = 1e9;  // privatize every non-root mode
      expect_plan_matches_planless(set, priv, rank);

      MttkrpOptions nopriv = base;
      nopriv.allow_privatization = false;
      expect_plan_matches_planless(set, nopriv, rank);
    }
  }
}

// ------------------------------------------------- zero planning in loop

TEST(MttkrpPlan, HotLoopPerformsZeroPlanningCalls) {
  SparseTensor x = plan_tensor();
  CsfSet set(x, CsfPolicy::kTwoMode, 2);
  MttkrpOptions opts;
  opts.nthreads = 4;
  opts.force_locks = true;  // the locked sinks, whatever the default rule
  const idx_t rank = 5;
  const auto factors = plan_factors(x, rank);
  MttkrpPlan plan(set, rank, opts);

  const std::uint64_t partitions_before = weighted_partition_calls();
  const std::uint64_t choices_before = choose_sync_strategy_calls();
  la::Matrix out;
  for (int it = 0; it < 3; ++it) {
    for (int m = 0; m < set.order(); ++m) {
      out = la::Matrix(set.csfs().front().dims()[static_cast<std::size_t>(m)],
                       rank);
      plan.execute(factors, m, out);
    }
  }
  EXPECT_EQ(weighted_partition_calls(), partitions_before);
  EXPECT_EQ(choose_sync_strategy_calls(), choices_before);
}

TEST(CpalsPlan, PlanningCostIndependentOfIterationCount) {
  // End-to-end: the CP-ALS driver plans once up front, so the number of
  // planning calls must not grow with the iteration count.
  const auto planning_delta = [](int iterations) {
    SparseTensor x = plan_tensor();
    const val_t norm_sq = x.norm_sq();
    CsfSet set(x, CsfPolicy::kTwoMode, 2);
    CpalsOptions opts;
    opts.rank = 4;
    opts.nthreads = 2;
    opts.max_iterations = iterations;
    opts.tolerance = 0.0;
    opts.force_locks = true;  // the locked sinks, whatever the default rule
    const std::uint64_t p0 = weighted_partition_calls();
    const std::uint64_t c0 = choose_sync_strategy_calls();
    (void)cp_als_csf(set, norm_sq, opts);
    return std::pair{weighted_partition_calls() - p0,
                     choose_sync_strategy_calls() - c0};
  };
  const auto [p1, c1] = planning_delta(1);
  const auto [p8, c8] = planning_delta(8);
  EXPECT_EQ(p1, p8);
  EXPECT_EQ(c1, c8);
}

// --------------------------------------------------- end-to-end numerics

TEST(CpalsPlan, SchedulePoliciesAgreeOnFit) {
  std::vector<double> fits;
  for (const SchedulePolicy policy : kAllPolicies) {
    SparseTensor x = plan_tensor();
    CpalsOptions opts;
    opts.rank = 4;
    opts.nthreads = 4;
    opts.max_iterations = 5;
    opts.tolerance = 0.0;
    opts.schedule = policy;
    opts.force_locks = true;  // the locked sinks, whatever the default rule
    const CpalsResult r = cp_als(x, opts);
    ASSERT_EQ(r.fit_history.size(), 5u);
    fits.push_back(r.fit_history.back());
  }
  for (std::size_t i = 1; i < fits.size(); ++i) {
    EXPECT_NEAR(fits[0], fits[i], 1e-8)
        << schedule_policy_name(kAllPolicies[i]);
  }
}

}  // namespace
}  // namespace sptd
