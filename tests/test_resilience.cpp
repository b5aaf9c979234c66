// Tests for src/resilience: checksums, atomic writes, checkpoint
// round-trips and rotation, bitwise kill-and-resume equivalence for every
// iterative driver, health-monitor semantics, and the rank-deficient
// Tikhonov-retry path.

#include <gtest/gtest.h>

#include <unistd.h>

#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/checksum.hpp"
#include "common/error.hpp"
#include "common/fileio.hpp"
#include "common/rng.hpp"
#include "completion/completion.hpp"
#include "cpd/cpals.hpp"
#include "dist/dist_cpals.hpp"
#include "la/cholesky.hpp"
#include "resilience/checkpoint.hpp"
#include "resilience/health.hpp"
#include "tensor/synthetic.hpp"
#include "tucker/tucker.hpp"

namespace sptd {
namespace {

namespace fs = std::filesystem;

/// Fresh scratch directory per test, removed on destruction.
class ScratchDir {
 public:
  explicit ScratchDir(const char* tag) {
    path_ = (fs::temp_directory_path() /
             (std::string("sptd_resilience_") + tag + "_" +
              std::to_string(::getpid())))
                .string();
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

SparseTensor test_tensor(std::uint64_t seed = 900) {
  return generate_synthetic({.dims = {18, 22, 14}, .nnz = 1500,
                             .seed = seed, .zipf_exponent = 0.5});
}

// ---------------------------------------------------------------- checksum

TEST(Checksum, Fnv1a64KnownVectors) {
  // Published FNV-1a 64 vectors: empty input is the offset basis, and "a".
  EXPECT_EQ(fnv1a64("", 0), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a64("a", 1), 0xaf63dc4c8601ec8cULL);
  // Sensitivity: one flipped bit changes the digest.
  EXPECT_NE(fnv1a64("ab", 2), fnv1a64("ac", 2));
}

// ----------------------------------------------------------------- file IO

TEST(FileIo, AtomicWriteRoundTrips) {
  ScratchDir dir("fileio");
  const std::string path = dir.path() + "/out.txt";
  atomic_write_file(path, "hello\nworld\n");
  const auto back = read_file_to_string(path);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, "hello\nworld\n");
  // No temp file left behind.
  int entries = 0;
  for (const auto& e : fs::directory_iterator(dir.path())) {
    (void)e;
    ++entries;
  }
  EXPECT_EQ(entries, 1);
}

TEST(FileIo, AtomicWriteToMissingDirectoryThrows) {
  EXPECT_THROW(atomic_write_file("/nonexistent_sptd_dir/x", "y"), Error);
}

TEST(FileIo, ReadMissingFileReturnsNullopt) {
  EXPECT_FALSE(read_file_to_string("/nonexistent_sptd_file").has_value());
}

// -------------------------------------------------------------- checkpoint

Checkpoint sample_checkpoint() {
  Rng rng(11);
  Checkpoint ck;
  ck.kind = "cpals";
  ck.iteration = 7;
  ck.rng_state = {1, 2, 3, 0xffffffffffffffffULL};
  ck.set_scalar("prev_fit", 0.123456789012345678);
  ck.set_scalar("best_val", std::numeric_limits<double>::infinity());
  ck.set_series("fit_history", {0.1, 0.2, 0.30000000000000004});
  ck.factors.push_back(la::Matrix::random(5, 3, rng));
  ck.factors.push_back(la::Matrix::random(4, 3, rng));
  ck.aux_factors.push_back(la::Matrix::random(5, 3, rng));
  return ck;
}

TEST(Checkpoint, SerializeRoundTripsBitwise) {
  const Checkpoint ck = sample_checkpoint();
  const Checkpoint back = Checkpoint::deserialize(ck.serialize());
  EXPECT_EQ(back.kind, ck.kind);
  EXPECT_EQ(back.iteration, ck.iteration);
  EXPECT_EQ(back.rng_state, ck.rng_state);
  EXPECT_EQ(back.scalar("prev_fit", 0.0), ck.scalar("prev_fit", 1.0));
  EXPECT_TRUE(std::isinf(back.scalar("best_val", 0.0)));
  const std::vector<double>* fh = back.find_series("fit_history");
  ASSERT_NE(fh, nullptr);
  EXPECT_EQ((*fh)[2], 0.30000000000000004);  // exact, not approximate
  ASSERT_EQ(back.factors.size(), 2u);
  EXPECT_EQ(back.factors[0].max_abs_diff(ck.factors[0]), 0.0);
  EXPECT_EQ(back.factors[1].max_abs_diff(ck.factors[1]), 0.0);
  ASSERT_EQ(back.aux_factors.size(), 1u);
  EXPECT_EQ(back.aux_factors[0].max_abs_diff(ck.aux_factors[0]), 0.0);
}

TEST(Checkpoint, DeserializeRejectsCorruptPayload) {
  std::string text = sample_checkpoint().serialize();
  const std::size_t pos = text.find("iteration");
  ASSERT_NE(pos, std::string::npos);
  text[pos + std::string("iteration ").size()] = '9';
  EXPECT_THROW(Checkpoint::deserialize(text), Error);
}

TEST(Checkpoint, DeserializeRejectsTruncation) {
  std::string text = sample_checkpoint().serialize();
  text.resize(text.size() / 2);
  EXPECT_THROW(Checkpoint::deserialize(text), Error);
}

/// A version-2 checkpoint around \p payload with a valid FNV-1a checksum,
/// so the parser, not the checksum, must reject a hostile field.
std::string checksummed(const std::string& payload) {
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(fnv1a64(payload)));
  return "sptd-checkpoint 2 cpals\nchecksum " + std::string(hex) + "\n" +
         payload;
}

/// Payload of \p iteration_line, empty scalars, \p series_lines, and one
/// factor of shape \p shape holding a single 1.0.
std::string one_factor_payload(const std::string& iteration_line,
                               const std::string& series_lines,
                               const std::string& shape) {
  const double one = 1.0;
  return iteration_line + "\nrng 1 2 3 4\nscalars 0\n" + series_lines +
         "factors 1\n" + shape + "\nbin 8\n" +
         std::string(reinterpret_cast<const char*>(&one), sizeof(one)) +
         "\naux_factors 0\n";
}

TEST(Checkpoint, HostileDeclaredSizesFailWithStructuredErrors) {
  // The unmodified payload parses, so each rejection below comes from the
  // one hostile field, not from the hand-built framing.
  const Checkpoint ok = Checkpoint::deserialize(
      checksummed(one_factor_payload("iteration 3", "series 0\n", "1 1")));
  EXPECT_EQ(ok.iteration, 3);
  ASSERT_EQ(ok.factors.size(), 1u);
  EXPECT_EQ(ok.factors[0](0, 0), 1.0);

  const struct {
    const char* what;
    std::string payload;
  } hostile[] = {
      {"series longer than the payload",
       one_factor_payload(
           "iteration 3", "series 1\nlambda 2305843009213693951\nbin 8\n",
           "1 1")},
      {"matrix larger than the payload",
       one_factor_payload("iteration 3", "series 0\n",
                          "4294967295 4294967295")},
      {"rows 2^32 + 1, beyond idx_t",
       one_factor_payload("iteration 3", "series 0\n", "4294967297 1")},
      {"iteration 2^32 - 1, beyond int",
       one_factor_payload("iteration 4294967295", "series 0\n", "1 1")},
  };
  for (const auto& h : hostile) {
    SCOPED_TRACE(h.what);
    EXPECT_THROW(Checkpoint::deserialize(checksummed(h.payload)), Error);
  }
}

TEST(CheckpointManager, RotatesAndLoadsNewest) {
  ScratchDir dir("rotate");
  CheckpointManager mgr(dir.path(), "cpals", 1, /*keep=*/2);
  ResilienceCounters counters;
  for (int it = 1; it <= 5; ++it) {
    Checkpoint ck = sample_checkpoint();
    ck.iteration = it;
    EXPECT_TRUE(mgr.save(ck, nullptr, counters));
  }
  EXPECT_EQ(counters.checkpoints, 5);
  // Only the last `keep` files survive rotation.
  int files = 0;
  for (const auto& e : fs::directory_iterator(dir.path())) {
    (void)e;
    ++files;
  }
  EXPECT_EQ(files, 2);
  const auto latest = CheckpointManager::load_latest(dir.path(), "cpals");
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->iteration, 5);
}

TEST(CheckpointManager, SkipsCorruptNewestFallsBackToOlder) {
  ScratchDir dir("fallback");
  CheckpointManager mgr(dir.path(), "cpals", 1, /*keep=*/3);
  ResilienceCounters counters;
  for (int it = 1; it <= 2; ++it) {
    Checkpoint ck = sample_checkpoint();
    ck.iteration = it;
    EXPECT_TRUE(mgr.save(ck, nullptr, counters));
  }
  // Tear the newest file in half — a simulated mid-write crash without the
  // atomic rename. load_latest must reject it by checksum and fall back.
  const std::string newest = dir.path() + "/cpals-00000002.ckpt";
  const auto full = read_file_to_string(newest);
  ASSERT_TRUE(full.has_value());
  atomic_write_file(newest, full->substr(0, full->size() / 2));
  const auto latest = CheckpointManager::load_latest(dir.path(), "cpals");
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->iteration, 1);
}

TEST(CheckpointManager, AllSnapshotsCorruptIsAStructuredError) {
  // When every rotation snapshot fails validation the caller must get a
  // loud CheckpointCorruptError — saved state exists but is unrecoverable,
  // which is not the same thing as a fresh start.
  ScratchDir dir("allbad");
  CheckpointManager mgr(dir.path(), "cpals", 1, /*keep=*/2);
  ResilienceCounters counters;
  for (int it = 1; it <= 2; ++it) {
    Checkpoint ck = sample_checkpoint();
    ck.iteration = it;
    EXPECT_TRUE(mgr.save(ck, nullptr, counters));
  }
  for (const auto& e : fs::directory_iterator(dir.path())) {
    const auto full = read_file_to_string(e.path().string());
    ASSERT_TRUE(full.has_value());
    atomic_write_file(e.path().string(), full->substr(0, full->size() / 2));
  }
  try {
    (void)CheckpointManager::load_latest(dir.path(), "cpals");
    FAIL() << "expected CheckpointCorruptError";
  } catch (const CheckpointCorruptError& e) {
    EXPECT_EQ(e.files_rejected(), 2);
  }
}

TEST(CheckpointManager, LoadCheckpointFileByPath) {
  ScratchDir dir("bypath");
  Checkpoint ck = sample_checkpoint();
  ck.iteration = 7;
  const std::string path = dir.path() + "/one.ckpt";
  atomic_write_file(path, ck.serialize());
  const auto loaded = load_checkpoint_file(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->iteration, 7);
  // Missing file: nullopt. Corrupt file: throws.
  EXPECT_FALSE(load_checkpoint_file(dir.path() + "/nope.ckpt").has_value());
  atomic_write_file(path, ck.serialize().substr(0, 40));
  EXPECT_THROW((void)load_checkpoint_file(path), Error);
}

TEST(CheckpointManager, IgnoresOtherKinds) {
  ScratchDir dir("kinds");
  CheckpointManager mgr(dir.path(), "tucker", 1);
  ResilienceCounters counters;
  Checkpoint ck = sample_checkpoint();
  ck.kind = "tucker";
  ck.iteration = 3;
  EXPECT_TRUE(mgr.save(ck, nullptr, counters));
  EXPECT_FALSE(
      CheckpointManager::load_latest(dir.path(), "cpals").has_value());
  EXPECT_TRUE(
      CheckpointManager::load_latest(dir.path(), "tucker").has_value());
}

// ---------------------------------------------------------- health monitor

la::Matrix small_matrix(double fill) {
  la::Matrix m(2, 2);
  m.fill(static_cast<val_t>(fill));
  return m;
}

TEST(HealthMonitor, FlagsNonFiniteFactor) {
  HealthMonitor hm(true, 3);
  std::vector<la::Matrix> factors;
  factors.push_back(small_matrix(1.0));
  factors[0](1, 1) = std::numeric_limits<val_t>::quiet_NaN();
  const std::vector<val_t> lambda = {1.0, 1.0};
  EXPECT_EQ(hm.inspect(factors, lambda, 0.5),
            HealthIssue::kNonFiniteFactor);
}

TEST(HealthMonitor, FlagsNonFiniteLambdaAndLoss) {
  HealthMonitor hm(true, 3);
  std::vector<la::Matrix> factors;
  factors.push_back(small_matrix(1.0));
  std::vector<val_t> lambda = {1.0,
                               std::numeric_limits<val_t>::infinity()};
  EXPECT_EQ(hm.inspect(factors, lambda, 0.5),
            HealthIssue::kNonFiniteFactor);
  lambda[1] = 1.0;
  EXPECT_EQ(hm.inspect(factors, lambda,
                       std::numeric_limits<double>::quiet_NaN()),
            HealthIssue::kNonFiniteLoss);
}

TEST(HealthMonitor, DivergenceNeedsPatienceConsecutiveRegressions) {
  HealthMonitor hm(true, 2);
  std::vector<la::Matrix> factors;
  factors.push_back(small_matrix(1.0));
  const std::vector<val_t> lambda = {1.0, 1.0};
  EXPECT_EQ(hm.inspect(factors, lambda, 0.10), HealthIssue::kNone);
  // Clearly regressing (> best * 1.5): first strike.
  EXPECT_EQ(hm.inspect(factors, lambda, 0.40), HealthIssue::kNone);
  // A healthy iteration resets the streak.
  EXPECT_EQ(hm.inspect(factors, lambda, 0.11), HealthIssue::kNone);
  EXPECT_EQ(hm.inspect(factors, lambda, 0.40), HealthIssue::kNone);
  // Second consecutive strike trips the patience=2 budget.
  EXPECT_EQ(hm.inspect(factors, lambda, 0.41), HealthIssue::kDivergence);
}

TEST(HealthMonitor, MildRegressionNeverFlags) {
  // ALS fit wobble within the 1.5x margin must never trip the guard —
  // that is the contract that keeps guards on by default without touching
  // bit-identical f64 runs.
  HealthMonitor hm(true, 1);
  std::vector<la::Matrix> factors;
  factors.push_back(small_matrix(1.0));
  const std::vector<val_t> lambda = {1.0, 1.0};
  EXPECT_EQ(hm.inspect(factors, lambda, 0.10), HealthIssue::kNone);
  EXPECT_EQ(hm.inspect(factors, lambda, 0.149), HealthIssue::kNone);
  EXPECT_EQ(hm.inspect(factors, lambda, 0.12), HealthIssue::kNone);
}

TEST(HealthMonitor, DisabledMonitorSeesNothing) {
  HealthMonitor hm(false, 1);
  std::vector<la::Matrix> factors;
  factors.push_back(small_matrix(
      std::numeric_limits<double>::quiet_NaN()));
  const std::vector<val_t> lambda = {1.0, 1.0};
  EXPECT_EQ(hm.inspect(factors, lambda, 0.5), HealthIssue::kNone);
}

TEST(HealthMonitor, PerturbFactorsIsSmallAndFinite) {
  Rng rng(5);
  std::vector<la::Matrix> factors;
  factors.push_back(small_matrix(2.0));
  perturb_factors(factors, rng, 1e-3);
  for (idx_t i = 0; i < 2; ++i) {
    for (idx_t j = 0; j < 2; ++j) {
      const double v = factors[0](i, j);
      EXPECT_TRUE(std::isfinite(v));
      EXPECT_NEAR(v, 2.0, 2.0 * 1e-3);
      EXPECT_NE(v, 2.0);  // jitter actually moved the entry
    }
  }
}

// -------------------------------------------------- bitwise resume: cpals

CpalsOptions cpals_base() {
  CpalsOptions o;
  o.rank = 5;
  o.max_iterations = 8;
  o.tolerance = 0.0;
  o.seed = 23;
  o.nthreads = 1;
  return o;
}

/// The two arms of every kill-and-resume test: a clean run, and one that
/// rolls back (a NaN row injected after iteration 2) before the
/// checkpoint the resume starts from.
constexpr std::array<const char*, 2> kResumeArms = {"", "corrupt-factor:2"};

/// Recovery-RNG words of the newest \p kind checkpoint in \p dir.
std::array<std::uint64_t, 4> checkpoint_rng(const std::string& dir,
                                            const std::string& kind) {
  const std::optional<Checkpoint> ck =
      CheckpointManager::load_latest(dir, kind);
  EXPECT_TRUE(ck.has_value()) << "no " << kind << " checkpoint in " << dir;
  return ck ? ck->rng_state : std::array<std::uint64_t, 4>{};
}

TEST(Resume, CpalsKillAndResumeIsBitwise) {
  std::array<std::array<std::uint64_t, 4>, 2> rng{};
  for (int arm = 0; arm < 2; ++arm) {
    SCOPED_TRACE(kResumeArms[arm]);
    ScratchDir dir(arm == 0 ? "cpals" : "cpals_inject");
    CpalsOptions base = cpals_base();
    base.resilience.inject = kResumeArms[arm];
    // Reference: uninterrupted run.
    SparseTensor x1 = test_tensor();
    const CpalsResult ref = cp_als(x1, base);
    EXPECT_EQ(ref.resilience.rollbacks, arm);

    // "Killed" run: stop after 5 iterations with a checkpoint at 4...
    SparseTensor x2 = test_tensor();
    CpalsOptions part = base;
    part.max_iterations = 5;
    part.resilience.checkpoint_dir = dir.path();
    part.resilience.checkpoint_every = 4;
    (void)cp_als(x2, part);
    rng[arm] = checkpoint_rng(dir.path(), "cpals");

    // ...then resume to completion from iteration 4.
    SparseTensor x3 = test_tensor();
    CpalsOptions rest = base;
    rest.resilience.checkpoint_dir = dir.path();
    rest.resilience.resume = true;
    const CpalsResult res = cp_als(x3, rest);

    EXPECT_EQ(res.resilience.resumed_from, 4);
    ASSERT_EQ(res.iterations, ref.iterations);
    ASSERT_EQ(res.fit_history.size(), ref.fit_history.size());
    for (std::size_t i = 0; i < ref.fit_history.size(); ++i) {
      EXPECT_EQ(res.fit_history[i], ref.fit_history[i]) << "iteration " << i;
    }
    for (int m = 0; m < 3; ++m) {
      EXPECT_EQ(res.model.factors[static_cast<std::size_t>(m)].max_abs_diff(
                    ref.model.factors[static_cast<std::size_t>(m)]),
                0.0)
          << "mode " << m;
    }
    for (idx_t r = 0; r < 5; ++r) {
      EXPECT_EQ(res.model.lambda[r], ref.model.lambda[r]);
    }
  }
  // The rollback's perturbation draws ride the checkpoint, so a resumed
  // run continues the recovery RNG rather than restarting it.
  EXPECT_NE(rng[0], rng[1]);
}

TEST(Resume, EmptyDirIsFreshStartNotError) {
  ScratchDir dir("fresh");
  SparseTensor x = test_tensor();
  CpalsOptions o = cpals_base();
  o.resilience.checkpoint_dir = dir.path();
  o.resilience.resume = true;
  const CpalsResult r = cp_als(x, o);
  EXPECT_EQ(r.resilience.resumed_from, -1);
  EXPECT_EQ(r.iterations, 8);
}

TEST(Resume, ResumeWithoutDirThrows) {
  SparseTensor x = test_tensor();
  CpalsOptions o = cpals_base();
  o.resilience.resume = true;  // no checkpoint_dir
  EXPECT_THROW(cp_als(x, o), Error);
}

TEST(Resume, ShapeMismatchIsRejected) {
  ScratchDir dir("shape");
  SparseTensor x = test_tensor();
  CpalsOptions o = cpals_base();
  o.resilience.checkpoint_dir = dir.path();
  o.resilience.checkpoint_every = 4;
  (void)cp_als(x, o);

  SparseTensor x2 = test_tensor();
  CpalsOptions wrong = cpals_base();
  wrong.rank = 6;  // checkpoint factors carry rank 5
  wrong.resilience.checkpoint_dir = dir.path();
  wrong.resilience.resume = true;
  EXPECT_THROW(cp_als(x2, wrong), Error);
}

// -------------------------------------------------- bitwise resume: tucker

TEST(Resume, TuckerKillAndResumeIsBitwise) {
  std::array<std::array<std::uint64_t, 4>, 2> rng{};
  for (int arm = 0; arm < 2; ++arm) {
    SCOPED_TRACE(kResumeArms[arm]);
    ScratchDir dir(arm == 0 ? "tucker" : "tucker_inject");
    TuckerOptions base;
    base.core_dims = {3, 3, 3};
    base.max_iterations = 6;
    base.tolerance = 0.0;
    base.seed = 17;
    base.nthreads = 1;
    base.resilience.inject = kResumeArms[arm];

    SparseTensor x1 = test_tensor();
    const TuckerResult ref = tucker_hooi(x1, base);
    EXPECT_EQ(ref.resilience.rollbacks, arm);

    SparseTensor x2 = test_tensor();
    TuckerOptions part = base;
    part.max_iterations = 4;
    part.resilience.checkpoint_dir = dir.path();
    part.resilience.checkpoint_every = 3;
    (void)tucker_hooi(x2, part);
    rng[arm] = checkpoint_rng(dir.path(), "tucker");

    SparseTensor x3 = test_tensor();
    TuckerOptions rest = base;
    rest.resilience.checkpoint_dir = dir.path();
    rest.resilience.resume = true;
    const TuckerResult res = tucker_hooi(x3, rest);

    EXPECT_EQ(res.resilience.resumed_from, 3);
    EXPECT_EQ(res.iterations, ref.iterations);
    ASSERT_EQ(res.fit_history.size(), ref.fit_history.size());
    for (std::size_t i = 0; i < ref.fit_history.size(); ++i) {
      EXPECT_EQ(res.fit_history[i], ref.fit_history[i]) << "iteration " << i;
    }
    for (int m = 0; m < 3; ++m) {
      EXPECT_EQ(res.model.factors[static_cast<std::size_t>(m)].max_abs_diff(
                    ref.model.factors[static_cast<std::size_t>(m)]),
                0.0)
          << "mode " << m;
    }
    ASSERT_EQ(res.model.core.size(), ref.model.core.size());
    for (std::size_t i = 0; i < ref.model.core.size(); ++i) {
      EXPECT_EQ(res.model.core[i], ref.model.core[i]) << "core entry " << i;
    }
  }
  EXPECT_NE(rng[0], rng[1]);
}

// ---------------------------------------------- bitwise resume: completion

class CompletionResumeTest
    : public ::testing::TestWithParam<CompletionAlgorithm> {};

TEST_P(CompletionResumeTest, KillAndResumeIsBitwise) {
  SparseTensor t = test_tensor(901);
  const auto [train, val] = split_train_test(t, 0.2, 7);

  std::array<std::array<std::uint64_t, 4>, 2> rng{};
  for (int arm = 0; arm < 2; ++arm) {
    SCOPED_TRACE(kResumeArms[arm]);
    ScratchDir dir(arm == 0 ? "completion" : "completion_inject");
    CompletionOptions base;
    base.algorithm = GetParam();
    base.rank = 4;
    base.max_iterations = 8;
    base.tolerance = 0.0;  // fixed-length runs keep the comparison simple
    base.nthreads = 1;
    base.seed = 31;
    base.resilience.inject = kResumeArms[arm];

    const CompletionResult ref = complete_tensor(train, &val, base);
    EXPECT_EQ(ref.resilience.rollbacks, arm);

    CompletionOptions part = base;
    part.max_iterations = 5;
    part.resilience.checkpoint_dir = dir.path();
    part.resilience.checkpoint_every = 4;
    (void)complete_tensor(train, &val, part);
    rng[arm] = checkpoint_rng(dir.path(), "completion");

    CompletionOptions rest = base;
    rest.resilience.checkpoint_dir = dir.path();
    rest.resilience.resume = true;
    const CompletionResult res = complete_tensor(train, &val, rest);

    EXPECT_EQ(res.resilience.resumed_from, 4);
    EXPECT_EQ(res.iterations, ref.iterations);
    ASSERT_EQ(res.train_rmse.size(), ref.train_rmse.size());
    for (std::size_t i = 0; i < ref.train_rmse.size(); ++i) {
      EXPECT_EQ(res.train_rmse[i], ref.train_rmse[i]) << "epoch " << i;
    }
    ASSERT_EQ(res.val_rmse.size(), ref.val_rmse.size());
    for (std::size_t i = 0; i < ref.val_rmse.size(); ++i) {
      EXPECT_EQ(res.val_rmse[i], ref.val_rmse[i]) << "epoch " << i;
    }
    EXPECT_EQ(res.best_iteration, ref.best_iteration);
    for (int m = 0; m < 3; ++m) {
      EXPECT_EQ(res.model.factors[static_cast<std::size_t>(m)].max_abs_diff(
                    ref.model.factors[static_cast<std::size_t>(m)]),
                0.0)
          << "mode " << m;
    }
  }
  EXPECT_NE(rng[0], rng[1]);
}

INSTANTIATE_TEST_SUITE_P(AllSolvers, CompletionResumeTest,
                         ::testing::Values(CompletionAlgorithm::kAls,
                                           CompletionAlgorithm::kSgd,
                                           CompletionAlgorithm::kCcd),
                         [](const auto& info) {
                           return std::string(
                               completion_algorithm_name(info.param));
                         });

TEST(Resume, SgdHostilePermutationFailsWithStructuredError) {
  // SGD's solver state is its per-cell visit order of the training
  // nonzeros, and run_epoch indexes the tensor with it. A checksummed
  // checkpoint whose order cannot be that permutation must be rejected
  // with sptd::Error before any epoch dereferences it.
  ScratchDir dir("sgd_hostile");
  SparseTensor t = test_tensor(901);
  const auto [train, val] = split_train_test(t, 0.2, 7);
  CompletionOptions o;
  o.algorithm = CompletionAlgorithm::kSgd;
  o.rank = 4;
  o.max_iterations = 4;
  o.tolerance = 0.0;
  o.nthreads = 2;  // a 2x2x2 stratum grid: more than one cell
  o.seed = 31;
  o.resilience.checkpoint_dir = dir.path();
  o.resilience.checkpoint_every = 2;
  (void)complete_tensor(train, &val, o);

  const std::optional<Checkpoint> saved =
      CheckpointManager::load_latest(dir.path(), "completion");
  ASSERT_TRUE(saved.has_value());
  ASSERT_EQ(saved->iteration, 2);
  const std::vector<double>* order = saved->find_series("solver_state");
  ASSERT_NE(order, nullptr);
  ASSERT_EQ(order->size(), train.nnz());
  const std::string path = dir.path() + "/completion-00000002.ckpt";

  CompletionOptions rest = o;
  rest.resilience.checkpoint_every = 0;
  rest.resilience.resume = true;
  // The saved order itself resumes, so each rejection below comes from
  // the one hostile entry.
  EXPECT_NO_THROW((void)complete_tensor(train, &val, rest));

  const auto nnz = static_cast<double>(train.nnz());
  const struct {
    const char* what;
    std::pair<std::size_t, double> entry;  // (position, value)
    bool swap_ends;
  } hostile[] = {
      {"id == nnz", {0, nnz}, false},
      {"id far beyond nnz", {0, 1e18}, false},
      {"negative id", {0, -1.0}, false},
      {"non-integral id", {0, (*order)[0] + 0.5}, false},
      {"repeated id", {1, (*order)[0]}, false},
      {"ids swapped across cells", {0, (*order)[0]}, true},
  };
  for (const auto& h : hostile) {
    SCOPED_TRACE(h.what);
    std::vector<double> bad = *order;
    bad[h.entry.first] = h.entry.second;
    if (h.swap_ends) std::swap(bad.front(), bad.back());
    Checkpoint ck = *saved;
    ck.set_series("solver_state", std::move(bad));
    atomic_write_file(path, ck.serialize());
    EXPECT_THROW((void)complete_tensor(train, &val, rest), Error);
  }
}

// ---------------------------------------------------- bitwise resume: dist

TEST(Resume, DistKillAndResumeIsBitwise) {
  std::array<std::array<std::uint64_t, 4>, 2> rng{};
  for (int arm = 0; arm < 2; ++arm) {
    SCOPED_TRACE(kResumeArms[arm]);
    ScratchDir dir(arm == 0 ? "dist" : "dist_inject");
    DistOptions base;
    base.grid = {2, 2, 1};
    base.rank = 4;
    base.max_iterations = 6;
    base.seed = 23;
    base.resilience.inject = kResumeArms[arm];

    SparseTensor x1 = test_tensor();
    const DistResult ref = dist_cp_als(x1, base);
    EXPECT_EQ(ref.resilience.rollbacks, arm);

    SparseTensor x2 = test_tensor();
    DistOptions part = base;
    part.max_iterations = 4;
    part.resilience.checkpoint_dir = dir.path();
    part.resilience.checkpoint_every = 3;
    (void)dist_cp_als(x2, part);
    rng[arm] = checkpoint_rng(dir.path(), "dist");

    SparseTensor x3 = test_tensor();
    DistOptions rest = base;
    rest.resilience.checkpoint_dir = dir.path();
    rest.resilience.resume = true;
    const DistResult res = dist_cp_als(x3, rest);

    EXPECT_EQ(res.resilience.resumed_from, 3);
    ASSERT_EQ(res.fit_history.size(), ref.fit_history.size());
    for (std::size_t i = 0; i < ref.fit_history.size(); ++i) {
      EXPECT_EQ(res.fit_history[i], ref.fit_history[i]) << "iteration " << i;
    }
    for (int m = 0; m < 3; ++m) {
      EXPECT_EQ(res.model.factors[static_cast<std::size_t>(m)].max_abs_diff(
                    ref.model.factors[static_cast<std::size_t>(m)]),
                0.0)
          << "mode " << m;
    }
    for (idx_t r = 0; r < 4; ++r) {
      EXPECT_EQ(res.model.lambda[r], ref.model.lambda[r]);
    }
    // Comm accounting is an invariant of the iteration count, so the
    // resumed totals equal the clean run's.
    EXPECT_EQ(res.comm.total(), ref.comm.total());
  }
  EXPECT_NE(rng[0], rng[1]);
}

// ------------------------------------------- rank-deficient Tikhonov path

TEST(RankDeficient, SingularGramConvergesViaTikhonovBump) {
  // Two modes of extent 1 make those factors single rows a and b, so the
  // mode-2 normal equations use (a a^T) ∘ (b b^T) = (a∘b)(a∘b)^T — rank
  // one, singular for any rank >= 2. The solve must detect the failed
  // Cholesky and retry with a Tikhonov bump, and the run must still
  // produce finite factors.
  SparseTensor x = generate_synthetic({.dims = {1, 1, 20}, .nnz = 8,
                                       .seed = 42, .zipf_exponent = 0.3});
  CpalsOptions o;
  o.rank = 3;
  o.max_iterations = 5;
  o.tolerance = 0.0;
  o.seed = 23;
  o.nthreads = 1;
  const CpalsResult r = cp_als(x, o);
  EXPECT_GT(r.resilience.gram_bumps, 0u)
      << "singular Gram never triggered the Tikhonov retry";
  for (const double f : r.fit_history) {
    EXPECT_TRUE(std::isfinite(f));
  }
  for (const auto& factor : r.model.factors) {
    for (idx_t i = 0; i < factor.rows(); ++i) {
      for (idx_t j = 0; j < factor.cols(); ++j) {
        EXPECT_TRUE(std::isfinite(static_cast<double>(factor(i, j))));
      }
    }
  }
}

TEST(RankDeficient, GramBumpsCountOnlyTheRunsOwnSolves) {
  // A healthy run overlapping one that keeps regularizing must report its
  // own zero bumps, not the process-wide tally's movement.
  CpalsOptions singular_opts;
  singular_opts.rank = 3;
  singular_opts.max_iterations = 5;
  singular_opts.tolerance = 0.0;
  singular_opts.seed = 23;
  singular_opts.nthreads = 1;
  std::atomic<bool> stop{false};
  std::atomic<bool> every_singular_run_bumped{true};
  std::atomic<std::uint64_t> singular_runs{0};  // bumped after each run
  std::thread singular([&] {
    while (!stop.load()) {
      // The {1,1,20} tensor of SingularGramConvergesViaTikhonovBump.
      SparseTensor x = generate_synthetic({.dims = {1, 1, 20}, .nnz = 8,
                                           .seed = 42,
                                           .zipf_exponent = 0.3});
      if (cp_als(x, singular_opts).resilience.gram_bumps == 0) {
        every_singular_run_bumped.store(false);
      }
      singular_runs.fetch_add(1);
    }
  });

  // Overlap is up to the scheduler, so repeat until a healthy run
  // provably overlapped a whole bumping run: the counter advanced by two
  // while it ran, so at least one singular run started and finished
  // inside it (a loaded box may need a few tries). Every attempt must
  // report zero bumps of its own.
  bool overlapped = false;
  for (int attempt = 0; attempt < 200 && !overlapped; ++attempt) {
    SparseTensor x = test_tensor();
    const std::uint64_t before = singular_runs.load();
    const CpalsResult healthy = cp_als(x, cpals_base());
    overlapped = singular_runs.load() - before >= 2;
    EXPECT_EQ(healthy.resilience.gram_bumps, 0u) << "attempt " << attempt;
  }
  stop.store(true);
  singular.join();
  EXPECT_TRUE(overlapped) << "no healthy run overlapped a singular run";
  EXPECT_TRUE(every_singular_run_bumped.load())
      << "a singular run applied no Tikhonov bump";
}

TEST(RankDeficient, PotrfReportsFailureOnSingularMatrix) {
  // Direct unit check of the detection layer under the solver: a singular
  // SPD candidate must make potrf report failure rather than emit NaNs.
  la::Matrix v(3, 3);
  v.fill(val_t{1});  // rank-one: 3x3 of all ones
  la::Matrix chol = v;
  EXPECT_FALSE(la::potrf(chol));
}

// ---------------------------------------- checkpoint overhead sanity check

TEST(CheckpointOverhead, CountersTrackBytesAndTime) {
  ScratchDir dir("overhead");
  SparseTensor x = test_tensor();
  CpalsOptions o = cpals_base();
  o.resilience.checkpoint_dir = dir.path();
  o.resilience.checkpoint_every = 2;
  const CpalsResult r = cp_als(x, o);
  // 8 iterations, every 2, mid-run only: snapshots at 2, 4, 6.
  EXPECT_EQ(r.resilience.checkpoints, 3);
  EXPECT_GT(r.resilience.checkpoint_bytes, 0u);
  EXPECT_GE(r.resilience.checkpoint_seconds, 0.0);
}

}  // namespace
}  // namespace sptd
