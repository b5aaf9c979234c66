#pragma once
/// \file resilience.hpp
/// \brief Shared vocabulary for the resilience layer: per-run options,
///        observable counters, health-issue taxonomy, and the structured
///        error thrown when recovery is exhausted.
///
/// Every iterative driver (CP-ALS, Tucker HOOI, completion, simulated dist)
/// embeds a ResilienceOptions in its options struct and a ResilienceCounters
/// in its result struct. The heavier machinery (CheckpointManager,
/// HealthMonitor, FaultInjector, ResilienceContext) lives in sibling headers
/// so that driver option headers stay light.

#include <cstdint>
#include <string>

#include "common/error.hpp"

namespace sptd {

class Options;  // common/options.hpp

/// Knobs for checkpointing, health guards, and fault injection. Defaults
/// leave checkpointing and injection off and guards on; a default-constructed
/// struct changes no arithmetic, so `--precision f64` stays bit-identical.
struct ResilienceOptions {
  /// Directory for checkpoint files; empty disables checkpointing.
  std::string checkpoint_dir;
  /// Snapshot every N completed iterations; 0 disables checkpointing.
  int checkpoint_every = 0;
  /// Resume from the newest valid checkpoint in checkpoint_dir.
  bool resume = false;
  /// Rollback-and-perturb attempts per incident before giving up.
  int max_retries = 2;
  /// Enables the per-iteration numeric-health scan (non-finite factors/fit,
  /// fit-divergence patience). Off means failures surface as garbage output
  /// or downstream throws, exactly as before this layer existed.
  bool health_checks = true;
  /// Consecutive clearly-regressing iterations tolerated before the run is
  /// declared divergent and rolled back.
  int divergence_patience = 3;
  /// Fault-injection plan, e.g. "nan-values:0.3,corrupt-factor:4,io-fail:2,
  /// locale-fail:1". Empty disables injection.
  std::string inject;
  /// Seed for the injection draw stream (deterministic per seed).
  std::uint64_t inject_seed = 1337;
};

/// Counters a run reports back; none participate in bench identity.
struct ResilienceCounters {
  /// Rollback-and-perturb attempts consumed (consecutive per incident).
  int retries = 0;
  /// Successful rollback recoveries performed.
  int rollbacks = 0;
  /// Checkpoint files written.
  int checkpoints = 0;
  /// Checkpoint writes that failed (injected or real IO errors).
  int checkpoint_failures = 0;
  /// Bytes of checkpoint payload written.
  std::uint64_t checkpoint_bytes = 0;
  /// Wall seconds spent serializing + writing checkpoints.
  double checkpoint_seconds = 0.0;
  /// Individual faults the injector fired (entries NaN'd, writes failed,
  /// locales killed).
  std::uint64_t faults_injected = 0;
  /// Tikhonov diagonal bumps the normal-equation solver applied in this
  /// run's own solves (summed from la::solve_normal_equations' return, so
  /// concurrent runs never count each other's).
  std::uint64_t gram_bumps = 0;
  /// Simulated locales rebuilt after an injected kill (dist only).
  int locale_restarts = 0;
  /// Iteration the run resumed from, or -1 for a fresh start.
  int resumed_from = -1;
};

/// What the health monitor found wrong with an iteration.
enum class HealthIssue {
  kNone,
  kNonFiniteFactor,  ///< NaN/Inf in a factor matrix or lambda
  kNonFiniteLoss,    ///< fit / RMSE came out NaN or Inf
  kDivergence,       ///< loss clearly regressing past the patience window
};

/// Human-readable name for a HealthIssue.
const char* health_issue_name(HealthIssue issue);

/// Thrown when a driver exhausts its retry budget: carries the failing
/// iteration, the issue class, and how many recoveries were attempted, so
/// callers (and tests) can dispatch on structure rather than message text.
class ResilienceError : public Error {
 public:
  ResilienceError(const std::string& kind, int iteration, HealthIssue issue,
                  int retries);

  int iteration() const { return iteration_; }
  HealthIssue issue() const { return issue_; }
  int retries() const { return retries_; }

 private:
  int iteration_;
  HealthIssue issue_;
  int retries_;
};

/// Registers the shared resilience CLI flags on \p opts
/// (--checkpoint-dir, --checkpoint-every, --resume, --max-retries,
/// --patience, --no-health-guards, --inject, --inject-seed).
void add_resilience_flags(Options& opts);

/// Builds a ResilienceOptions from flags registered by add_resilience_flags.
ResilienceOptions resilience_from_flags(const Options& opts);

/// One-line summary of a run's resilience activity for CLI output; empty
/// when nothing noteworthy happened (no resume, faults, retries, or
/// checkpoints).
std::string resilience_summary(const ResilienceCounters& c);

}  // namespace sptd
