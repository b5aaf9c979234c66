#pragma once
/// \file context.hpp
/// \brief ResilienceContext — the one object an iterative driver wires in.
///
/// Bundles the checkpoint manager, health monitor, fault injector, recovery
/// RNG, and counters. Drivers do not sequence these calls themselves: the
/// resilient iteration core (resilience/iteration.hpp) runs the whole
/// resume → inject → inspect → rollback → checkpoint protocol for every
/// iterative driver, and this object is its state.
///
/// The retry budget is per incident: consecutive failed recoveries count
/// against --max-retries, and one healthy iteration resets the streak.

#include <optional>
#include <string>

#include "common/rng.hpp"
#include "resilience/checkpoint.hpp"
#include "resilience/fault.hpp"
#include "resilience/health.hpp"
#include "resilience/resilience.hpp"

namespace sptd {

class ResilienceContext {
 public:
  /// \p kind names the driver ("cpals", "tucker", "completion", "dist") and
  /// keys checkpoint filenames; \p seed derives the recovery-jitter RNG.
  ResilienceContext(const ResilienceOptions& opts, const char* kind,
                    std::uint64_t seed);

  /// Loads the newest valid checkpoint when --resume is set (adopting it,
  /// recovery RNG included, is IterationCore::restore's job). Returns
  /// nullopt on a fresh start (resume with an empty dir is a fresh start,
  /// not an error, so "always pass --resume" is a safe operational habit).
  std::optional<Checkpoint> try_resume();

  [[nodiscard]] bool checkpoint_due(int completed) const {
    return manager_.due(completed);
  }

  /// Stamps kind + RNG state into \p ck and writes it (failures counted,
  /// non-fatal).
  void save_checkpoint(Checkpoint ck);

  /// Handles a detected health issue: consumes one retry and returns when
  /// the caller should roll back; throws ResilienceError once the
  /// consecutive-retry budget is exhausted. \p iteration is the 0-based
  /// iteration that failed.
  void fail_or_retry(HealthIssue issue, int iteration);

  /// Marks an iteration that passed inspection; resets the retry streak.
  void note_healthy();

  /// Samples the injector's fault count and copies counters into \p out.
  void finish(ResilienceCounters& out);

  HealthMonitor& health() { return health_; }
  FaultInjector* injector() {
    return injector_ ? &*injector_ : nullptr;
  }
  Rng& recovery_rng() { return recovery_rng_; }
  ResilienceCounters& counters() { return counters_; }

 private:
  ResilienceOptions opts_;
  std::string kind_;
  CheckpointManager manager_;
  HealthMonitor health_;
  std::optional<FaultInjector> injector_;
  Rng recovery_rng_;
  ResilienceCounters counters_;
  int consecutive_retries_ = 0;
};

}  // namespace sptd
