#pragma once
/// \file iteration.hpp
/// \brief The resilient iteration core every iterative driver runs
///        (internal): resume → guard → rollback → checkpoint, once.
///
/// CP-ALS (cpd/als_loop.hpp, which the distributed driver also runs),
/// completion and Tucker HOOI keep only their State, step, checkpoint
/// codec and post-rollback fix-up; "killed and resumed == clean" and
/// "rolled back == deterministic" hold here, for all of them. The
/// resilience-protocol lint rule keeps the protocol calls in this layer.
///
/// A State holds `std::vector<la::Matrix> factors` and
/// `std::vector<val_t> lambda` (empty when the model has no weights),
/// which injection, the health scan and the perturbation act on, plus
/// the driver's histories. Its copy assignment is member-wise, so the
/// last-good snapshot reuses its buffers. A Driver over State S supplies
///   double loss(S&, bool corrupted)  lower-is-better score of the swept
///       state; \p corrupted: the injector just overwrote factor entries
///   bool accept(S&, double loss, int it)  records a healthy iteration
///       (history, stop rule); true stops the run
///   void fixup(S&)  restores the driver's invariants after
///       rollback-and-perturb
///   void encode(const S&, Checkpoint&)  factors, series and scalars
///   double decode(Checkpoint&, S&)  their inverse (the factor shapes are
///       checked already); returns the lowest loss of the restored
///       history (+inf when empty)

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "resilience/context.hpp"

namespace sptd::detail {

/// Lowest loss of a recorded history: 1 - fit per entry when \p fits,
/// else the entries themselves (+inf when empty).
inline double lowest_loss(const std::vector<double>& history, bool fits) {
  double best = std::numeric_limits<double>::infinity();
  for (const double h : history) {
    best = std::min(best, fits ? 1.0 - h : h);
  }
  return best;
}

template <class State>
class IterationCore {
 public:
  /// \p kind names the driver and keys its checkpoint files; \p seed
  /// derives the recovery-jitter RNG.
  IterationCore(const ResilienceOptions& options, const char* kind,
                std::uint64_t seed, int max_iterations)
      : rctx_(options, kind, seed), max_iterations_(max_iterations) {}

  /// The working iterate (the driver initializes it before start()).
  State& state() { return state_; }
  [[nodiscard]] int iteration() const { return it_; }
  [[nodiscard]] bool done() const {
    return stopped_ || it_ >= max_iterations_;
  }
  ResilienceContext& resilience() { return rctx_; }

  /// Starts at iteration 0 from the driver's freshly initialized state().
  void start() {
    it_ = 0;
    stopped_ = false;
    rctx_.health().reset();
    snapshot();
  }

  /// Restores the newest checkpoint when --resume is set; false on a
  /// fresh start.
  template <class Driver>
  bool resume(Driver& driver) {
    std::optional<Checkpoint> ck = rctx_.try_resume();
    if (ck) restore(std::move(*ck), driver);
    return ck.has_value();
  }

  /// Adopts a snapshot whose factors have the iterate's shapes. The loss
  /// trend comes from the restored history alone: survivors of a
  /// distributed recovery (stale pre-crash trend) and a respawned rank
  /// must make identical rollback decisions in replay, or the collectives
  /// desynchronize.
  template <class Driver>
  void restore(Checkpoint&& ck, Driver& driver) {
    bool shapes_match = ck.factors.size() == state_.factors.size();
    for (std::size_t m = 0; shapes_match && m < ck.factors.size(); ++m) {
      shapes_match = ck.factors[m].rows() == state_.factors[m].rows() &&
                     ck.factors[m].cols() == state_.factors[m].cols();
    }
    SPTD_CHECK(shapes_match, ck.kind + " restore: checkpoint factor "
                                       "shapes do not match the run");
    const double best_loss = driver.decode(ck, state_);
    it_ = ck.iteration;
    stopped_ = false;
    rctx_.recovery_rng().set_state(ck.rng_state);
    rctx_.counters().resumed_from = it_;
    rctx_.health().reset();
    rctx_.health().seed_trend(best_loss);
    snapshot();
  }

  /// One guarded iteration: \p step(state, it) sweeps the iterate; a
  /// health failure rolls back instead of advancing iteration().
  template <class Driver, class Step>
  void step(Driver& driver, Step&& step) {
    step(state_, it_);
    // Fault injection lands between the update and the health scan,
    // exactly where a soft error would corrupt an iterate.
    FaultInjector* inj = rctx_.injector();
    const bool corrupted =
        inj != nullptr && inj->corrupt_factors(state_.factors, it_) > 0;
    const double loss = driver.loss(state_, corrupted);

    if (rctx_.health().enabled()) {
      const HealthIssue issue =
          rctx_.health().inspect(state_.factors, state_.lambda, loss);
      if (issue != HealthIssue::kNone) {
        rctx_.fail_or_retry(issue, it_);  // throws when retries run out
        // Rollback-and-perturb: restore the last healthy state and jitter
        // it off the failing trajectory.
        state_ = good_;
        it_ = good_iteration_;
        perturb_factors(state_.factors, rctx_.recovery_rng());
        driver.fixup(state_);
        return;
      }
      rctx_.note_healthy();
    }

    stopped_ = driver.accept(state_, loss, it_);
    ++it_;
    snapshot();
    // Mid-run snapshots only: a run that is about to return rebuilds
    // nothing on resume, and the final model is the caller's to persist.
    if (!done() && rctx_.checkpoint_due(it_)) {
      Checkpoint ck;
      ck.iteration = it_;
      driver.encode(state_, ck);
      rctx_.save_checkpoint(std::move(ck));
    }
  }

 private:
  void snapshot() {
    // One state copy per iteration, O(model) — noise next to the sweep —
    // and only while guards are on.
    if (rctx_.health().enabled()) {
      good_ = state_;
      good_iteration_ = it_;
    }
  }

  ResilienceContext rctx_;
  int max_iterations_;
  State state_;
  State good_;  ///< last state that passed the health scan
  int good_iteration_ = 0;
  int it_ = 0;
  bool stopped_ = false;
};

}  // namespace sptd::detail
