#pragma once
/// \file als_loop.hpp
/// \brief The CP-ALS iteration core shared by both drivers (internal).
///
/// cp_als_csf runs it over one shared-memory MttkrpPlan; the distributed
/// driver (dist/dist_cpals.cpp) runs it with one thread, assembling each
/// MTTKRP from locale partials through a transport all-reduce. Everything
/// after the MTTKRP — solve, clamp, normalize, f32 rounding, Grams, the
/// fit — exists once, here, so a 1x1x1 grid reproduces cp_als bitwise at
/// every precision. Health rollback and checkpoints are the shared
/// iteration core's (resilience/iteration.hpp).

#include <string>
#include <utility>
#include <vector>

#include "common/timer.hpp"
#include "cpd/cpals.hpp"
#include "resilience/iteration.hpp"

namespace sptd::detail {

/// Writes \p model and \p fit_history into \p ck: the factors plus the
/// series "lambda" and "fit_history" (the encoding of ALS checkpoints and
/// of the shm launcher's result file).
void encode_model(const KruskalModel& model,
                  const std::vector<double>& fit_history, Checkpoint& ck);

/// Moves the model and fit history out of \p ck, checking the factor
/// shapes against \p dims x \p rank; a missing fit history reads as empty.
/// Throws sptd::Error on a mismatch or a missing lambda.
void decode_model(Checkpoint& ck, const dims_t& dims, idx_t rank,
                  KruskalModel& model, std::vector<double>& fit_history);

/// The ALS iterate: model, fit history and the fit the tolerance rule
/// compares against.
struct CpalsState : KruskalModel {
  std::vector<double> fit_history;
  double prev_fit = 0.0;
};

/// Owns the ALS iteration (Grams, scratch, and the resilient iteration
/// core holding the iterate) and advances it one iteration per step().
/// The caller supplies the MTTKRP.
class CpalsLoop {
 public:
  /// Starts from the seeded initialization (see reset()). \p kind names
  /// the checkpoint series ("cpals", "dist", "dist-rank<r>").
  CpalsLoop(const CpalsOptions& options, const dims_t& dims,
            val_t tensor_norm_sq, const std::string& kind);

  /// Seeded factors (uniform [0,1)), unit lambda, empty history,
  /// iteration 0.
  void reset();
  /// Adopts a snapshot: model, history, prev_fit, iteration and the
  /// recovery RNG.
  void restore(Checkpoint&& ck) { core_.restore(std::move(ck), *this); }
  /// Restores the newest checkpoint when --resume is set (a no-op on a
  /// fresh start).
  void resume() { core_.resume(*this); }

  [[nodiscard]] bool done() const { return core_.done(); }
  [[nodiscard]] int iteration() const { return core_.iteration(); }

  /// One ALS iteration. \p mttkrp(factors, mode, out) overwrites \p out
  /// (shape dims[mode] x rank, zero padding lanes) with the mode's MTTKRP.
  /// A health failure rolls back instead of advancing iteration().
  template <class Mttkrp>
  void step(Mttkrp&& mttkrp) {
    core_.step(*this, [&](CpalsState& s, int it) {
      if (grams_stale_) refresh_grams(s);
      for (int m = 0; m < order(); ++m) {
        la::Matrix& out = spare_[static_cast<std::size_t>(m)];
        timers_.start(Routine::kMttkrp);
        mttkrp(std::as_const(s.factors), m, out);
        timers_.stop(Routine::kMttkrp);
        update_factor(s, it, m, out);
      }
    });
  }

  KruskalModel& model() { return core_.state(); }
  std::vector<double>& fit_history() { return core_.state().fit_history; }
  RoutineTimers& timers() { return timers_; }
  ResilienceContext& resilience() { return core_.resilience(); }

 private:
  friend class IterationCore<CpalsState>;

  [[nodiscard]] int order() const { return static_cast<int>(dims_.size()); }
  void refresh_grams(const CpalsState& s);
  void update_factor(CpalsState& s, int it, int mode, la::Matrix& out);

  // IterationCore hooks (resilience/iteration.hpp).
  double loss(CpalsState& s, bool corrupted);
  bool accept(CpalsState& s, double loss, int it);
  void fixup(CpalsState& s);
  void encode(const CpalsState& s, Checkpoint& ck) const;
  double decode(Checkpoint& ck, CpalsState& s);

  CpalsOptions opts_;
  dims_t dims_;
  val_t tensor_norm_sq_;
  IterationCore<CpalsState> core_;
  RoutineTimers timers_;

  /// Per-mode MTTKRP output; after the solve it swaps with the factor,
  /// so each sweep reuses the buffers of the factors it replaces.
  std::vector<la::Matrix> spare_;
  std::vector<la::Matrix> grams_;  ///< A^T A per mode
  bool grams_stale_ = true;        ///< factors replaced since the last ata
  la::Matrix v_;                   ///< Hadamard of the other modes' Grams
  la::Matrix fit_m_;               ///< last mode's MTTKRP, kept for the fit
  PrivateBuffers fit_partials_;    ///< per-thread fit scratch
  double fit_ = 0.0;               ///< the swept iterate's fit
};

}  // namespace sptd::detail
