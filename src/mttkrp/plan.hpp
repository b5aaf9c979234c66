#pragma once
/// \file plan.hpp
/// \brief Cached MTTKRP execution plans: decide once, execute many.
///
/// Every scheduling decision — which CSF representation serves a mode,
/// which kernel level, lock vs privatize, the nnz-weighted loop bounds,
/// and the kernel table row (precision x kernel width x index view) — is
/// made by plan_mode() (mttkrp.hpp). The planless mttkrp() makes it on
/// every call, i.e. order x iterations times per CP-ALS run; an
/// MttkrpPlan makes it once per mode per (CsfSet, options, rank) triple,
/// mirroring how SPLATT precomputes per-CSF execution metadata and reuses
/// it across the ALS sweep. execute() is pure execution through the
/// frozen kernel pointer: the hot loop performs zero weighted_partition()
/// or choose_sync_strategy() calls (asserted by tests/test_schedule.cpp
/// via the planning counters).
///
/// The plan also owns the MttkrpWorkspace, with privatized reduction
/// buffers pre-sized for the largest privatized mode, so no allocation
/// happens mid-loop either.

#include <vector>

#include "csf/csf.hpp"
#include "la/matrix.hpp"
#include "mttkrp/mttkrp.hpp"
#include "parallel/schedule.hpp"

namespace sptd {

/// One CsfSet's MTTKRP decisions, frozen. The CsfSet must outlive the
/// plan; factor shapes are validated on every execute().
class MttkrpPlan {
 public:
  /// Per-output-mode decisions.
  using ModePlan = MttkrpModePlan;

  MttkrpPlan(const CsfSet& set, idx_t rank, const MttkrpOptions& opts);

  /// Computes the mode-\p mode MTTKRP into \p out (dims[mode] x rank)
  /// using the cached decisions. Semantically identical to mttkrp() with
  /// the construction-time options.
  void execute(const std::vector<la::Matrix>& factors, int mode,
               la::Matrix& out);

  [[nodiscard]] const MttkrpOptions& options() const {
    return ws_.options();
  }
  [[nodiscard]] idx_t rank() const { return ws_.rank(); }
  [[nodiscard]] int order() const { return static_cast<int>(modes_.size()); }
  [[nodiscard]] MttkrpWorkspace& workspace() { return ws_; }

  /// The rank-specialized kernel width frozen at plan time:
  /// selected_kernel_width() — under pointer access, the rank itself when
  /// it is in la::kern::kInstantiatedWidths or the rank's padded row
  /// stride when that width is (rank 35, the paper's default, reports 40);
  /// 0 when execution runs the generic runtime-rank loops. Reported in
  /// every bench --json record. Every mode's table row shares it.
  [[nodiscard]] idx_t kernel_width() const {
    return modes_.front().key.width;
  }

  /// Introspection for benches/tests: the frozen decisions for one mode.
  [[nodiscard]] const ModePlan& mode_plan(int mode) const {
    return modes_[static_cast<std::size_t>(mode)];
  }

  /// Successful work-steal claims across every mode's schedule, cumulative
  /// over all execute() calls (0 unless the plan was built with the
  /// workstealing policy). Difference around a run for per-run counts.
  [[nodiscard]] std::uint64_t steals() const {
    std::uint64_t total = 0;
    for (const ModePlan& mp : modes_) {
      total += mp.slices.steals();
    }
    return total;
  }

 private:
  MttkrpWorkspace ws_;
  std::vector<ModePlan> modes_;
};

}  // namespace sptd
