#include "mttkrp/plan.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace sptd {

MttkrpPlan::MttkrpPlan(const CsfSet& set, idx_t rank,
                       const MttkrpOptions& opts)
    : ws_(opts, rank, set.order()) {
  const int order = set.order();
  modes_.reserve(static_cast<std::size_t>(order));
  idx_t max_privatized_rows = 0;
  for (int m = 0; m < order; ++m) {
    int level = 0;
    const CsfTensor& csf = set.csf_for_mode(m, level);
    modes_.push_back(plan_mode(csf, m, rank, opts));
    if (modes_.back().strategy == SyncStrategy::kPrivatize) {
      max_privatized_rows = std::max(
          max_privatized_rows, csf.dims()[static_cast<std::size_t>(m)]);
    }
  }
  // Pre-size the privatized reduction bank so execute() never allocates.
  if (max_privatized_rows > 0) {
    ws_.privatized(max_privatized_rows);
  }
}

void MttkrpPlan::execute(const std::vector<la::Matrix>& factors, int mode,
                         la::Matrix& out) {
  SPTD_CHECK(mode >= 0 && mode < order(), "MttkrpPlan: mode out of range");
  mttkrp_csf_exec(modes_[static_cast<std::size_t>(mode)], factors, out, ws_);
}

}  // namespace sptd
