// Exempt site: src/resilience owns the protocol, so the
// resilience-protocol rule must not fire here. Never compiled.

#include "resilience/context.hpp"

namespace fixture {

void core_step(sptd::ResilienceContext& rctx, State& s, int it) {
  if (s.unhealthy()) {
    rctx.fail_or_retry(s.issue(), it);
    sptd::perturb_factors(s.factors, rctx.recovery_rng());
    return;
  }
  rctx.note_healthy();
  if (rctx.checkpoint_due(it + 1)) rctx.save_checkpoint(s.encode());
}

}  // namespace fixture
