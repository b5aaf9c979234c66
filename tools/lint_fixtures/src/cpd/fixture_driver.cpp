// Seeded violation: an iterative driver outside src/resilience that runs
// its own copy of the resume → guard → rollback → checkpoint protocol
// instead of the iteration core. Never compiled.

#include "resilience/context.hpp"

namespace fixture {

void hand_rolled_loop(sptd::ResilienceContext& rctx, State& s, int it) {
  if (auto ck = rctx.try_resume()) {  // VIOLATION resilience-protocol
    s.adopt(*ck);
  }
  if (s.unhealthy()) {
    rctx.fail_or_retry(s.issue(), it);  // VIOLATION resilience-protocol
    s = s.good;
    // A waived site carries a marker and must stay quiet.
    // sptd-lint: allow(resilience-protocol) fixture: marker honored
    sptd::perturb_factors(s.factors, rctx.recovery_rng());
    return;
  }
  // Mentioning note_healthy or save_checkpoint in prose is not a call.
  if (rctx.checkpoint_due (it + 1)) {  // VIOLATION resilience-protocol
    s.save();
  }
}

}  // namespace fixture
