#include "resilience/context.hpp"

#include "common/log.hpp"

namespace sptd {

namespace {

// Decorrelates the recovery-jitter stream from the factor-init stream that
// shares the user's seed (arbitrary odd constant, xor-mixed).
constexpr std::uint64_t kRecoverySalt = 0x9e3779b97f4a7c15ULL;

}  // namespace

ResilienceContext::ResilienceContext(const ResilienceOptions& opts,
                                     const char* kind, std::uint64_t seed)
    : opts_(opts),
      kind_(kind),
      manager_(opts.checkpoint_dir, kind, opts.checkpoint_every),
      health_(opts.health_checks, opts.divergence_patience),
      recovery_rng_(seed ^ kRecoverySalt) {
  if (!opts.inject.empty()) {
    const FaultPlan plan = FaultPlan::parse(opts.inject);
    if (!plan.empty()) {
      injector_.emplace(plan, opts.inject_seed);
    }
  }
}

std::optional<Checkpoint> ResilienceContext::try_resume() {
  if (!opts_.resume) return std::nullopt;
  SPTD_CHECK(!opts_.checkpoint_dir.empty(),
             "--resume requires --checkpoint-dir");
  std::optional<Checkpoint> ck =
      CheckpointManager::load_latest(opts_.checkpoint_dir, kind_);
  if (!ck) {
    log_info("resilience: no valid " + kind_ + " checkpoint in " +
             opts_.checkpoint_dir + ", starting fresh");
    return std::nullopt;
  }
  log_info("resilience: resuming " + kind_ + " from iteration " +
           std::to_string(ck->iteration));
  return ck;
}

void ResilienceContext::save_checkpoint(Checkpoint ck) {
  ck.kind = kind_;
  ck.rng_state = recovery_rng_.state();
  manager_.save(ck, injector(), counters_);
}

void ResilienceContext::fail_or_retry(HealthIssue issue, int iteration) {
  if (consecutive_retries_ >= opts_.max_retries) {
    throw ResilienceError(kind_, iteration, issue, consecutive_retries_);
  }
  ++consecutive_retries_;
  ++counters_.retries;
  ++counters_.rollbacks;
  health_.reset_streak();
  log_warn("resilience: " + kind_ + " detected " +
           health_issue_name(issue) + " at iteration " +
           std::to_string(iteration) + "; rolling back (attempt " +
           std::to_string(consecutive_retries_) + "/" +
           std::to_string(opts_.max_retries) + ")");
}

void ResilienceContext::note_healthy() { consecutive_retries_ = 0; }

void ResilienceContext::finish(ResilienceCounters& out) {
  if (injector_) {
    counters_.faults_injected = injector_->faults_injected();
  }
  out = counters_;
}

}  // namespace sptd
