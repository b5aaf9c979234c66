#include "resilience/resilience.hpp"

#include <sstream>

#include "common/options.hpp"

namespace sptd {

const char* health_issue_name(HealthIssue issue) {
  switch (issue) {
    case HealthIssue::kNone:
      return "none";
    case HealthIssue::kNonFiniteFactor:
      return "non-finite factor entries";
    case HealthIssue::kNonFiniteLoss:
      return "non-finite fit/loss";
    case HealthIssue::kDivergence:
      return "divergent fit/loss trend";
  }
  return "unknown";
}

namespace {

std::string format_resilience_error(const std::string& kind, int iteration,
                                    HealthIssue issue, int retries) {
  std::ostringstream os;
  os << "[resilience] " << kind << ": " << health_issue_name(issue)
     << " at iteration " << iteration << " after " << retries
     << (retries == 1 ? " recovery attempt" : " recovery attempts")
     << " (--max-retries exhausted)";
  return os.str();
}

}  // namespace

ResilienceError::ResilienceError(const std::string& kind, int iteration,
                                 HealthIssue issue, int retries)
    : Error(format_resilience_error(kind, iteration, issue, retries)),
      iteration_(iteration),
      issue_(issue),
      retries_(retries) {}

void add_resilience_flags(Options& opts) {
  opts.add("checkpoint-dir", "",
           "directory for checkpoint files (empty disables checkpointing)");
  opts.add("checkpoint-every", "0",
           "write a checkpoint every N completed iterations (0 = off)");
  opts.add_flag("resume",
                "resume from the newest valid checkpoint in --checkpoint-dir");
  opts.add("max-retries", "2",
           "rollback-and-perturb attempts per incident before failing");
  opts.add("patience", "3",
           "consecutive regressing iterations before declaring divergence");
  opts.add_flag("no-health-guards",
                "disable the per-iteration numeric-health scan");
  opts.add("inject", "",
           "deterministic fault plan: nan-values:p,corrupt-factor:iter,"
           "io-fail:n,locale-fail:k");
  opts.add("inject-seed", "1337", "seed for the fault-injection draw stream");
}

ResilienceOptions resilience_from_flags(const Options& opts) {
  ResilienceOptions r;
  r.checkpoint_dir = opts.get_string("checkpoint-dir");
  r.checkpoint_every = opts.get_int_at_least("checkpoint-every", 0);
  r.resume = opts.get_bool("resume");
  r.max_retries = opts.get_int_at_least("max-retries", 0);
  r.divergence_patience = opts.get_int_at_least("patience", 0);
  r.health_checks = !opts.get_bool("no-health-guards");
  r.inject = opts.get_string("inject");
  r.inject_seed = static_cast<std::uint64_t>(opts.get_int("inject-seed"));
  return r;
}

std::string resilience_summary(const ResilienceCounters& c) {
  const bool noteworthy = c.resumed_from >= 0 || c.checkpoints > 0 ||
                          c.checkpoint_failures > 0 || c.retries > 0 ||
                          c.rollbacks > 0 || c.faults_injected > 0 ||
                          c.gram_bumps > 0 || c.locale_restarts > 0;
  if (!noteworthy) return {};
  std::ostringstream os;
  os << "resilience:";
  if (c.resumed_from >= 0) {
    os << " resumed from iteration " << c.resumed_from << ";";
  }
  os << " " << c.checkpoints << " checkpoints (" << c.checkpoint_bytes
     << " bytes, " << c.checkpoint_seconds << " s";
  if (c.checkpoint_failures > 0) {
    os << ", " << c.checkpoint_failures << " failed writes";
  }
  os << "); " << c.retries << " retries, " << c.rollbacks << " rollbacks, "
     << c.faults_injected << " faults injected";
  if (c.gram_bumps > 0) {
    os << ", " << c.gram_bumps << " gram bumps";
  }
  if (c.locale_restarts > 0) {
    os << ", " << c.locale_restarts << " locale restarts";
  }
  return os.str();
}

}  // namespace sptd
