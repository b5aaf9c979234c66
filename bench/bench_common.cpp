#include "bench_common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

namespace sptd::bench {

void add_common_flags(Options& cli, const char* default_preset,
                      const char* default_scale, const char* default_iters,
                      const char* default_threads) {
  cli.add("preset", default_preset,
          "dataset preset: yelp|rate-beer|beer-advocate|nell-2|netflix");
  cli.add("scale", default_scale,
          "preset scale (1.0 = the paper's full-size dataset)");
  cli.add("rank", "35", "decomposition rank (paper: 35)");
  cli.add("iters", default_iters,
          "iterations / mode sweeps per measurement (paper: 20)");
  cli.add("trials", "1", "trials to average (paper: 10)");
  cli.add("threads-list", default_threads,
          "thread counts to sweep (paper: 1,2,4,8,16,32)");
  cli.add("seed", "42", "generator seed");
  cli.add("schedule", "weighted",
          "slice scheduling policy: weighted|workstealing");
  cli.add("chunk", "16",
          "workstealing chunk target (claims per thread)");
  cli.add("kernels", "fixed",
          "inner-loop variant: fixed (rank-specialized SIMD) | generic");
  cli.add("csf-layout", "compressed",
          "CSF index widths: compressed (narrowest per level) | wide");
  cli.add("precision", "f64",
          "value-stream precision: f64 | f32 | mixed (fp32 streams, "
          "fp64 accumulation)");
  cli.add("backend", parallel_backend_name(default_parallel_backend()),
          "parallel backend: omp | pool (persistent std::thread workers; "
          "composes across concurrent runs in one process)");
  cli.add("json", "",
          "append one JSON record per measurement to this file");
  cli.add("checkpoint-every", "0",
          "checkpoint the solver every N iterations (0 = off); the "
          "serialization cost rides the JSON records as checkpoint_time");
  cli.add("checkpoint-dir", "",
          "checkpoint directory (defaults to <build>/bench_ckpt when "
          "--checkpoint-every is set)");
}

SchedulePolicy schedule_flag(const Options& cli) {
  return parse_schedule_policy(cli.get_string("schedule"));
}

CsfLayout csf_layout_flag(const Options& cli) {
  return parse_csf_layout(cli.get_string("csf-layout"));
}

Precision precision_flag(const Options& cli) {
  return parse_precision(cli.get_string("precision"));
}

namespace {

bool fixed_kernels_flag(const Options& cli) {
  const std::string k = cli.get_string("kernels");
  if (k == "fixed") return true;
  if (k == "generic") return false;
  throw Error("unknown --kernels value '" + k +
              "' (expected fixed|generic)");
}

}  // namespace

ParallelBackendKind backend_flag(const Options& cli) {
  return parse_parallel_backend(cli.get_string("backend"));
}

int chunk_flag(const Options& cli) {
  return cli.get_int_at_least("chunk", 1);
}

void apply_kernel_flags(const Options& cli, MttkrpOptions& opts) {
  opts.schedule = schedule_flag(cli);
  opts.chunk_target = chunk_flag(cli);
  opts.use_fixed_kernels = fixed_kernels_flag(cli);
  opts.csf_layout = csf_layout_flag(cli);
  opts.precision = precision_flag(cli);
  opts.backend = backend_flag(cli);
  set_parallel_backend(opts.backend);
}

void apply_kernel_flags(const Options& cli, CpalsOptions& opts) {
  opts.schedule = schedule_flag(cli);
  opts.chunk_target = chunk_flag(cli);
  opts.use_fixed_kernels = fixed_kernels_flag(cli);
  opts.csf_layout = csf_layout_flag(cli);
  opts.precision = precision_flag(cli);
  opts.backend = backend_flag(cli);
  set_parallel_backend(opts.backend);
  opts.resilience.checkpoint_every =
      static_cast<int>(cli.get_int("checkpoint-every"));
  if (opts.resilience.checkpoint_every > 0) {
    opts.resilience.checkpoint_dir = cli.get_string("checkpoint-dir");
    if (opts.resilience.checkpoint_dir.empty()) {
      opts.resilience.checkpoint_dir = "bench_ckpt";
    }
  }
}

void apply_kernel_flags(const Options& cli, DistOptions& opts) {
  opts.schedule = schedule_flag(cli);
  opts.chunk_target = chunk_flag(cli);
  opts.use_fixed_kernels = fixed_kernels_flag(cli);
  opts.csf_layout = csf_layout_flag(cli);
  opts.precision = precision_flag(cli);
  opts.backend = backend_flag(cli);
  set_parallel_backend(opts.backend);
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x",
                    static_cast<unsigned>(static_cast<unsigned char>(c)));
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

}  // namespace

JsonRecord& JsonRecord::field(const std::string& key,
                              const std::string& value) {
  fields_.emplace_back(key, "\"" + json_escape(value) + "\"");
  return *this;
}

JsonRecord& JsonRecord::field(const std::string& key, const char* value) {
  return field(key, std::string(value));
}

JsonRecord& JsonRecord::field(const std::string& key, double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  fields_.emplace_back(key, buf);
  return *this;
}

JsonRecord& JsonRecord::field(const std::string& key, std::int64_t value) {
  fields_.emplace_back(key, std::to_string(value));
  return *this;
}

JsonRecord& JsonRecord::append(const JsonRecord& other) {
  fields_.insert(fields_.end(), other.fields_.begin(), other.fields_.end());
  return *this;
}

bool JsonRecord::has(const std::string& key) const {
  for (const auto& [k, v] : fields_) {
    if (k == key) return true;
  }
  return false;
}

std::string JsonRecord::to_line() const {
  std::string line = "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) line += ",";
    line += "\"" + json_escape(fields_[i].first) + "\":" +
            fields_[i].second;
  }
  line += "}\n";
  return line;
}

void emit_json_record(const Options& cli, const char* bench,
                      JsonRecord record) {
  const std::string path = cli.get_string("json");
  if (path.empty()) {
    return;
  }
  JsonRecord full;
  full.field("bench", bench)
      .field("preset", cli.get_string("preset"))
      .field("scale", cli.get_double("scale"))
      .field("rank", cli.get_int("rank"))
      .field("schedule", cli.get_string("schedule"))
      .field("chunk", cli.get_int("chunk"))
      .field("kernels", cli.get_string("kernels"))
      .field("csf_layout", cli.get_string("csf-layout"))
      // Pool and omp runs of the same config are different executions
      // (different team launch machinery).
      .field("backend", cli.get_string("backend"))
      // A checkpointed run and a plain run are different configurations:
      // checkpoint overhead must never read as the plain config's cost.
      .field("checkpoint_every", cli.get_int("checkpoint-every"));
  if (!record.has("precision")) {
    // Precision sweeps (the precision ablation) set a per-record value;
    // everything else records the --precision flag.
    full.field("precision", cli.get_string("precision"));
  }
  if (!record.has("kernel_width")) {
    // The width the flags select under pointer row access; row-access
    // sweeps set a per-record width instead.
    MttkrpOptions probe;
    apply_kernel_flags(cli, probe);
    full.field("kernel_width",
               static_cast<std::int64_t>(selected_kernel_width(
                   static_cast<idx_t>(cli.get_int("rank")), probe)));
  }
  if (!record.has("steals")) {
    // Work-steal claims since the previous emitted record — i.e. the
    // measurement just taken, warm-up included. Benches emit one record
    // per measurement, so the process-wide counter delta attributes the
    // steals without threading a meter through every harness. Always 0
    // under the non-stealing policies. A diagnostic, not a measurement:
    // it varies run to run.
    static std::uint64_t last_steals = 0;
    const std::uint64_t now = work_steal_count();
    full.field("steals", static_cast<std::int64_t>(now - last_steals));
    last_steals = now;
  }
  full.append(record);
  std::FILE* f = std::fopen(path.c_str(), "a");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot append to %s\n", path.c_str());
    return;
  }
  std::fputs(full.to_line().c_str(), f);
  std::fclose(f);
}

SparseTensor make_dataset(const std::string& preset_name, double scale,
                          std::uint64_t seed) {
  const DatasetPreset& preset = find_preset(preset_name);
  const SyntheticConfig cfg = preset.scaled(scale, seed);
  std::printf("# dataset %s @ scale %g: %s, %llu nnz\n", preset.name.c_str(),
              scale, format_dims(cfg.dims).c_str(),
              static_cast<unsigned long long>(cfg.nnz));
  std::fflush(stdout);
  return generate_synthetic(cfg);
}

std::vector<la::Matrix> make_factors(const SparseTensor& t, idx_t rank,
                                     std::uint64_t seed) {
  Rng rng(seed);
  std::vector<la::Matrix> factors;
  factors.reserve(static_cast<std::size_t>(t.order()));
  for (int m = 0; m < t.order(); ++m) {
    factors.push_back(la::Matrix::random(t.dim(m), rank, rng));
  }
  return factors;
}

double time_mttkrp_sweeps(const CsfSet& set,
                          const std::vector<la::Matrix>& factors,
                          idx_t rank, const MttkrpOptions& opts, int iters,
                          std::string* strategies) {
  const int order = set.order();
  // Plan construction (partitioning, strategy choice, workspace sizing)
  // happens once here, outside the timed region — the same shape as the
  // CP-ALS driver.
  MttkrpPlan plan(set, rank, opts);
  // Pre-size output buffers outside the timed region.
  std::vector<la::Matrix> outs;
  for (int m = 0; m < order; ++m) {
    outs.emplace_back(set.csfs().front().dims()[static_cast<std::size_t>(m)],
                      rank);
  }
  // Warm once (first-touch page faults are not what the paper measures).
  for (int m = 0; m < order; ++m) {
    plan.execute(factors, m, outs[static_cast<std::size_t>(m)]);
    if (strategies != nullptr) {
      if (!strategies->empty()) *strategies += ",";
      *strategies += sync_strategy_name(plan.mode_plan(m).strategy);
    }
  }
  WallTimer timer;
  timer.start();
  for (int it = 0; it < iters; ++it) {
    for (int m = 0; m < order; ++m) {
      plan.execute(factors, m, outs[static_cast<std::size_t>(m)]);
    }
  }
  timer.stop();
  return timer.seconds();
}

RoutineTimers run_cpals_trials(const SparseTensor& tensor,
                               const CpalsOptions& opts, int trials) {
  {
    // Untimed warm-up: first-touch page faults and allocator growth are
    // not part of what the paper measures.
    SparseTensor work = tensor;
    CpalsOptions warm = opts;
    warm.max_iterations = 1;
    (void)cp_als(work, warm);
  }
  RoutineTimers total;
  for (int trial = 0; trial < trials; ++trial) {
    SparseTensor work = tensor;
    const CpalsResult r = cp_als(work, opts);
    total.accumulate(r.timers);
  }
  total.scale(1.0 / trials);
  return total;
}

std::vector<RoutineTimers> run_impls_fair(
    const SparseTensor& tensor, const CpalsOptions& base_opts,
    const std::vector<std::string>& impl_names, int trials,
    std::vector<std::uint64_t>* steals, std::uint64_t* csf_bytes,
    std::uint64_t* value_bytes, std::vector<double>* fits,
    std::vector<ResilienceCounters>* resilience) {
  std::vector<CpalsOptions> opts;
  for (const auto& name : impl_names) {
    CpalsOptions o = base_opts;
    apply_impl_variant(find_impl_variant(name), o);
    opts.push_back(o);
  }
  // Warm every variant (page faults, allocator growth, code paths).
  // Warm-ups never checkpoint: the counters must describe the timed work.
  for (const auto& o : opts) {
    SparseTensor work = tensor;
    CpalsOptions warm = o;
    warm.max_iterations = 1;
    warm.resilience.checkpoint_every = 0;
    (void)cp_als(work, warm);
  }
  std::vector<RoutineTimers> totals(impl_names.size());
  if (steals != nullptr) {
    steals->assign(impl_names.size(), 0);
  }
  if (fits != nullptr) {
    fits->assign(impl_names.size(), 0.0);
  }
  if (resilience != nullptr) {
    resilience->assign(impl_names.size(), ResilienceCounters{});
  }
  std::vector<double> ckpt_min(impl_names.size(),
                               std::numeric_limits<double>::infinity());
  for (int trial = 0; trial < trials; ++trial) {
    for (std::size_t i = 0; i < opts.size(); ++i) {
      SparseTensor work = tensor;
      const std::uint64_t steals_before = work_steal_count();
      const CpalsResult r = cp_als(work, opts[i]);
      if (steals != nullptr) {
        (*steals)[i] += work_steal_count() - steals_before;
      }
      if (csf_bytes != nullptr) {
        *csf_bytes = r.csf_bytes;
      }
      if (value_bytes != nullptr) {
        *value_bytes = r.value_bytes;
      }
      if (fits != nullptr && !r.fit_history.empty()) {
        (*fits)[i] = r.fit_history.back();
      }
      if (resilience != nullptr) {
        ResilienceCounters& c = (*resilience)[i];
        c.retries += r.resilience.retries;
        c.rollbacks += r.resilience.rollbacks;
        c.checkpoints += r.resilience.checkpoints;
        c.checkpoint_failures += r.resilience.checkpoint_failures;
        c.checkpoint_bytes += r.resilience.checkpoint_bytes;
        ckpt_min[i] = std::min(ckpt_min[i], r.resilience.checkpoint_seconds);
        c.faults_injected += r.resilience.faults_injected;
        c.gram_bumps += r.resilience.gram_bumps;
      }
      totals[i].accumulate(r.timers);
    }
  }
  for (auto& t : totals) {
    t.scale(1.0 / trials);
  }
  if (resilience != nullptr) {
    // Checkpoint cost reports the MIN over trials, not the mean: an fsync
    // that collides with an unrelated journal commit costs ~0.3 s, and one
    // such spike would dominate any average. The overhead contract bounds
    // the intrinsic serialize+sync cost, which the best trial measures;
    // event counts stay sums and bytes (identical per trial) average.
    for (std::size_t i = 0; i < resilience->size(); ++i) {
      ResilienceCounters& c = (*resilience)[i];
      c.checkpoint_seconds = std::isinf(ckpt_min[i]) ? 0.0 : ckpt_min[i];
      c.checkpoint_bytes = static_cast<std::uint64_t>(
          c.checkpoint_bytes / static_cast<std::uint64_t>(trials));
    }
  }
  return totals;
}

void print_routine_header(const char* label) {
  std::printf("%-28s", label);
  for (int r = 0; r < kNumRoutines; ++r) {
    std::printf(" %10s", routine_name(static_cast<Routine>(r)));
  }
  std::printf("\n");
}

void print_routine_row(const char* label, const RoutineTimers& timers) {
  std::printf("%-28s", label);
  for (int r = 0; r < kNumRoutines; ++r) {
    std::printf(" %10.4f", timers.seconds(static_cast<Routine>(r)));
  }
  std::printf("\n");
  std::fflush(stdout);
}

void print_series_header(const std::vector<int>& threads) {
  std::printf("%-24s", "threads");
  for (const int t : threads) {
    std::printf(" %10d", t);
  }
  std::printf("\n");
}

void print_series(const std::string& label, const std::vector<int>& threads,
                  const std::vector<double>& seconds) {
  std::printf("%-24s", label.c_str());
  for (std::size_t i = 0; i < threads.size() && i < seconds.size(); ++i) {
    std::printf(" %10.4f", seconds[i]);
  }
  std::printf("\n");
  std::fflush(stdout);
}

}  // namespace sptd::bench
