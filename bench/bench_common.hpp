#pragma once
/// \file bench_common.hpp
/// \brief Shared machinery for the table/figure reproduction harnesses.
///
/// Every bench binary regenerates one table or figure of the paper. They
/// share: dataset synthesis from the Table I presets (scaled to laptop
/// size), timed MTTKRP mode sweeps, full CP-ALS runs with per-routine
/// breakdowns, and plain-text table printing in the paper's layout.
///
/// Common flags (every harness): --scale, --rank, --iters, --trials,
/// --threads-list, --seed. Paper-scale settings are documented per bench;
/// defaults finish in seconds on a laptop.

#include <cstdio>
#include <string>
#include <vector>

#include "sptd.hpp"

namespace sptd::bench {

/// Registers the flags shared by all harnesses. Besides the sweep knobs
/// this includes --schedule (slice scheduling policy for the kernels under
/// test), --chunk (work-stealing claims-per-thread target), --kernels
/// (fixed = rank-specialized SIMD inner loops where available, generic =
/// force the runtime-rank loops) and --json (append one JSON record per
/// measurement to a file, so BENCH_*.json trajectories can compare
/// runs/policies offline).
void add_common_flags(Options& cli, const char* default_preset,
                      const char* default_scale, const char* default_iters,
                      const char* default_threads);

/// The --schedule flag, parsed.
SchedulePolicy schedule_flag(const Options& cli);

/// The --csf-layout flag, parsed (compressed = per-level narrowest index
/// widths, wide = the u32/u64 ablation baseline).
CsfLayout csf_layout_flag(const Options& cli);

/// The --precision flag, parsed (f64 | f32 | mixed; common/precision.hpp).
Precision precision_flag(const Options& cli);

/// The --backend flag, parsed (omp | pool; parallel/backend.hpp). The
/// default comes from SPTD_BACKEND (omp when unset).
ParallelBackendKind backend_flag(const Options& cli);

/// The --chunk flag, validated (>= 1) before any unsigned conversion can
/// wrap a negative value into a huge chunk target.
int chunk_flag(const Options& cli);

/// Applies the common kernel/schedule flags (--schedule, --chunk,
/// --kernels) onto MTTKRP options.
void apply_kernel_flags(const Options& cli, MttkrpOptions& opts);

/// Applies the same flags onto CP-ALS options.
void apply_kernel_flags(const Options& cli, CpalsOptions& opts);

/// Applies the same flags onto the distributed-simulation options (each
/// locale's plan consumes them), so the emitted JSON fields describe what
/// actually ran.
void apply_kernel_flags(const Options& cli, DistOptions& opts);

/// One measurement record for the --json sink: insertion-ordered key/value
/// pairs serialized as a single JSON object per line (JSON Lines). Every
/// record automatically carries the bench name, preset, scale, and
/// schedule fields from the CLI flags.
class JsonRecord {
 public:
  JsonRecord& field(const std::string& key, const std::string& value);
  JsonRecord& field(const std::string& key, const char* value);
  JsonRecord& field(const std::string& key, double value);
  JsonRecord& field(const std::string& key, std::int64_t value);

  /// Splices another record's fields after this one's.
  JsonRecord& append(const JsonRecord& other);

  /// True if a field with this key has been set.
  [[nodiscard]] bool has(const std::string& key) const;

  [[nodiscard]] std::string to_line() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Appends \p record to the file named by --json (no-op when the flag is
/// empty), prefixed with the standard bench/preset/scale/schedule/chunk/
/// kernels fields. Every record also carries the selected kernel_width
/// (0 = generic loops): benches whose record already set one — e.g. the
/// row-access ablations, where the width depends on the swept policy —
/// keep theirs, otherwise the width the --rank/--kernels flags select
/// under pointer access is added. Records likewise carry a `steals`
/// counter: successful work-steal chunk claims since the previous record
/// (nonzero only under --schedule workstealing), so a skewed run can
/// prove stealing engaged.
void emit_json_record(const Options& cli, const char* bench,
                      JsonRecord record);

/// Generates a preset dataset at the requested scale, printing one line
/// describing it.
SparseTensor make_dataset(const std::string& preset_name, double scale,
                          std::uint64_t seed);

/// Deterministic factor matrices for a tensor.
std::vector<la::Matrix> make_factors(const SparseTensor& t, idx_t rank,
                                     std::uint64_t seed);

/// Times \p iters full mode sweeps (every mode once per sweep) of the
/// CSF MTTKRP under the given options; returns total seconds. The
/// strategy chosen for each mode of the first sweep is appended to
/// \p strategies when non-null.
double time_mttkrp_sweeps(const CsfSet& set,
                          const std::vector<la::Matrix>& factors,
                          idx_t rank, const MttkrpOptions& opts, int iters,
                          std::string* strategies = nullptr);

/// Runs CP-ALS \p trials times with the given options on copies of
/// \p tensor and returns the per-routine timer table averaged over trials.
RoutineTimers run_cpals_trials(const SparseTensor& tensor,
                               const CpalsOptions& opts, int trials);

/// Fair comparison of implementation variants: warms every variant once,
/// then interleaves trials round-robin so all variants face the same
/// allocator/huge-page state (completing all trials of one variant before
/// the next systematically favours whichever ran in the younger heap).
/// Returns one averaged timer table per variant, in input order. When
/// \p steals is non-null it receives each variant's work-steal claim
/// count summed over its (timed) trials — the interleaving means the
/// process-wide counter delta at emit time cannot attribute steals to a
/// variant, so this measures them around each cp_als call instead.
/// \p csf_bytes, when non-null, receives the CSF footprint of the timed
/// runs (each run overwrites it; the value is identical across variants
/// and trials because they share one layout/policy/tensor).
/// \p value_bytes, when non-null, likewise receives the bytes of tensor
/// values streamed per MTTKRP launch under the run's precision.
/// \p fits, when non-null, receives each variant's final fit (runs are
/// deterministic in the seed, so the value is trial-independent) — the
/// quality number the precision ablation gates on.
/// \p resilience, when non-null, receives each variant's resilience
/// counters summed over the timed trials (retries, rollbacks, checkpoint
/// bytes/seconds) — warm-up runs checkpoint nothing, so the counters
/// describe exactly the measured work.
std::vector<RoutineTimers> run_impls_fair(
    const SparseTensor& tensor, const CpalsOptions& base_opts,
    const std::vector<std::string>& impl_names, int trials,
    std::vector<std::uint64_t>* steals = nullptr,
    std::uint64_t* csf_bytes = nullptr,
    std::uint64_t* value_bytes = nullptr,
    std::vector<double>* fits = nullptr,
    std::vector<ResilienceCounters>* resilience = nullptr);

/// Prints the header used by per-routine tables (Figures 5-8, Table III).
void print_routine_header(const char* label);

/// Prints one row of per-routine seconds.
void print_routine_row(const char* label, const RoutineTimers& timers);

/// Prints a figure-style series: label then seconds per thread count.
void print_series(const std::string& label,
                  const std::vector<int>& threads,
                  const std::vector<double>& seconds);

/// Prints the series header row ("threads  1  2  4 ...").
void print_series_header(const std::vector<int>& threads);

}  // namespace sptd::bench
