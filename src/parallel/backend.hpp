#pragma once
/// \file backend.hpp
/// \brief Pluggable parallel backends behind the parallel_region seam.
///
/// The paper's premise is that the tasking layer (Chapel `coforall` vs
/// OpenMP `parallel`) is swappable above the same MTTKRP kernels. The
/// repo's seam for that is parallel_region/TeamBodyRef (team.hpp); this
/// module makes the layer *underneath* the seam swappable too:
///
///  * omp  — the reference implementation: one
///           `#pragma omp parallel num_threads(n)` per region on
///           libgomp's persistent worker pool. libgomp reads
///           OMP_WAIT_POLICY once, when it loads, so idle workers park
///           only if the launch environment sets it. The default, and
///           behavior-identical to the pre-backend tree.
///  * pool — a persistent std::thread worker pool owned by this module.
///           A region of n "team slots" (tids) is published to the pool;
///           the submitting thread and any idle workers claim tids from a
///           shared cursor until all n have run. Workers spin briefly
///           between regions, then park on a per-worker cache-line-padded
///           futex word (std::atomic wait/notify), so idle workers
///           yield their cores without any environment setting. Exact
///           team sizes are honored: body(tid, n) runs once for every
///           tid in [0, n), with tids multiplexed onto however many
///           runners are actually free.
///
/// That multiplexing is the composability story. Two decompositions in
/// one process under the omp backend build two full OpenMP teams —
/// 2 x n threads contending for n cores, the nested-oversubscription
/// collapse bench_ablation_oversubscribe measures. Under the pool
/// backend both submitters share one fixed-width worker set: team slots
/// queue instead of threads, so the machine never runs more compute
/// threads than it has cores. No team body in this repo synchronizes
/// across tids inside a region (the SGD Latin schedule launches one
/// region per sub-epoch precisely to keep that true), which is what
/// makes sequential tid multiplexing safe.
///
/// Selection is process-wide: `SPTD_BACKEND=omp|pool` seeds the default,
/// `--backend` flags (CLI/bench) call set_parallel_backend(). Nested
/// parallel_region calls behave identically on both backends: the inner
/// region runs body(0, 1) (the omp backend via
/// omp_set_max_active_levels(1), the pool backend explicitly).

#include <string>

#include "parallel/team.hpp"

namespace sptd {

/// Which parallel backend executes parallel_region teams.
enum class ParallelBackendKind : int { kOmp = 0, kPool };

/// Parses "omp" / "pool"; throws sptd::Error otherwise.
ParallelBackendKind parse_parallel_backend(const std::string& name);

/// Flag/log name of a backend ("omp" / "pool").
const char* parallel_backend_name(ParallelBackendKind kind);

/// The process default: the SPTD_BACKEND environment variable parsed
/// once (first call), kOmp when unset or empty. Options structs default
/// their `backend` field from this, which is how `SPTD_BACKEND=pool
/// ctest` runs the whole suite on the pool backend.
ParallelBackendKind default_parallel_backend();

/// The currently selected process-wide backend.
ParallelBackendKind parallel_backend();

/// Selects the backend every subsequent parallel_region dispatches to.
/// Process-wide and idempotent; drivers (cp_als, tucker_hooi, the
/// completion/dist drivers, MttkrpPlan) apply their options' `backend`
/// field through here before building workspaces, so lock pools capture
/// the right lock flavor. Not safe to call concurrently with a different
/// kind while regions are in flight — concurrent runs must agree on the
/// backend (they share it by design).
void set_parallel_backend(ParallelBackendKind kind);

/// The backend interface: everything team.cpp needs to launch a region.
class ParallelBackend {
 public:
  virtual ~ParallelBackend() = default;

  /// Runs body(tid, nthreads) once for every tid in [0, nthreads) and
  /// returns when all of them have finished. Called with nthreads >= 2:
  /// parallel_region_ref inlines the single-thread case before
  /// dispatching (identically on every backend).
  virtual void run_team(int nthreads, detail::TeamBodyRef body) = 0;
};

/// The backend parallel_backend() currently names. Backends are
/// process-lifetime singletons; the pool backend's workers start lazily
/// on its first region and join at exit.
ParallelBackend& active_parallel_backend();

}  // namespace sptd
