#pragma once
/// \file team.hpp
/// \brief Thin thread-team abstraction over pluggable parallel backends.
///
/// The paper contrasts Chapel's `coforall tid in 0..numTasks-1` with
/// OpenMP's `#pragma omp parallel`. Both map onto this helper: a parallel
/// region of an explicit number of workers, each invoked with (tid, nthreads).
/// Kernels never touch OpenMP pragmas directly, which keeps the
/// "tasking layer" swappable and testable — and since the backend split
/// (parallel/backend.hpp) the layer underneath is swappable too: the same
/// region runs on libgomp (`--backend omp`, the default) or on the
/// persistent std::thread pool (`--backend pool`).

#include <concepts>
#include <type_traits>

namespace sptd {

/// Returns the number of hardware threads OpenMP reports available
/// (omp_get_max_threads(), so OMP_NUM_THREADS sizes "all threads" the same
/// way under every backend).
int hardware_threads();

/// One-time OpenMP setup, run by the omp backend before its first team:
/// disables dynamic thread adjustment so that requested team sizes are
/// honored exactly (needed for the paper's thread sweeps, which
/// oversubscribe small machines) and caps active nesting at one level.
/// Safe to call often; only the first call does work.
void init_parallel_runtime();

namespace detail {

/// Non-owning reference to a (tid, nthreads) callable: a raw pointer plus
/// an invoke thunk, so dispatching a capturing lambda into the team never
/// allocates. The referenced callable must outlive the region (trivially
/// true — parallel_region blocks until every worker returns).
class TeamBodyRef {
 public:
  template <typename F>
    requires(!std::same_as<std::remove_cvref_t<F>, TeamBodyRef>)
  TeamBodyRef(F& body)  // NOLINT(google-explicit-constructor)
      : obj_(const_cast<void*>(static_cast<const void*>(&body))),
        invoke_([](void* obj, int tid, int nthreads) {
          (*static_cast<F*>(obj))(tid, nthreads);
        }) {}

  void operator()(int tid, int nthreads) const {
    invoke_(obj_, tid, nthreads);
  }

 private:
  void* obj_;
  void (*invoke_)(void*, int, int);
};

/// Out-of-line launcher: inlines the single-thread case, then dispatches
/// to the active ParallelBackend (backend.cpp owns the OpenMP pragma and
/// the std::thread pool).
void parallel_region_ref(int nthreads, TeamBodyRef body);

}  // namespace detail

/// Runs \p body on a team of exactly \p nthreads workers.
/// body(tid, nthreads) with tid in [0, nthreads). Equivalent to the paper's
/// `coforall` / `omp parallel num_threads(n)` pair (Listings 1-2). Any
/// callable is dispatched through a non-owning TeamBodyRef, so launching a
/// capturing lambda never allocates.
template <typename F>
void parallel_region(int nthreads, F&& body) {
  detail::TeamBodyRef ref(body);
  detail::parallel_region_ref(nthreads, ref);
}

}  // namespace sptd
