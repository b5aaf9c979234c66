#include "parallel/team.hpp"

#include <omp.h>

#include "common/error.hpp"
#include "parallel/backend.hpp"

namespace sptd {

int hardware_threads() { return omp_get_max_threads(); }

void init_parallel_runtime() {
  static const bool once = [] {
    omp_set_dynamic(0);
    // Nested parallelism is never used by the kernels; benches sweep team
    // sizes explicitly. Keeping nesting off avoids accidental explosion
    // when a parallel_region is entered from a parallel caller. The pool
    // backend mirrors this: nested regions run serialized as body(0, 1).
    omp_set_max_active_levels(1);
    return true;
  }();
  (void)once;
}

namespace detail {

void parallel_region_ref(int nthreads, TeamBodyRef body) {
  SPTD_CHECK(nthreads >= 1, "parallel_region requires nthreads >= 1");
  if (nthreads == 1) {
    // Inline shortcut shared by every backend: a team of one is not a
    // region (matches OpenMP, where num_threads(1) still forks a team
    // but our pre-backend code already inlined it; keeping the inline
    // here keeps both backends bitwise-identical to that behavior).
    body(0, 1);
    return;
  }
  active_parallel_backend().run_team(nthreads, body);
}

}  // namespace detail

}  // namespace sptd
