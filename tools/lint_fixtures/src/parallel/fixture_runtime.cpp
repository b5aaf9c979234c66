// Seeded violation: library code writing OpenMP's environment. libgomp
// parses OMP_*/GOMP_* once, in its load-time constructor, so these
// writes are inert however early they run. Never compiled.

#include <cstdlib>

namespace fixture {

inline void init_runtime() {
  setenv("OMP_WAIT_POLICY", "passive", 0);  // VIOLATION omp-env-setenv
  putenv(const_cast<char*>("GOMP_SPINCOUNT=0"));  // VIOLATION omp-env-setenv
  // sptd-lint: allow(omp-env-setenv) allow-marked twin must stay quiet
  setenv("OMP_DISPLAY_ENV", "true", 0);
  // Other variables are not OpenMP's: no finding.
  setenv("SPTD_BACKEND", "pool", 0);
}

}  // namespace fixture
