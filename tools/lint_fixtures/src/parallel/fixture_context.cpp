// Seeded violation: owning type-erased dispatch inside src/parallel —
// the regression the std-function-hot-path rule caught in a team
// wrapper's run(), which routed cached-plan iterations through the
// allocating cold-path overload instead of TeamBodyRef. Never compiled.

#include <functional>
#include <thread>

namespace fixture {

struct Context {
  int nthreads = 4;

  // The buggy shape of that run(): taking (and so
  // constructing) an owning wrapper per launch allocates on every
  // cached-plan iteration.
  void run(const std::function<void(int, int)>& body) const {  // VIOLATION std-function-hot-path
    body(0, nthreads);
  }

  // A site judged acceptable carries an allow marker and stays quiet.
  void run_cold(
      // sptd-lint: allow(std-function-hot-path) cold-path overload fixture
      const std::function<void(int, int)>& body) const {
    body(0, nthreads);
  }
};

// Raw thread construction is fine HERE: src/parallel is the one
// directory allowed to spawn threads (the pool backend lives here), so
// the omp-outside-parallel raw-thread pattern must not fire.
inline void backend_worker_ok() {
  std::thread worker([] {});
  worker.join();
}

}  // namespace fixture
