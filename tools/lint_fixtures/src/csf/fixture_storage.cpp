// Seeded violations: unaligned value arrays in a hot directory. Never
// compiled.

#include <vector>

struct FixtureStore {
  std::vector<val_t> vals;        // VIOLATION unaligned-value-array
  std::vector<float> vals_f32;    // VIOLATION unaligned-value-array
  std::vector<int> counts;        // fine: not a value stream
  aligned_vector<val_t> aligned;  // fine: the required type
};

void waived_scratch() {
  // sptd-lint: allow(unaligned-value-array) cold path, alignment irrelevant
  std::vector<val_t> tmp(8);
  (void)tmp;
}
