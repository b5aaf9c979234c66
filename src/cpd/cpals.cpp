#include "cpd/cpals.hpp"

#include "common/error.hpp"
#include "cpd/als_loop.hpp"
#include "mttkrp/plan.hpp"
#include "parallel/team.hpp"

namespace sptd {

const std::vector<ImplVariant>& impl_variants() {
  static const std::vector<ImplVariant> variants = {
      // The reference C/OpenMP SPLATT code paths.
      {"c", RowAccess::kPointer, LockKind::kOmp, SortVariant::kAllOpts},
      // The port before any optimization: slices, sync vars, naive sort.
      {"chapel-initial", RowAccess::kSlice, LockKind::kSync,
       SortVariant::kInitial},
      // The port after the paper's optimization campaign.
      {"chapel-optimize", RowAccess::kPointer, LockKind::kAtomic,
       SortVariant::kAllOpts},
  };
  return variants;
}

const ImplVariant& find_impl_variant(const std::string& name) {
  for (const auto& v : impl_variants()) {
    if (v.name == name) {
      return v;
    }
  }
  throw Error("unknown implementation variant '" + name +
              "' (expected c|chapel-initial|chapel-optimize)");
}

void apply_impl_variant(const ImplVariant& variant, CpalsOptions& opts) {
  opts.row_access = variant.row_access;
  opts.lock_kind = variant.lock_kind;
  opts.sort_variant = variant.sort_variant;
}

CpalsResult cp_als_csf(const CsfSet& csf_set, val_t tensor_norm_sq,
                       const CpalsOptions& options) {
  SPTD_CHECK(options.rank >= 1, "cp_als: rank must be >= 1");
  SPTD_CHECK(options.max_iterations >= 1, "cp_als: need >= 1 iteration");
  SPTD_CHECK(options.nthreads >= 1, "cp_als: nthreads must be >= 1");
  set_parallel_backend(options.backend);

  MttkrpOptions mopts;
  mopts.nthreads = options.nthreads;
  mopts.row_access = options.row_access;
  mopts.lock_kind = options.lock_kind;
  mopts.schedule = options.schedule;
  mopts.chunk_target = options.chunk_target;
  mopts.privatization_threshold = options.privatization_threshold;
  mopts.force_locks = options.force_locks;
  mopts.allow_privatization = options.allow_privatization;
  mopts.use_fixed_kernels = options.use_fixed_kernels;
  mopts.csf_layout = options.csf_layout;
  mopts.precision = options.precision;
  mopts.backend = options.backend;
  // All scheduling decisions — representation/level per mode, sync
  // strategy, slice bounds, reduction buffers — are frozen here; the
  // iteration loop below is pure execution.
  MttkrpPlan plan(csf_set, options.rank, mopts);

  detail::CpalsLoop als(options, csf_set.csfs().front().dims(),
                        tensor_norm_sq, "cpals");
  als.resume();
  while (!als.done()) {
    als.step([&plan](const std::vector<la::Matrix>& factors, int mode,
                     la::Matrix& out) { plan.execute(factors, mode, out); });
  }

  CpalsResult result;
  result.model = std::move(als.model());
  result.fit_history = std::move(als.fit_history());
  result.iterations = als.iteration();
  result.timers = als.timers();
  result.csf_bytes = csf_set.memory_bytes();
  result.value_bytes = csf_set.value_bytes(options.precision);
  als.resilience().finish(result.resilience);
  return result;
}

CpalsResult cp_als(SparseTensor& tensor, const CpalsOptions& options) {
  SPTD_CHECK(tensor.nnz() > 0, "cp_als: empty tensor");
  // Backend first: CSF sorting below already runs parallel regions.
  set_parallel_backend(options.backend);
  const val_t norm_sq = tensor.norm_sq();

  // Sort + CSF construction. Sorting is the paper's "Sort" routine and is
  // charged to the result's timer table.
  double sort_seconds = 0.0;
  CsfSet csf_set(tensor, options.csf_policy, options.nthreads,
                 &sort_seconds, options.sort_variant, options.csf_layout);

  CpalsResult result = cp_als_csf(csf_set, norm_sq, options);
  result.timers.add_seconds(Routine::kSort, sort_seconds);
  return result;
}

}  // namespace sptd
