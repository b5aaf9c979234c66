#pragma once
/// \file sptd.hpp
/// \brief Umbrella header for the sptd library — sparse parallel tensor
///        decomposition (C++ reproduction of "Parallel Sparse Tensor
///        Decomposition in Chapel", Rolinger et al. 2018).
///
/// Typical use:
/// \code
///   #include "sptd.hpp"
///   sptd::SparseTensor x = sptd::read_tns_file("data.tns");
///   sptd::CpalsOptions opts;
///   opts.rank = 35;
///   opts.nthreads = 8;
///   sptd::CpalsResult r = sptd::cp_als(x, opts);
///   double fit = r.fit_history.back();
/// \endcode

#include "common/log.hpp"
#include "common/options.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "common/types.hpp"
#include "completion/completion.hpp"
#include "completion/solver.hpp"
#include "completion/workspace.hpp"
#include "cpd/cpals.hpp"
#include "cpd/kruskal.hpp"
#include "cpd/model_io.hpp"
#include "csf/csf.hpp"
#include "dist/dist_cpals.hpp"
#include "mttkrp/plan.hpp"
#include "la/blas.hpp"
#include "la/cholesky.hpp"
#include "la/eigen.hpp"
#include "la/matrix.hpp"
#include "la/norms.hpp"
#include "mttkrp/mttkrp.hpp"
#include "parallel/backend.hpp"
#include "parallel/schedule.hpp"
#include "parallel/team.hpp"
#include "resilience/checkpoint.hpp"
#include "resilience/context.hpp"
#include "resilience/fault.hpp"
#include "resilience/health.hpp"
#include "resilience/resilience.hpp"
#include "sort/sort.hpp"
#include "tensor/coo.hpp"
#include "tensor/dense.hpp"
#include "tensor/io.hpp"
#include "tensor/stats.hpp"
#include "tensor/synthetic.hpp"
#include "tucker/tucker.hpp"
