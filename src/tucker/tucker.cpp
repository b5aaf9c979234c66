#include "tucker/tucker.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "la/blas.hpp"
#include "la/eigen.hpp"
#include "parallel/locks.hpp"
#include "parallel/partition.hpp"
#include "parallel/team.hpp"
#include "resilience/iteration.hpp"

namespace sptd {

val_t TuckerModel::core_norm_sq() const {
  val_t acc = 0;
  for (const val_t v : core) {
    acc += v * v;
  }
  return acc;
}

val_t TuckerModel::value_at(std::span<const idx_t> coords) const {
  SPTD_DCHECK(static_cast<int>(coords.size()) == order(),
              "value_at: wrong order");
  const int n = order();
  // Walk every core element; multiply by the matching factor entries.
  val_t sum = 0;
  std::vector<idx_t> j(static_cast<std::size_t>(n), 0);
  for (std::size_t off = 0; off < core.size(); ++off) {
    val_t prod = core[off];
    for (int m = 0; m < n; ++m) {
      prod *= factors[static_cast<std::size_t>(m)](
          coords[m], j[static_cast<std::size_t>(m)]);
    }
    sum += prod;
    for (int m = n - 1; m >= 0; --m) {
      auto& jm = j[static_cast<std::size_t>(m)];
      if (++jm < core_dims[static_cast<std::size_t>(m)]) break;
      jm = 0;
    }
  }
  return sum;
}

void ttmc(const SparseTensor& x, const std::vector<la::Matrix>& factors,
          int mode, la::Matrix& out, int nthreads) {
  const int order = x.order();
  SPTD_CHECK(mode >= 0 && mode < order, "ttmc: mode out of range");
  SPTD_CHECK(static_cast<int>(factors.size()) == order,
             "ttmc: factor count mismatch");
  std::size_t k = 1;
  for (int n = 0; n < order; ++n) {
    if (n == mode) continue;
    SPTD_CHECK(factors[static_cast<std::size_t>(n)].rows() == x.dim(n),
               "ttmc: factor rows mismatch");
    k *= factors[static_cast<std::size_t>(n)].cols();
  }
  SPTD_CHECK(out.rows() == x.dim(mode) && out.cols() == k,
             "ttmc: bad output shape");
  SPTD_CHECK(k <= 65536, "ttmc: Kronecker width too large");

  out.zero_parallel(nthreads);
  AnyMutexPool pool(LockKind::kOmp);
  const auto out_ind = x.ind(mode);

  parallel_region(nthreads, [&](int tid, int nt) {
    const Range range = block_partition(x.nnz(), nt, tid);
    // Kronecker row built incrementally: start with [val], then for each
    // mode n != mode (descending) expand by that factor's row.
    std::vector<val_t> kron(k), next(k);
    for (nnz_t xi = range.begin; xi < range.end; ++xi) {
      std::size_t len = 1;
      kron[0] = x.vals()[xi];
      for (int n = order - 1; n >= 0; --n) {
        if (n == mode) continue;
        const la::Matrix& f = factors[static_cast<std::size_t>(n)];
        const val_t* row = f.row_ptr(x.ind(n)[xi]);
        const idx_t r = f.cols();
        // next[l*r + j] = kron[l] * row[j]: the newly-absorbed (lower)
        // mode varies fastest, so after the descending sweep mode 0 is
        // the fastest-varying column index (matches ttmc_column).
        for (std::size_t l = 0; l < len; ++l) {
          const val_t kl = kron[l];
          val_t* dst = next.data() + l * r;
          for (idx_t j = 0; j < r; ++j) {
            dst[j] = kl * row[j];
          }
        }
        len *= r;
        std::swap(kron, next);
      }
      const idx_t row_id = out_ind[xi];
      if (nt > 1) pool.lock(row_id);
      val_t* dst = out.row_ptr(row_id);
      for (std::size_t l = 0; l < k; ++l) {
        dst[l] += kron[l];
      }
      if (nt > 1) pool.unlock(row_id);
    }
  });
}

namespace {
std::size_t ttmc_column(const dims_t& core_dims, int skip,
                        std::span<const idx_t> j);

/// The TTMc tree walk, templated on the streamed value type: StoreT is
/// what the factor rows and tensor values are read as (fp32 shadows under
/// f32/mixed precision, val_t under f64); all Kronecker accumulation and
/// the output stay fp64. The f64 instantiation is the exact
/// pre-precision walk (the casts are no-ops).
template <typename StoreT>
void ttmc_csf_walk(const CsfTensor& csf, std::span<const StoreT> vals,
                   const std::vector<const la::MatrixT<StoreT>*>& factors,
                   la::Matrix& out, const std::vector<std::size_t>& below,
                   const std::vector<std::size_t>& canon, std::size_t k,
                   const SliceSchedule* slices, int nthreads) {
  const int order = csf.order();

  // Width-erased index streams, resolved once for the whole walk: the
  // compressed CSF stores each level at its own width, and the kron work
  // per fiber dwarfs the per-access width switch.
  const CsfStreamRefs refs = csf.stream_refs();
  const std::array<FidStreamRef, kMaxOrder>& fid_at = refs.fids;
  const std::array<PtrStreamRef, kMaxOrder>& ptr_at = refs.fptr;

  parallel_region(nthreads, [&](int tid, int) {
    // Per-level accumulation buffers (tree-order kron of levels > l).
    std::vector<std::vector<val_t>> acc(static_cast<std::size_t>(order));
    for (int l = 0; l < order; ++l) {
      acc[static_cast<std::size_t>(l)].resize(
          below[static_cast<std::size_t>(l)]);
    }

    // Recursive pull-up: fills acc[l-1] contributions for fiber f at
    // level l, i.e. adds kron(U_l row, sum-of-children) into dst.
    struct Puller {
      const CsfTensor& csf;
      std::span<const StoreT> vals;
      const std::vector<const la::MatrixT<StoreT>*>& factors;
      const std::vector<std::size_t>& below;
      std::vector<std::vector<val_t>>& acc;
      const std::array<FidStreamRef, kMaxOrder>& fid_at;
      const std::array<PtrStreamRef, kMaxOrder>& ptr_at;

      void pull(int l, nnz_t f, val_t* dst) const {
        const int order = csf.order();
        const int mode = csf.mode_at_level(l);
        const auto& u = *factors[static_cast<std::size_t>(mode)];
        const idx_t r = u.cols();
        if (l == order - 1) {
          // Leaf: val * U row.
          const val_t v = static_cast<val_t>(vals[f]);
          const StoreT* row =
              u.row_ptr(fid_at[static_cast<std::size_t>(l)][f]);
          for (idx_t j = 0; j < r; ++j) {
            dst[j] += v * static_cast<val_t>(row[j]);
          }
          return;
        }
        // Sum the children's kron vectors once, then expand by this
        // fiber's factor row (the prefix-sharing win).
        val_t* sum = acc[static_cast<std::size_t>(l)].data();
        const std::size_t len = below[static_cast<std::size_t>(l)];
        std::fill(sum, sum + len, val_t{0});
        const auto fptr = ptr_at[static_cast<std::size_t>(l)];
        for (nnz_t c = fptr[f]; c < fptr[f + 1]; ++c) {
          pull(l + 1, c, sum);
        }
        const StoreT* row =
            u.row_ptr(fid_at[static_cast<std::size_t>(l)][f]);
        const std::size_t child_len = len;
        // dst layout: this level slow, children fast.
        for (idx_t j = 0; j < r; ++j) {
          const val_t rj = static_cast<val_t>(row[j]);
          val_t* slot = dst + static_cast<std::size_t>(j) * child_len;
          for (std::size_t s = 0; s < child_len; ++s) {
            slot[s] += rj * sum[s];
          }
        }
      }
    };

    // No aliasing: pull(l, ...) sums children into acc[l] and expands
    // into the caller's destination, which is acc[l-1] (or the root
    // vector) — always a different level's buffer.
    const Puller puller{csf, vals, factors, below, acc, fid_at, ptr_at};
    const auto fids0 = fid_at[0];
    const auto fptr0 = ptr_at[0];
    std::vector<val_t> root_vec(k);
    slices->for_ranges(tid, [&](nnz_t begin, nnz_t end) {
      for (nnz_t s = begin; s < end; ++s) {
        std::fill(root_vec.begin(), root_vec.end(), val_t{0});
        for (nnz_t c = fptr0[s]; c < fptr0[s + 1]; ++c) {
          puller.pull(1, c, root_vec.data());
        }
        val_t* dst = out.row_ptr(fids0[s]);
        for (std::size_t t = 0; t < k; ++t) {
          dst[canon[t]] += root_vec[t];
        }
      }
    });
  });
}

}  // namespace

void ttmc_csf(const CsfTensor& csf,
              const std::vector<la::Matrix>& factors, la::Matrix& out,
              int nthreads, const SliceSchedule* slices,
              Precision precision) {
  const int order = csf.order();
  const int root_mode = csf.mode_at_level(0);
  SPTD_CHECK(static_cast<int>(factors.size()) == order,
             "ttmc_csf: factor count mismatch");

  // Kronecker width of the subtree below each level, in TREE order
  // (level 1 slowest ... leaf fastest).
  std::vector<std::size_t> below(static_cast<std::size_t>(order), 1);
  for (int l = order - 1; l >= 1; --l) {
    const int mode = csf.mode_at_level(l);
    below[static_cast<std::size_t>(l) - 1] =
        below[static_cast<std::size_t>(l)] *
        factors[static_cast<std::size_t>(mode)].cols();
  }
  const std::size_t k = below[0];
  SPTD_CHECK(out.rows() == csf.dims()[static_cast<std::size_t>(root_mode)]
                 && out.cols() == k,
             "ttmc_csf: bad output shape");
  SPTD_CHECK(k <= 65536, "ttmc_csf: Kronecker width too large");

  // Permutation from tree-order kron indices to the canonical ttmc()
  // layout (mode 0 fastest), computed once.
  std::vector<std::size_t> canon(k);
  {
    dims_t core_dims(static_cast<std::size_t>(order), 1);
    for (int n = 0; n < order; ++n) {
      core_dims[static_cast<std::size_t>(n)] =
          factors[static_cast<std::size_t>(n)].cols();
    }
    std::vector<idx_t> j(static_cast<std::size_t>(order), 0);
    for (std::size_t t = 0; t < k; ++t) {
      // Decode tree index: level 1 slowest, leaf fastest.
      std::size_t rem = t;
      for (int l = 1; l < order; ++l) {
        const int mode = csf.mode_at_level(l);
        const std::size_t width = below[static_cast<std::size_t>(l)];
        j[static_cast<std::size_t>(mode)] =
            static_cast<idx_t>(rem / width);
        rem %= width;
      }
      canon[t] = ttmc_column(core_dims, root_mode, j);
    }
  }

  out.zero_parallel(nthreads);
  // Planless callers re-derive the weighted blocking; tucker_hooi passes
  // the schedule it built once per mode.
  SliceSchedule local;
  if (slices == nullptr) {
    local = SliceSchedule(SchedulePolicy::kWeighted, csf.nfibers(0),
                          csf.root_nnz_prefix(), nthreads);
    slices = &local;
  }
  slices->reset();

  if (precision != Precision::kF64) {
    // fp32 value streams: local factor shadows (converted once per call —
    // TTMc reads every mode's factor, including the root's) plus the
    // CSF's fp32 value copy, resolved before the parallel region.
    std::vector<la::MatrixT<float>> shadows(factors.size());
    std::vector<const la::MatrixT<float>*> shadow_ptrs(factors.size());
    for (std::size_t m = 0; m < factors.size(); ++m) {
      shadows[m].assign_converted(factors[m]);
      shadow_ptrs[m] = &shadows[m];
    }
    ttmc_csf_walk<float>(csf, csf.vals_f32(), shadow_ptrs, out, below,
                         canon, k, slices, nthreads);
    return;
  }
  std::vector<const la::Matrix*> factor_ptrs(factors.size());
  for (std::size_t m = 0; m < factors.size(); ++m) {
    factor_ptrs[m] = &factors[m];
  }
  ttmc_csf_walk<val_t>(csf, csf.vals(), factor_ptrs, out, below, canon, k,
                       slices, nthreads);
}

namespace {

/// Column index into a TTMc output for core coordinates \p j, mode \p m
/// skipped: descending-mode mixed radix, mode 0 fastest (matches ttmc's
/// Kronecker expansion order).
std::size_t ttmc_column(const dims_t& core_dims, int skip,
                        std::span<const idx_t> j) {
  std::size_t col = 0;
  for (int n = static_cast<int>(core_dims.size()) - 1; n >= 0; --n) {
    if (n == skip) continue;
    col = col * core_dims[static_cast<std::size_t>(n)] +
          j[static_cast<std::size_t>(n)];
  }
  return col;
}

/// Modified Gram-Schmidt orthonormalization of the columns of \p a.
/// Degenerate columns are replaced with unit basis vectors.
void orthonormalize_columns(la::Matrix& a) {
  const idx_t rows = a.rows();
  const idx_t cols = a.cols();
  for (idx_t j = 0; j < cols; ++j) {
    for (idx_t p = 0; p < j; ++p) {
      val_t dot = 0;
      for (idx_t i = 0; i < rows; ++i) {
        dot += a(i, j) * a(i, p);
      }
      for (idx_t i = 0; i < rows; ++i) {
        a(i, j) -= dot * a(i, p);
      }
    }
    val_t norm = 0;
    for (idx_t i = 0; i < rows; ++i) {
      norm += a(i, j) * a(i, j);
    }
    norm = std::sqrt(norm);
    if (norm < val_t{1e-12}) {
      for (idx_t i = 0; i < rows; ++i) {
        a(i, j) = (i == j % rows) ? val_t{1} : val_t{0};
      }
    } else {
      const val_t inv = val_t{1} / norm;
      for (idx_t i = 0; i < rows; ++i) {
        a(i, j) *= inv;
      }
    }
  }
}

/// c = a * b parallelized over a's rows (a: big x K, b: K x r).
void matmul_rows_parallel(const la::Matrix& a, const la::Matrix& b,
                          la::Matrix& c, int nthreads) {
  SPTD_CHECK(a.cols() == b.rows() && c.rows() == a.rows() &&
                 c.cols() == b.cols(),
             "matmul_rows_parallel: shape mismatch");
  parallel_region(nthreads, [&](int tid, int nt) {
    const Range rows = block_partition(a.rows(), nt, tid);
    for (nnz_t i = rows.begin; i < rows.end; ++i) {
      const val_t* arow = a.row_ptr(static_cast<idx_t>(i));
      val_t* crow = c.row_ptr(static_cast<idx_t>(i));
      for (idx_t j = 0; j < b.cols(); ++j) {
        crow[j] = 0;
      }
      for (idx_t p = 0; p < a.cols(); ++p) {
        const val_t aip = arow[p];
        const val_t* brow = b.row_ptr(p);
        for (idx_t j = 0; j < b.cols(); ++j) {
          crow[j] += aip * brow[j];
        }
      }
    }
  });
}

/// The HOOI iterate: orthonormal factors, the fit history and the fit
/// the tolerance rule compares against.
struct HooiState {
  std::vector<la::Matrix> factors;
  std::vector<val_t> lambda;  ///< empty: a Tucker model has no weights
  std::vector<double> fit_history;
  double prev_fit = 0.0;
};

/// tucker_hooi's IterationCore hooks (resilience/iteration.hpp): the
/// projection-identity fit and the checkpoint codec.
struct HooiDriver {
  const TuckerOptions& opts;
  val_t norm_x;
  val_t core_norm_sq = 0;  ///< projected core norm of the last sweep
  double fit = 0.0;

  double loss(HooiState& /*s*/, bool /*corrupted*/) {
    // Fit from the projection identity: ||X - X̂||² = ||X||² - ||G||².
    val_t residual_sq = norm_x - core_norm_sq;
    if (residual_sq < val_t{0}) residual_sq = 0;
    fit = 1.0 - std::sqrt(static_cast<double>(residual_sq)) /
                    std::sqrt(static_cast<double>(norm_x));
    return 1.0 - fit;
  }

  bool accept(HooiState& s, double /*loss*/, int it) {
    s.fit_history.push_back(fit);
    const bool stop = opts.tolerance > 0.0 && it > 0 &&
                      std::abs(fit - s.prev_fit) < opts.tolerance;
    s.prev_fit = fit;
    return stop;
  }

  void fixup(HooiState& s) const {
    // Jitter breaks column orthonormality, which HOOI's projection
    // identity depends on — restore it before re-entering the sweep.
    for (la::Matrix& f : s.factors) {
      orthonormalize_columns(f);
      if (opts.precision == Precision::kF32) {
        la::round_through_f32(f);
      }
    }
  }

  void encode(const HooiState& s, Checkpoint& ck) const {
    ck.factors = s.factors;
    ck.set_series("fit_history", s.fit_history);
    ck.set_scalar("prev_fit", s.prev_fit);
  }

  double decode(Checkpoint& ck, HooiState& s) const {
    // The core comes from the final mode's TTMc of the last iteration, so
    // a resumed run must execute at least one sweep to regenerate it.
    SPTD_CHECK(ck.iteration < opts.max_iterations,
               "tucker resume: checkpoint already at max_iterations");
    s.factors = std::move(ck.factors);
    const std::vector<double>* fh = ck.find_series("fit_history");
    s.fit_history = fh != nullptr ? *fh : std::vector<double>{};
    s.prev_fit = ck.scalar("prev_fit", 0.0);
    return detail::lowest_loss(s.fit_history, /*fits=*/true);
  }
};

}  // namespace

TuckerResult tucker_hooi(const SparseTensor& x,
                         const TuckerOptions& options) {
  const int order = x.order();
  SPTD_CHECK(static_cast<int>(options.core_dims.size()) == order,
             "tucker_hooi: core_dims order mismatch");
  for (int m = 0; m < order; ++m) {
    const idx_t r = options.core_dims[static_cast<std::size_t>(m)];
    SPTD_CHECK(r >= 1 && r <= x.dim(m),
               "tucker_hooi: core dim out of range");
  }
  SPTD_CHECK(options.max_iterations >= 1, "tucker_hooi: need iterations");
  SPTD_CHECK(x.nnz() > 0, "tucker_hooi: empty tensor");
  set_parallel_backend(options.backend);

  const int nthreads = options.nthreads;
  HooiDriver hooi{options, x.norm_sq()};

  // All-mode CSF set: every mode's TTMc runs as a root kernel with
  // prefix sharing (SPLATT's Tucker formulation). The per-mode slice
  // schedules are the TTMc execution plan — built once here, reused by
  // every HOOI iteration.
  const CsfSet csf_set = [&] {
    SparseTensor sorted = x;
    return CsfSet(sorted, CsfPolicy::kAllMode, nthreads, nullptr,
                  SortVariant::kAllOpts, options.csf_layout);
  }();
  std::vector<SliceSchedule> ttmc_schedules(static_cast<std::size_t>(order));
  for (int m = 0; m < order; ++m) {
    int level = 0;
    const CsfTensor& rep = csf_set.csf_for_mode(m, level);
    ttmc_schedules[static_cast<std::size_t>(m)] =
        SliceSchedule(options.schedule, rep.nfibers(0),
                      rep.root_nnz_prefix(), nthreads);
  }

  detail::IterationCore<HooiState> core(options.resilience, "tucker",
                                        options.seed,
                                        options.max_iterations);
  HooiState& s = core.state();
  Rng rng(options.seed);
  for (int m = 0; m < order; ++m) {
    s.factors.push_back(la::Matrix::random(
        x.dim(m), options.core_dims[static_cast<std::size_t>(m)], rng));
    orthonormalize_columns(s.factors.back());
  }
  if (!core.resume(hooi)) {
    core.start();
  }

  la::Matrix last_w;  // final mode's TTMc output, reused for the core
  while (!core.done()) {
    core.step(hooi, [&](HooiState& st, int) {
      for (int m = 0; m < order; ++m) {
        const idx_t rm = options.core_dims[static_cast<std::size_t>(m)];
        std::size_t k = 1;
        for (int n = 0; n < order; ++n) {
          if (n != m) {
            k *= options.core_dims[static_cast<std::size_t>(n)];
          }
        }
        la::Matrix w(x.dim(m), static_cast<idx_t>(k));
        int level = 0;
        const CsfTensor& rep = csf_set.csf_for_mode(m, level);
        SPTD_DCHECK(level == 0, "AllMode set must dispatch a root rep");
        ttmc_csf(rep, st.factors, w, nthreads,
                 &ttmc_schedules[static_cast<std::size_t>(m)],
                 options.precision);

        // Leading r_m left singular vectors of W via the K x K Gram.
        la::Matrix gram(static_cast<idx_t>(k), static_cast<idx_t>(k));
        la::ata(w, gram, nthreads);
        std::vector<val_t> evals(k);
        la::Matrix evecs(static_cast<idx_t>(k), static_cast<idx_t>(k));
        la::symmetric_eigen(gram, evals, evecs);

        // U(m) = W * V_top * diag(1/sigma); sum of top eigenvalues is the
        // projected core norm for this mode's update.
        la::Matrix v_top(static_cast<idx_t>(k), rm);
        hooi.core_norm_sq = 0;
        for (idx_t j = 0; j < rm; ++j) {
          const val_t ev = std::max(evals[j], val_t{0});
          hooi.core_norm_sq += ev;
          const val_t inv_sigma =
              ev > val_t{1e-24} ? val_t{1} / std::sqrt(ev) : val_t{0};
          for (idx_t i = 0; i < static_cast<idx_t>(k); ++i) {
            v_top(i, j) = evecs(i, j) * inv_sigma;
          }
        }
        la::Matrix& factor = st.factors[static_cast<std::size_t>(m)];
        matmul_rows_parallel(w, v_top, factor, nthreads);
        // Guard against lost orthonormality from zero singular values.
        orthonormalize_columns(factor);
        // Pure-f32 mode: the factor master carries only fp32 information
        // (the next TTMc's shadow conversion is then exact).
        if (options.precision == Precision::kF32) {
          la::round_through_f32(factor);
        }

        if (m == order - 1) {
          last_w = std::move(w);
        }
      }
    });
  }

  TuckerResult result;
  TuckerModel& model = result.model;
  model.core_dims = options.core_dims;
  model.factors = std::move(s.factors);
  result.fit_history = std::move(s.fit_history);
  result.iterations = core.iteration();
  core.resilience().finish(result.resilience);

  // Core: G_(last) = U(last)^T W_last, remapped into the model's
  // last-mode-fastest linearization.
  {
    const int last = order - 1;
    const la::Matrix& u = model.factors[static_cast<std::size_t>(last)];
    const idx_t r_last = u.cols();
    la::Matrix g_last(r_last, last_w.cols());
    la::matmul_at_b(u, last_w, g_last);

    std::size_t core_size = 1;
    for (const idx_t r : model.core_dims) {
      core_size *= r;
    }
    model.core.assign(core_size, val_t{0});
    std::vector<idx_t> j(static_cast<std::size_t>(order), 0);
    for (std::size_t off = 0; off < core_size; ++off) {
      const std::size_t col = ttmc_column(model.core_dims, last, j);
      model.core[off] =
          g_last(j[static_cast<std::size_t>(last)],
                 static_cast<idx_t>(col));
      for (int m = order - 1; m >= 0; --m) {
        auto& jm = j[static_cast<std::size_t>(m)];
        if (++jm < model.core_dims[static_cast<std::size_t>(m)]) break;
        jm = 0;
      }
    }
  }
  return result;
}

}  // namespace sptd
