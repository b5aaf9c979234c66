#include "cpd/als_loop.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "la/blas.hpp"
#include "la/cholesky.hpp"
#include "la/kernels.hpp"
#include "la/norms.hpp"
#include "parallel/partition.hpp"
#include "parallel/team.hpp"

namespace sptd::detail {

/// <X, Z> via the MTTKRP identity: Σ_r λ_r Σ_i M(i,r)·A(i,r), where M is
/// the final mode's MTTKRP output (computed against the other updated
/// factors) and A the updated, normalized final factor.
val_t fit_inner_product(const la::Matrix& mttkrp_out, const la::Matrix& a,
                        std::span<const val_t> lambda, int nthreads,
                        PrivateBuffers& partials) {
  const idx_t rank = a.cols();
  SPTD_CHECK(partials.nthreads() >= nthreads &&
                 partials.length() >= static_cast<nnz_t>(rank),
             "fit_inner_product: scratch too small");
  // Column-wise Frobenius products, parallel over rows; the per-thread
  // partial rows live in caller-owned scratch reused across iterations.
  partials.clear(static_cast<nnz_t>(rank), nthreads);
  parallel_region(nthreads, [&](int tid, int nt) {
    val_t* part = partials.buffer(tid).data();
    const Range rows = block_partition(a.rows(), nt, tid);
    for (nnz_t i = rows.begin; i < rows.end; ++i) {
      const val_t* mrow = mttkrp_out.row_ptr(static_cast<idx_t>(i));
      const val_t* arow = a.row_ptr(static_cast<idx_t>(i));
      la::kern::hadamard_accum(part, mrow, arow, rank);
    }
  });
  std::vector<val_t> col_sums(rank, val_t{0});
  for (int t = 0; t < nthreads; ++t) {
    const val_t* part = partials.buffer(t).data();
    for (idx_t r = 0; r < rank; ++r) {
      col_sums[r] += part[r];
    }
  }
  val_t inner = 0;
  for (idx_t r = 0; r < rank; ++r) {
    inner += lambda[r] * col_sums[r];
  }
  return inner;
}

/// λ^T (⊙ grams) λ.
val_t model_norm_sq(const std::vector<la::Matrix>& grams,
                    std::span<const val_t> lambda) {
  const idx_t rank = grams.front().rows();
  la::Matrix had(rank, rank);
  la::gram_hadamard(grams, /*skip=*/-1, had);
  val_t acc = 0;
  for (idx_t i = 0; i < rank; ++i) {
    for (idx_t j = 0; j < rank; ++j) {
      acc += lambda[i] * lambda[j] * had(i, j);
    }
  }
  return acc < val_t{0} ? val_t{0} : acc;
}

void encode_model(const KruskalModel& model,
                  const std::vector<double>& fit_history, Checkpoint& ck) {
  ck.factors = model.factors;
  ck.set_series("lambda", std::vector<double>(model.lambda.begin(),
                                              model.lambda.end()));
  ck.set_series("fit_history", fit_history);
}

void decode_model(Checkpoint& ck, const dims_t& dims, idx_t rank,
                  KruskalModel& model, std::vector<double>& fit_history) {
  const std::string what = ck.kind + " restore: checkpoint ";
  SPTD_CHECK(ck.factors.size() == dims.size(), what + "order mismatch");
  for (std::size_t m = 0; m < dims.size(); ++m) {
    SPTD_CHECK(ck.factors[m].rows() == dims[m] &&
                   ck.factors[m].cols() == rank,
               what + "factor shape mismatch");
  }
  const std::vector<double>* lam = ck.find_series("lambda");
  SPTD_CHECK(lam != nullptr && lam->size() == rank,
             what + "lambda missing or wrong rank");
  model.factors = std::move(ck.factors);
  model.lambda.assign(lam->begin(), lam->end());
  const std::vector<double>* fh = ck.find_series("fit_history");
  fit_history = fh != nullptr ? *fh : std::vector<double>{};
}

CpalsLoop::CpalsLoop(const CpalsOptions& options, const dims_t& dims,
                     val_t tensor_norm_sq, const std::string& kind)
    : opts_(options),
      dims_(dims),
      tensor_norm_sq_(tensor_norm_sq),
      core_(options.resilience, kind.c_str(), options.seed,
            options.max_iterations),
      v_(options.rank, options.rank),
      fit_partials_(options.nthreads, static_cast<nnz_t>(options.rank)) {
  spare_.reserve(dims_.size());
  grams_.reserve(dims_.size());
  for (const idx_t dim : dims_) {
    spare_.emplace_back(dim, opts_.rank);
    grams_.emplace_back(opts_.rank, opts_.rank);
  }
  reset();
}

void CpalsLoop::reset() {
  CpalsState& s = core_.state();
  Rng rng(opts_.seed);
  s.lambda.assign(opts_.rank, val_t{1});
  s.factors.clear();
  s.factors.reserve(dims_.size());
  for (const idx_t dim : dims_) {
    s.factors.push_back(la::Matrix::random(dim, opts_.rank, rng));
  }
  s.fit_history.clear();
  s.prev_fit = 0.0;
  grams_stale_ = true;
  core_.start();
}

void CpalsLoop::encode(const CpalsState& s, Checkpoint& ck) const {
  encode_model(s, s.fit_history, ck);
  ck.set_scalar("prev_fit", s.prev_fit);
}

double CpalsLoop::decode(Checkpoint& ck, CpalsState& s) {
  decode_model(ck, dims_, opts_.rank, s, s.fit_history);
  s.prev_fit = ck.scalar("prev_fit", 0.0);
  // Grams are recomputed, not serialized: la::ata is deterministic, so a
  // restored run rebuilds the uninterrupted run's Grams bitwise.
  grams_stale_ = true;
  return lowest_loss(s.fit_history, /*fits=*/true);
}

void CpalsLoop::refresh_grams(const CpalsState& s) {
  timers_.start(Routine::kMatAtA);
  for (std::size_t m = 0; m < grams_.size(); ++m) {
    la::ata(s.factors[m], grams_[m], opts_.nthreads);
  }
  timers_.stop(Routine::kMatAtA);
  grams_stale_ = false;
}

void CpalsLoop::update_factor(CpalsState& s, int it, int mode,
                              la::Matrix& out) {
  const int nthreads = opts_.nthreads;

  // The fit consumes the final mode's MTTKRP result; keep a copy before
  // the in-place solve overwrites it (M never involves the mode's own
  // factor, so the post-update fit identity still holds).
  if (mode == order() - 1) {
    timers_.start(Routine::kFit);
    fit_m_ = out;
    timers_.stop(Routine::kFit);
  }

  // V = ⊙_{n != m} grams[n]  (lines 4/7/10).
  timers_.start(Routine::kMatAtA);
  la::gram_hadamard(grams_, mode, v_);
  timers_.stop(Routine::kMatAtA);

  // A(m) = M V^{-1}  (Moore–Penrose via Cholesky; lines 5/8/11).
  timers_.start(Routine::kInverse);
  core_.resilience().counters().gram_bumps +=
      la::solve_normal_equations(v_, out, nthreads);
  timers_.stop(Routine::kInverse);

  if (opts_.nonnegative) {
    // Projected ALS: clamp to the non-negative orthant.
    parallel_region(nthreads, [&](int tid, int nt) {
      const Range rows = block_partition(out.size(), nt, tid);
      val_t* data = out.data();
      for (nnz_t i = rows.begin; i < rows.end; ++i) {
        if (data[i] < val_t{0}) {
          data[i] = val_t{0};
        }
      }
    });
  }
  la::Matrix& factor = s.factors[static_cast<std::size_t>(mode)];
  std::swap(factor, out);

  // Column normalization (lines 6/9/12): 2-norm first iteration,
  // max-norm afterwards (SPLATT's scheme).
  timers_.start(Routine::kMatNorm);
  la::normalize_columns(factor, s.lambda,
                        it == 0 ? la::MatNorm::kTwo : la::MatNorm::kMax,
                        nthreads);
  timers_.stop(Routine::kMatNorm);

  // Pure-f32 mode: the factor master itself carries only fp32
  // information (the ablation endpoint the mixed mode is judged
  // against). Rounding after normalization keeps λ and the Grams
  // consistent with what the next MTTKRP streams.
  if (opts_.precision == Precision::kF32) {
    la::round_through_f32(factor);
  }

  // Refresh this mode's Gram matrix.
  timers_.start(Routine::kMatAtA);
  la::ata(factor, grams_[static_cast<std::size_t>(mode)], nthreads);
  timers_.stop(Routine::kMatAtA);
}

double CpalsLoop::loss(CpalsState& s, bool /*corrupted*/) {
  // Fit (line 13): 1 - ||X - Z||_F / ||X||_F via the sparse identity.
  timers_.start(Routine::kFit);
  const val_t inner = fit_inner_product(fit_m_, s.factors.back(), s.lambda,
                                        opts_.nthreads, fit_partials_);
  const val_t norm_z = model_norm_sq(grams_, s.lambda);
  val_t residual_sq = tensor_norm_sq_ + norm_z - 2 * inner;
  if (residual_sq < val_t{0}) residual_sq = 0;
  fit_ = (tensor_norm_sq_ > val_t{0})
             ? 1.0 - std::sqrt(static_cast<double>(residual_sq)) /
                         std::sqrt(static_cast<double>(tensor_norm_sq_))
             : 0.0;
  timers_.stop(Routine::kFit);
  return 1.0 - fit_;
}

bool CpalsLoop::accept(CpalsState& s, double /*loss*/, int it) {
  s.fit_history.push_back(fit_);
  const bool stop = opts_.tolerance > 0.0 && it > 0 &&
                    std::abs(fit_ - s.prev_fit) < opts_.tolerance;
  s.prev_fit = fit_;
  return stop;
}

void CpalsLoop::fixup(CpalsState& s) {
  if (opts_.precision == Precision::kF32) {
    for (la::Matrix& f : s.factors) {
      la::round_through_f32(f);
    }
  }
  grams_stale_ = true;  // the next step rebuilds the Grams
}

}  // namespace sptd::detail
