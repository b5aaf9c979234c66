#include "la/cholesky.hpp"

#include <cmath>

#include "parallel/partition.hpp"
#include "parallel/team.hpp"

namespace sptd::la {

bool potrf(Matrix& a) {
  SPTD_CHECK(a.rows() == a.cols(), "potrf: matrix must be square");
  const idx_t n = a.rows();
  for (idx_t j = 0; j < n; ++j) {
    val_t diag = a(j, j);
    for (idx_t k = 0; k < j; ++k) {
      diag -= a(j, k) * a(j, k);
    }
    if (!(diag > val_t{0})) {
      return false;
    }
    const val_t ljj = std::sqrt(diag);
    a(j, j) = ljj;
    const val_t inv = val_t{1} / ljj;
    for (idx_t i = j + 1; i < n; ++i) {
      val_t sum = a(i, j);
      const val_t* irow = a.row_ptr(i);
      const val_t* jrow = a.row_ptr(j);
      for (idx_t k = 0; k < j; ++k) {
        sum -= irow[k] * jrow[k];
      }
      a(i, j) = sum * inv;
    }
  }
  return true;
}

namespace {

/// Solves L L^T x = rhs for one row-vector rhs (length n), in place.
void solve_one(const Matrix& chol, val_t* rhs) {
  const idx_t n = chol.rows();
  // Forward substitution: L y = rhs.
  for (idx_t i = 0; i < n; ++i) {
    val_t sum = rhs[i];
    const val_t* lrow = chol.row_ptr(i);
    for (idx_t k = 0; k < i; ++k) {
      sum -= lrow[k] * rhs[k];
    }
    rhs[i] = sum / lrow[i];
  }
  // Back substitution: L^T x = y. Column-order traversal of L.
  for (idx_t ii = n; ii-- > 0;) {
    val_t sum = rhs[ii];
    for (idx_t k = ii + 1; k < n; ++k) {
      sum -= chol(k, ii) * rhs[k];
    }
    rhs[ii] = sum / chol(ii, ii);
  }
}

}  // namespace

void potrs(const Matrix& chol, Matrix& b, int nthreads) {
  SPTD_CHECK(chol.rows() == chol.cols(), "potrs: factor must be square");
  SPTD_CHECK(b.cols() == chol.rows(), "potrs: rhs width mismatch");
  parallel_region(nthreads, [&](int tid, int nt) {
    const Range rows = block_partition(b.rows(), nt, tid);
    for (nnz_t i = rows.begin; i < rows.end; ++i) {
      solve_one(chol, b.row_ptr(static_cast<idx_t>(i)));
    }
  });
}

int solve_normal_equations(Matrix v, Matrix& m, int nthreads) {
  SPTD_CHECK(v.rows() == v.cols(), "solve_normal_equations: V not square");
  SPTD_CHECK(m.cols() == v.rows(), "solve_normal_equations: width mismatch");

  // Average diagonal magnitude scales the regularization.
  val_t diag_scale = 0;
  for (idx_t i = 0; i < v.rows(); ++i) {
    diag_scale += std::abs(v(i, i));
  }
  diag_scale = (v.rows() > 0) ? diag_scale / static_cast<val_t>(v.rows())
                              : val_t{1};
  if (diag_scale == val_t{0}) diag_scale = val_t{1};

  Matrix attempt = v;
  val_t reg = val_t{0};
  for (int tries = 0; tries < 40; ++tries) {
    if (potrf(attempt)) {
      potrs(attempt, m, nthreads);
      return tries;
    }
    // Not SPD: add eps·scale·I and retry with growing eps.
    reg = (reg == val_t{0}) ? val_t{1e-12} * diag_scale : reg * val_t{10};
    attempt = v;
    for (idx_t i = 0; i < attempt.rows(); ++i) {
      attempt(i, i) += reg;
    }
  }
  throw Error("solve_normal_equations: matrix could not be regularized");
}

}  // namespace sptd::la
