#pragma once
/// \file cholesky.hpp
/// \brief Cholesky factorization and triangular solves — the `potrf` /
///        `potrs` pair both codes in the paper obtain from OpenBLAS/LAPACK.
///
/// CP-ALS solves A(n) ← M V† where V is the R×R Hadamard product of Gram
/// matrices (symmetric positive semi-definite, R = rank, small). SPLATT
/// factors V with potrf and back-solves the MTTKRP output M with potrs;
/// we do exactly that, with a diagonally-regularized retry when V is
/// numerically singular (SPLATT falls back to a pseudo-inverse; Tikhonov
/// regularization on the normal equations is the standard equivalent).

#include <cstdint>

#include "la/matrix.hpp"

namespace sptd::la {

/// In-place lower Cholesky factorization: overwrites the lower triangle of
/// \p a with L where a = L L^T (upper triangle left untouched).
/// Returns false if a non-positive pivot is met (matrix not SPD).
[[nodiscard]] bool potrf(Matrix& a);

/// Solves L L^T x = b for each *row* of \p b in place, where \p chol holds
/// the factor from potrf in its lower triangle. b has shape N x R and is
/// treated as N independent right-hand sides (this matches SPLATT's
/// row-major potrs call: it solves V X^T = M^T, i.e. each row of M).
/// Parallelized over rows of b.
void potrs(const Matrix& chol, Matrix& b, int nthreads);

/// The paper's "Inverse" routine: solves M ← M V^{-1} through Cholesky,
/// retrying with progressively larger diagonal regularization if V is not
/// SPD. \p v is consumed (overwritten by its factor). Returns the number
/// of Tikhonov diagonal bumps applied (0 when V was SPD), which drivers
/// add to their own run's ResilienceCounters::gram_bumps.
int solve_normal_equations(Matrix v, Matrix& m, int nthreads);

}  // namespace sptd::la
