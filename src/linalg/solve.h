#ifndef LIMEQO_LINALG_SOLVE_H_
#define LIMEQO_LINALG_SOLVE_H_

#include "common/status.h"
#include "linalg/matrix.h"

namespace limeqo::linalg {

/// Cholesky factorization of a symmetric positive-definite matrix A = L L^T.
/// Returns the lower-triangular factor L, or InvalidArgument when A is not
/// (numerically) positive definite.
StatusOr<Matrix> Cholesky(const Matrix& a);

/// Solves A X = B for X where A is symmetric positive definite, via
/// Cholesky. B may have multiple columns. This is the inner solver of the
/// ridge-regularized ALS updates (A = H^T H + lambda I is SPD for lambda>0).
StatusOr<Matrix> SolveSpd(const Matrix& a, const Matrix& b);

/// Solves the ridge least-squares system for X in:
///   X = B * A * (A^T A + lambda I)^{-1}
/// which is the closed-form update used by Algorithm 2 of the paper
/// (e.g. Q <- W_hat H (H^T H + lambda I)^{-1}). `a` is (m x r), `b` is
/// (n x m); result is (n x r). lambda must be > 0 so the system is SPD.
StatusOr<Matrix> RidgeSolve(const Matrix& b, const Matrix& a, double lambda);

/// Preallocated scratch for the In-place ridge solvers. Reused across ALS
/// iterations so the per-iteration allocation count is zero; a default-
/// constructed workspace grows to the right shapes on first use and then
/// stays put.
struct RidgeWorkspace {
  Matrix gram;  // r x r: A^T A + lambda I
  Matrix chol;  // r x r: its Cholesky factor
};

/// Workspace form of RidgeSolve: writes X = B A (A^T A + lambda I)^{-1}
/// into `x` with no transpose copies and no allocations beyond warming the
/// workspace. The row solves run threaded (each row of X is an independent
/// r x r triangular solve), with bitwise-stable results for any thread
/// count. `x` must not alias `a` or `b`.
Status RidgeSolveInto(const Matrix& b, const Matrix& a, double lambda,
                      RidgeWorkspace* ws, Matrix* x);

/// As RidgeSolveInto but for X = B^T A (A^T A + lambda I)^{-1} with `b`
/// given untransposed (m x n). This is the ALS H-update
/// H <- W_hat^T Q (Q^T Q + lambda I)^{-1} without materializing W_hat^T.
Status RidgeSolveTransposedInto(const Matrix& b, const Matrix& a,
                                double lambda, RidgeWorkspace* ws, Matrix* x);

/// The shared tail of the ridge solvers, for callers that already hold the
/// Gram matrix: given ws->gram = A^T A (r x r) and the rows of `x` (m x r)
/// holding a right-hand side, adds lambda I to ws->gram in place, factors it
/// into ws->chol and overwrites `x` with x (A^T A + lambda I)^{-1}. One Gram
/// then serves both a right-hand side built from it and the solve (the
/// sparse-residual ALS sweep). lambda must be > 0.
Status RidgeSolveGramInPlace(double lambda, RidgeWorkspace* ws, Matrix* x);

/// Lower-level pieces of the workspace solvers, exposed for reuse:
/// Cholesky into a preallocated factor, and an in-place solve of
/// G X^T = C^T for row-major C (each row of `c` is replaced by the solution
/// of G z = row^T, i.e. C <- C L^{-T} L^{-1} for SPD G = L L^T).
Status CholeskyInto(const Matrix& a, Matrix* l);
void SolveCholeskyRowsInPlace(const Matrix& l, Matrix* c);

/// General LU solve with partial pivoting: solves A X = B for square A.
/// Returns InvalidArgument for (numerically) singular A.
StatusOr<Matrix> SolveLu(const Matrix& a, const Matrix& b);

/// Inverse of a square matrix via LU. Prefer the Solve* functions; this is
/// exposed for tests and for small fixed-size systems.
StatusOr<Matrix> Inverse(const Matrix& a);

}  // namespace limeqo::linalg

#endif  // LIMEQO_LINALG_SOLVE_H_
