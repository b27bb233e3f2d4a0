#ifndef LIMEQO_LINALG_SOLVE_H_
#define LIMEQO_LINALG_SOLVE_H_

#include <cstddef>
#include <vector>

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
  Matrix gram;   // r x r: A^T A (the ridge shift is never added in place)
  Matrix chol;   // r x r: L, the Cholesky factor of A^T A + lambda I
  Matrix upper;  // r x r: L^T, so back substitution reads rows in order
  std::vector<double> inv_diag;  // r: 1 / L_ii
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
/// holding a right-hand side, factors A^T A + lambda I (RidgeFactorGram)
/// and overwrites `x` with x (A^T A + lambda I)^{-1}. lambda must be > 0.
Status RidgeSolveGramInPlace(double lambda, RidgeWorkspace* ws, Matrix* x);

/// Factors ws->gram + lambda I into ws->chol and prepares ws->upper and
/// ws->inv_diag for SolveCholeskyRows, leaving ws->gram itself unchanged:
/// one Gram then serves both a right-hand side built from it and the
/// solve, row by row, inside the caller's own pass over the rows (the
/// sparse-residual ALS sweep). lambda must be > 0.
Status RidgeFactorGram(double lambda, RidgeWorkspace* ws);

/// Cholesky into a preallocated factor (a lower-level piece of the
/// workspace solvers, exposed for reuse).
Status CholeskyInto(const Matrix& a, Matrix* l);

/// The only copy of the ridge solve's substitution (used by
/// RidgeSolveGramInPlace and the ALS sweep): overwrites each of the kRows
/// rows z[t] (n entries each) with the solution of L L^T x = z[t], given
/// the row-major lower factor `l`, its transpose `upper` and the
/// reciprocal diagonal `inv_diag` (RidgeFactorGram's outputs). Forward then
/// back substitution, each entry accumulated in ascending index order.
/// The substitutions are latency chains (each entry waits for the ones
/// before it), so kRows = 2 interleaves two independent rows to overlap
/// their chains. R > 0 fixes n = R at compile time so the loops unroll.
/// Neither parameter changes any row's operations or their order, so the
/// result is bitwise the same for every R and kRows.
template <size_t R = 0, size_t kRows = 1>
inline void SolveCholeskyRows(const double* __restrict l,
                              const double* __restrict upper,
                              const double* __restrict inv_diag, size_t n,
                              double* const* z) {
  const size_t r = R > 0 ? R : n;
  for (size_t i = 0; i < r; ++i) {
    const double* li = l + i * r;
    double s[kRows];
    for (size_t t = 0; t < kRows; ++t) s[t] = z[t][i];
    for (size_t k = 0; k < i; ++k) {
      for (size_t t = 0; t < kRows; ++t) s[t] -= li[k] * z[t][k];
    }
    for (size_t t = 0; t < kRows; ++t) z[t][i] = s[t] * inv_diag[i];
  }
  for (size_t ii = r; ii > 0; --ii) {
    const size_t i = ii - 1;
    const double* ui = upper + i * r;
    double s[kRows];
    for (size_t t = 0; t < kRows; ++t) s[t] = z[t][i];
    for (size_t k = i + 1; k < r; ++k) {
      for (size_t t = 0; t < kRows; ++t) s[t] -= ui[k] * z[t][k];
    }
    for (size_t t = 0; t < kRows; ++t) z[t][i] = s[t] * inv_diag[i];
  }
}

/// General LU solve with partial pivoting: solves A X = B for square A.
/// Returns InvalidArgument for (numerically) singular A.
StatusOr<Matrix> SolveLu(const Matrix& a, const Matrix& b);

/// Inverse of a square matrix via LU. Prefer the Solve* functions; this is
/// exposed for tests and for small fixed-size systems.
StatusOr<Matrix> Inverse(const Matrix& a);

}  // namespace limeqo::linalg

#endif  // LIMEQO_LINALG_SOLVE_H_
