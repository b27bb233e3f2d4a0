#include "linalg/solve.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/thread_pool.h"

namespace limeqo::linalg {

Status CholeskyInto(const Matrix& a, Matrix* l) {
  if (a.rows() != a.cols()) {
    return Status::InvalidArgument("Cholesky requires a square matrix");
  }
  LIMEQO_CHECK(l != &a);
  const size_t n = a.rows();
  l->ResizeUninitialized(n, n);
  double* ld = l->data();
  std::fill(ld, ld + n * n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j <= i; ++j) {
      double s = a(i, j);
      const double* li = ld + i * n;
      const double* lj = ld + j * n;
      for (size_t k = 0; k < j; ++k) s -= li[k] * lj[k];
      if (i == j) {
        if (s <= 0.0) {
          return Status::InvalidArgument(
              "matrix is not positive definite (pivot <= 0)");
        }
        ld[i * n + j] = std::sqrt(s);
      } else {
        ld[i * n + j] = s / lj[j];
      }
    }
  }
  return Status::Ok();
}

StatusOr<Matrix> Cholesky(const Matrix& a) {
  Matrix l;
  Status st = CholeskyInto(a, &l);
  if (!st.ok()) return st;
  return l;
}

StatusOr<Matrix> SolveSpd(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows()) {
    return Status::InvalidArgument("SolveSpd: dimension mismatch");
  }
  StatusOr<Matrix> chol = Cholesky(a);
  if (!chol.ok()) return chol.status();
  const Matrix& l = *chol;
  const size_t n = a.rows();
  const size_t m = b.cols();
  // Forward substitution: L Y = B.
  Matrix y(n, m);
  for (size_t c = 0; c < m; ++c) {
    for (size_t i = 0; i < n; ++i) {
      double s = b(i, c);
      for (size_t k = 0; k < i; ++k) s -= l(i, k) * y(k, c);
      y(i, c) = s / l(i, i);
    }
  }
  // Back substitution: L^T X = Y.
  Matrix x(n, m);
  for (size_t c = 0; c < m; ++c) {
    for (size_t ii = n; ii > 0; --ii) {
      size_t i = ii - 1;
      double s = y(i, c);
      for (size_t k = i + 1; k < n; ++k) s -= l(k, i) * x(k, c);
      x(i, c) = s / l(i, i);
    }
  }
  return x;
}

Status RidgeFactorGram(double lambda, RidgeWorkspace* ws) {
  if (lambda <= 0.0) {
    return Status::InvalidArgument("RidgeSolve requires lambda > 0");
  }
  const size_t r = ws->gram.rows();
  if (ws->gram.cols() != r) {
    return Status::InvalidArgument("RidgeSolve: dimension mismatch");
  }
  // `upper` first holds the shifted Gram, then the transposed factor.
  Matrix& shifted = ws->upper;
  shifted = ws->gram;
  for (size_t i = 0; i < r; ++i) shifted(i, i) += lambda;
  Status st = CholeskyInto(shifted, &ws->chol);
  if (!st.ok()) return st;
  // The diagonal divides dominate the small triangular solves (tens of
  // cycles each against single-cycle multiplies), and every row divides by
  // the same diagonal: hoist the reciprocals once for all rows.
  ws->inv_diag.resize(r);
  for (size_t i = 0; i < r; ++i) {
    ws->inv_diag[i] = 1.0 / ws->chol(i, i);
    for (size_t k = 0; k < r; ++k) shifted(i, k) = ws->chol(k, i);
  }
  return Status::Ok();
}

Status RidgeSolveGramInPlace(double lambda, RidgeWorkspace* ws, Matrix* x) {
  if (x->cols() != ws->gram.rows()) {
    return Status::InvalidArgument("RidgeSolve: dimension mismatch");
  }
  Status st = RidgeFactorGram(lambda, ws);
  if (!st.ok()) return st;
  // Each row of `x` is an independent solve with a fixed operation order,
  // so this threads over rows bitwise-stably.
  const size_t r = ws->gram.rows();
  double* xd = x->data();
  ParallelFor(
      0, x->rows(),
      [&](size_t row_begin, size_t row_end) {
        const double* l = ws->chol.data();
        const double* u = ws->upper.data();
        const double* inv_diag = ws->inv_diag.data();
        size_t row = row_begin;
        for (; row + 2 <= row_end; row += 2) {
          double* const pair[2] = {xd + row * r, xd + (row + 1) * r};
          SolveCholeskyRows<0, 2>(l, u, inv_diag, r, pair);
        }
        if (row < row_end) {
          double* const single[1] = {xd + row * r};
          SolveCholeskyRows(l, u, inv_diag, r, single);
        }
      },
      /*grain=*/std::max<size_t>(1, 4096 / (r * r + 1)));
  return Status::Ok();
}

namespace {

// Shared tail of the ridge solvers: with `x` already holding the
// right-hand side B A or B^T A, solve against A^T A + lambda I.
Status RidgeFinish(const Matrix& a, double lambda, RidgeWorkspace* ws,
                   Matrix* x) {
  GramInto(a, &ws->gram);
  return RidgeSolveGramInPlace(lambda, ws, x);
}

}  // namespace

Status RidgeSolveInto(const Matrix& b, const Matrix& a, double lambda,
                      RidgeWorkspace* ws, Matrix* x) {
  if (lambda <= 0.0) {
    return Status::InvalidArgument("RidgeSolve requires lambda > 0");
  }
  if (b.cols() != a.rows()) {
    return Status::InvalidArgument("RidgeSolve: dimension mismatch");
  }
  MultiplyInto(b, a, x);  // x <- B A, the (n x r) right-hand side
  return RidgeFinish(a, lambda, ws, x);
}

Status RidgeSolveTransposedInto(const Matrix& b, const Matrix& a,
                                double lambda, RidgeWorkspace* ws, Matrix* x) {
  if (lambda <= 0.0) {
    return Status::InvalidArgument("RidgeSolve requires lambda > 0");
  }
  if (b.rows() != a.rows()) {
    return Status::InvalidArgument("RidgeSolve: dimension mismatch");
  }
  TransposedMultiplyInto(b, a, x);  // x <- B^T A
  return RidgeFinish(a, lambda, ws, x);
}

StatusOr<Matrix> RidgeSolve(const Matrix& b, const Matrix& a, double lambda) {
  RidgeWorkspace ws;
  Matrix x;
  Status st = RidgeSolveInto(b, a, lambda, &ws, &x);
  if (!st.ok()) return st;
  return x;
}

StatusOr<Matrix> SolveLu(const Matrix& a, const Matrix& b) {
  if (a.rows() != a.cols()) {
    return Status::InvalidArgument("SolveLu requires a square matrix");
  }
  if (a.rows() != b.rows()) {
    return Status::InvalidArgument("SolveLu: dimension mismatch");
  }
  const size_t n = a.rows();
  Matrix lu = a;
  std::vector<size_t> piv(n);
  for (size_t i = 0; i < n; ++i) piv[i] = i;
  for (size_t col = 0; col < n; ++col) {
    // Partial pivoting.
    size_t pivot = col;
    for (size_t i = col + 1; i < n; ++i) {
      if (std::fabs(lu(i, col)) > std::fabs(lu(pivot, col))) pivot = i;
    }
    if (std::fabs(lu(pivot, col)) < 1e-300) {
      return Status::InvalidArgument("SolveLu: matrix is singular");
    }
    if (pivot != col) {
      for (size_t j = 0; j < n; ++j) std::swap(lu(col, j), lu(pivot, j));
      std::swap(piv[col], piv[pivot]);
    }
    for (size_t i = col + 1; i < n; ++i) {
      lu(i, col) /= lu(col, col);
      const double f = lu(i, col);
      for (size_t j = col + 1; j < n; ++j) lu(i, j) -= f * lu(col, j);
    }
  }
  const size_t m = b.cols();
  Matrix x(n, m);
  for (size_t c = 0; c < m; ++c) {
    // Apply permutation, then forward/back substitution.
    std::vector<double> y(n);
    for (size_t i = 0; i < n; ++i) {
      double s = b(piv[i], c);
      for (size_t k = 0; k < i; ++k) s -= lu(i, k) * y[k];
      y[i] = s;
    }
    for (size_t ii = n; ii > 0; --ii) {
      size_t i = ii - 1;
      double s = y[i];
      for (size_t k = i + 1; k < n; ++k) s -= lu(i, k) * x(k, c);
      x(i, c) = s / lu(i, i);
    }
  }
  return x;
}

StatusOr<Matrix> Inverse(const Matrix& a) {
  return SolveLu(a, Matrix::Identity(a.rows()));
}

}  // namespace limeqo::linalg
