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

void SolveCholeskyRowsInPlace(const Matrix& l, Matrix* c) {
  const size_t n = l.rows();
  LIMEQO_CHECK(c->cols() == n);
  const double* ld = l.data();
  double* cd = c->data();
  // The diagonal divides dominate the small triangular solves (tens of
  // cycles each against single-cycle FMAs), and every row divides by the
  // same diagonal: hoist the reciprocals once for the whole batch.
  constexpr size_t kStackDiag = 64;
  double inv_stack[kStackDiag];
  std::vector<double> inv_heap;
  double* inv_diag = inv_stack;
  if (n > kStackDiag) {
    inv_heap.resize(n);
    inv_diag = inv_heap.data();
  }
  for (size_t i = 0; i < n; ++i) inv_diag[i] = 1.0 / ld[i * n + i];
  // The upper factor L^T, materialized once so back substitution reads
  // rows contiguously instead of striding down a column.
  constexpr size_t kStackFactor = 64 * 64;
  double ut_stack[kStackFactor];
  std::vector<double> ut_heap;
  double* ut = ut_stack;
  if (n * n > kStackFactor) {
    ut_heap.resize(n * n);
    ut = ut_heap.data();
  }
  for (size_t i = 0; i < n; ++i) {
    for (size_t k = 0; k < n; ++k) ut[i * n + k] = ld[k * n + i];
  }
  // Each row z of `c` solves L L^T z^T = z_in^T; rows are independent, so
  // this threads over rows with a deterministic per-row operation order.
  // Rows are processed two at a time: the substitutions are latency chains
  // (z[i] depends on every earlier z), and interleaving two independent
  // chains roughly doubles throughput without touching either row's
  // operation order.
  ParallelFor(
      0, c->rows(),
      [&](size_t row_begin, size_t row_end) {
        size_t row = row_begin;
        for (; row + 2 <= row_end; row += 2) {
          double* __restrict za = cd + row * n;
          double* __restrict zb = za + n;
          for (size_t i = 0; i < n; ++i) {
            double sa = za[i], sb = zb[i];
            const double* __restrict li = ld + i * n;
            for (size_t k = 0; k < i; ++k) {
              sa -= li[k] * za[k];
              sb -= li[k] * zb[k];
            }
            za[i] = sa * inv_diag[i];
            zb[i] = sb * inv_diag[i];
          }
          for (size_t ii = n; ii > 0; --ii) {
            const size_t i = ii - 1;
            double sa = za[i], sb = zb[i];
            const double* __restrict ui = ut + i * n;
            for (size_t k = i + 1; k < n; ++k) {
              sa -= ui[k] * za[k];
              sb -= ui[k] * zb[k];
            }
            za[i] = sa * inv_diag[i];
            zb[i] = sb * inv_diag[i];
          }
        }
        for (; row < row_end; ++row) {
          double* __restrict z = cd + row * n;
          for (size_t i = 0; i < n; ++i) {
            double s = z[i];
            const double* __restrict li = ld + i * n;
            for (size_t k = 0; k < i; ++k) s -= li[k] * z[k];
            z[i] = s * inv_diag[i];
          }
          for (size_t ii = n; ii > 0; --ii) {
            const size_t i = ii - 1;
            double s = z[i];
            const double* __restrict ui = ut + i * n;
            for (size_t k = i + 1; k < n; ++k) s -= ui[k] * z[k];
            z[i] = s * inv_diag[i];
          }
        }
      },
      /*grain=*/std::max<size_t>(1, 4096 / (n * n + 1)));
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

Status RidgeSolveGramInPlace(double lambda, RidgeWorkspace* ws, Matrix* x) {
  if (lambda <= 0.0) {
    return Status::InvalidArgument("RidgeSolve requires lambda > 0");
  }
  const size_t r = ws->gram.rows();
  if (ws->gram.cols() != r || x->cols() != r) {
    return Status::InvalidArgument("RidgeSolve: dimension mismatch");
  }
  for (size_t i = 0; i < r; ++i) ws->gram(i, i) += lambda;
  Status st = CholeskyInto(ws->gram, &ws->chol);
  if (!st.ok()) return st;
  SolveCholeskyRowsInPlace(ws->chol, x);
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
