#ifndef LIMEQO_LINALG_MATRIX_H_
#define LIMEQO_LINALG_MATRIX_H_

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"

namespace limeqo::linalg {

/// Dense row-major matrix of doubles.
///
/// This is the numeric workhorse for the matrix-completion algorithms
/// (ALS / SVT / nuclear norm). It intentionally implements exactly the
/// operations those algorithms need rather than a general BLAS: products,
/// transposes, element-wise ops, norms, and a few factorizations (in
/// solve.h / svd.h). All dimension mismatches are programmer errors and
/// abort via LIMEQO_CHECK.
class Matrix {
 public:
  /// Empty 0x0 matrix.
  Matrix() : rows_(0), cols_(0) {}

  /// rows x cols matrix initialized to `fill`.
  Matrix(size_t rows, size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// Builds from nested initializer-like data; all rows must be equal length.
  static Matrix FromRows(const std::vector<std::vector<double>>& rows);

  /// Identity matrix of size n.
  static Matrix Identity(size_t n);

  /// Matrix with i.i.d. Uniform[lo, hi) entries.
  static Matrix Random(size_t rows, size_t cols, Rng* rng, double lo = 0.0,
                       double hi = 1.0);

  /// Matrix with i.i.d. N(mean, stddev^2) entries.
  static Matrix RandomGaussian(size_t rows, size_t cols, Rng* rng,
                               double mean = 0.0, double stddev = 1.0);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return data_.size(); }

  double& operator()(size_t i, size_t j) {
    LIMEQO_CHECK(i < rows_ && j < cols_);
    return data_[i * cols_ + j];
  }
  double operator()(size_t i, size_t j) const {
    LIMEQO_CHECK(i < rows_ && j < cols_);
    return data_[i * cols_ + j];
  }

  /// Raw storage access (row-major). Used by hot loops.
  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  /// Returns row i as a vector.
  std::vector<double> Row(size_t i) const;

  /// Returns column j as a vector.
  std::vector<double> Col(size_t j) const;

  /// Overwrites row i.
  void SetRow(size_t i, const std::vector<double>& row);

  /// Appends a row at the bottom (used when new queries join the workload).
  void AppendRow(const std::vector<double>& row);

  /// Transpose.
  Matrix Transposed() const;

  /// Matrix product this * other (allocates; delegates to MultiplyInto).
  Matrix operator*(const Matrix& other) const;

  /// Reshapes to rows x cols without initializing the contents. Reuses the
  /// existing allocation when the element count already matches, so a
  /// workspace matrix cycled through the completion loop never reallocates.
  void ResizeUninitialized(size_t rows, size_t cols);

  /// this += alpha * other (no temporaries).
  void AddScaledInPlace(double alpha, const Matrix& other);

  /// Element-wise sum / difference / scaling.
  Matrix operator+(const Matrix& other) const;
  Matrix operator-(const Matrix& other) const;
  Matrix operator*(double scalar) const;
  Matrix& operator+=(const Matrix& other);
  Matrix& operator-=(const Matrix& other);
  Matrix& operator*=(double scalar);

  /// Element-wise (Hadamard) product.
  Matrix Hadamard(const Matrix& other) const;

  /// Applies f to every element in place.
  template <typename F>
  void Apply(F f) {
    for (double& x : data_) x = f(x);
  }

  /// Clamps all entries to be >= lo (in place). Non-negativity projection.
  void ClampMin(double lo);

  /// Frobenius norm.
  double FrobeniusNorm() const;

  /// Sum of all entries.
  double SumAll() const;

  /// Largest absolute entry.
  double MaxAbs() const;

  /// Minimum value in row i.
  double RowMin(size_t i) const;

  /// Column index of the minimum value in row i (first on ties).
  size_t RowArgMin(size_t i) const;

  /// True if same shape and all entries within `tol`.
  bool ApproxEquals(const Matrix& other, double tol = 1e-9) const;

  /// Debug rendering, e.g. "[[1, 2], [3, 4]]".
  std::string ToString(int decimals = 3) const;

 private:
  size_t rows_;
  size_t cols_;
  std::vector<double> data_;
};

/// scalar * M.
inline Matrix operator*(double scalar, const Matrix& m) { return m * scalar; }

/// Non-allocating product kernels for the completion hot path. All of them
/// reshape `out` via ResizeUninitialized (a no-op when the caller passes a
/// correctly sized workspace), overwrite it completely, and run blocked +
/// threaded over the rows of the output. Each output element is produced by
/// exactly one thread with a fixed accumulation order, so results are
/// bitwise identical for any thread count. `out` must not alias an input.

/// out = a * b.
void MultiplyInto(const Matrix& a, const Matrix& b, Matrix* out);

/// out = a * b^T without materializing the transpose. a is m x r, b is
/// n x r, out is m x n: out(i, j) = <row i of a, row j of b>, which is the
/// ALS fill step Q H^T with both factors read row-sequentially.
void MultiplyTransposedInto(const Matrix& a, const Matrix& b, Matrix* out);

/// out = a^T * b without materializing the transpose. a is m x n, b is
/// m x r, out is n x r. This is the H-update right-hand side W^T Q.
void TransposedMultiplyInto(const Matrix& a, const Matrix& b, Matrix* out);

/// out = a^T * a (the Gram matrix), exploiting symmetry. a is m x r, out is
/// r x r. R > 0 fixes r = R at compile time so the accumulation unrolls
/// (the ALS sweep instantiates it per rank); R = 0 reads r from `a`. Every
/// R runs the same sums in the same order, so the result is bitwise the
/// same.
template <size_t R = 0>
void GramInto(const Matrix& a, Matrix* out) {
  LIMEQO_CHECK(out != &a);
  LIMEQO_CHECK(R == 0 || a.cols() == R);
  const size_t m = a.rows(), r = R > 0 ? R : a.cols();
  out->ResizeUninitialized(r, r);
  // A fixed rank accumulates in a local array the compiler can keep in
  // registers (it cannot alias `a`); the runtime rank accumulates in place.
  double local[R > 0 ? R * R : 1];
  double* o_data = R > 0 ? local : out->data();
  std::fill(o_data, o_data + r * r, 0.0);
  // Rank-1 accumulation of the upper triangle, mirrored at the end. Serial:
  // r is the completion rank (<= a few dozen), so this is O(m r^2 / 2) with
  // a deterministic row order.
  const double* a_data = a.data();
  for (size_t i = 0; i < m; ++i) {
    const double* row = a_data + i * r;
    for (size_t p = 0; p < r; ++p) {
      const double av = row[p];
      double* o_row = o_data + p * r;
      for (size_t q = p; q < r; ++q) o_row[q] += av * row[q];
    }
  }
  for (size_t p = 0; p < r; ++p) {
    for (size_t q = 0; q < p; ++q) o_data[p * r + q] = o_data[q * r + p];
  }
  if (R > 0) std::copy(o_data, o_data + r * r, out->data());
}

}  // namespace limeqo::linalg

#endif  // LIMEQO_LINALG_MATRIX_H_
