#include "linalg/matrix.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/table_printer.h"
#include "common/thread_pool.h"

namespace limeqo::linalg {

Matrix Matrix::FromRows(const std::vector<std::vector<double>>& rows) {
  if (rows.empty()) return Matrix();
  Matrix m(rows.size(), rows[0].size());
  for (size_t i = 0; i < rows.size(); ++i) {
    LIMEQO_CHECK(rows[i].size() == rows[0].size());
    for (size_t j = 0; j < rows[i].size(); ++j) m(i, j) = rows[i][j];
  }
  return m;
}

Matrix Matrix::Identity(size_t n) {
  Matrix m(n, n);
  for (size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::Random(size_t rows, size_t cols, Rng* rng, double lo,
                      double hi) {
  Matrix m(rows, cols);
  for (double& x : m.data_) x = rng->Uniform(lo, hi);
  return m;
}

Matrix Matrix::RandomGaussian(size_t rows, size_t cols, Rng* rng, double mean,
                              double stddev) {
  Matrix m(rows, cols);
  for (double& x : m.data_) x = rng->Gaussian(mean, stddev);
  return m;
}

std::vector<double> Matrix::Row(size_t i) const {
  LIMEQO_CHECK(i < rows_);
  return std::vector<double>(data_.begin() + i * cols_,
                             data_.begin() + (i + 1) * cols_);
}

std::vector<double> Matrix::Col(size_t j) const {
  LIMEQO_CHECK(j < cols_);
  std::vector<double> out(rows_);
  for (size_t i = 0; i < rows_; ++i) out[i] = data_[i * cols_ + j];
  return out;
}

void Matrix::SetRow(size_t i, const std::vector<double>& row) {
  LIMEQO_CHECK(i < rows_ && row.size() == cols_);
  std::copy(row.begin(), row.end(), data_.begin() + i * cols_);
}

void Matrix::AppendRow(const std::vector<double>& row) {
  if (rows_ == 0 && cols_ == 0) cols_ = row.size();
  LIMEQO_CHECK(row.size() == cols_);
  data_.insert(data_.end(), row.begin(), row.end());
  ++rows_;
}

Matrix Matrix::Transposed() const {
  Matrix t(cols_, rows_);
  for (size_t i = 0; i < rows_; ++i) {
    for (size_t j = 0; j < cols_; ++j) t(j, i) = (*this)(i, j);
  }
  return t;
}

Matrix Matrix::operator*(const Matrix& other) const {
  Matrix out;
  MultiplyInto(*this, other, &out);
  return out;
}

void Matrix::ResizeUninitialized(size_t rows, size_t cols) {
  if (rows * cols != data_.size()) data_.resize(rows * cols);
  rows_ = rows;
  cols_ = cols;
}

void Matrix::AddScaledInPlace(double alpha, const Matrix& other) {
  LIMEQO_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += alpha * other.data_[i];
}

Matrix Matrix::operator+(const Matrix& other) const {
  Matrix out = *this;
  out += other;
  return out;
}

Matrix Matrix::operator-(const Matrix& other) const {
  Matrix out = *this;
  out -= other;
  return out;
}

Matrix Matrix::operator*(double scalar) const {
  Matrix out = *this;
  out *= scalar;
  return out;
}

Matrix& Matrix::operator+=(const Matrix& other) {
  LIMEQO_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& other) {
  LIMEQO_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  for (size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double scalar) {
  for (double& x : data_) x *= scalar;
  return *this;
}

Matrix Matrix::Hadamard(const Matrix& other) const {
  LIMEQO_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  Matrix out = *this;
  for (size_t i = 0; i < data_.size(); ++i) out.data_[i] *= other.data_[i];
  return out;
}

void Matrix::ClampMin(double lo) {
  for (double& x : data_) x = std::max(x, lo);
}

double Matrix::FrobeniusNorm() const {
  double s = 0.0;
  for (double x : data_) s += x * x;
  return std::sqrt(s);
}

double Matrix::SumAll() const {
  double s = 0.0;
  for (double x : data_) s += x;
  return s;
}

double Matrix::MaxAbs() const {
  double m = 0.0;
  for (double x : data_) m = std::max(m, std::fabs(x));
  return m;
}

double Matrix::RowMin(size_t i) const {
  LIMEQO_CHECK(i < rows_ && cols_ > 0);
  double m = (*this)(i, 0);
  for (size_t j = 1; j < cols_; ++j) m = std::min(m, (*this)(i, j));
  return m;
}

size_t Matrix::RowArgMin(size_t i) const {
  LIMEQO_CHECK(i < rows_ && cols_ > 0);
  size_t best = 0;
  for (size_t j = 1; j < cols_; ++j) {
    if ((*this)(i, j) < (*this)(i, best)) best = j;
  }
  return best;
}

bool Matrix::ApproxEquals(const Matrix& other, double tol) const {
  if (rows_ != other.rows_ || cols_ != other.cols_) return false;
  for (size_t i = 0; i < data_.size(); ++i) {
    if (std::fabs(data_[i] - other.data_[i]) > tol) return false;
  }
  return true;
}

void MultiplyInto(const Matrix& a, const Matrix& b, Matrix* out) {
  LIMEQO_CHECK(a.cols() == b.rows());
  LIMEQO_CHECK(out != &a && out != &b);
  const size_t m = a.rows(), n = a.cols(), p = b.cols();
  out->ResizeUninitialized(m, p);
  const double* a_data = a.data();
  const double* b_data = b.data();
  double* o_data = out->data();
  // Two shapes matter here. Completion factors are skinny (p = rank, a few
  // dozen at most): for those, accumulate each group of four output columns
  // in registers across the whole k range — four independent FMA chains per
  // group, no store/reload of the output row inside the k loop. For wide
  // outputs, fall back to blocked i-k-j so the k x j tile of `b` stays
  // cache-resident across the rows of one chunk. In both layouts the
  // k-accumulation order per output element is ascending regardless of
  // tiling or chunking, so results are bitwise stable across thread counts.
  constexpr size_t kSkinnyMaxCols = 32;
  if (p <= kSkinnyMaxCols) {
    // 2x4 register tile; two a-rows share every b load. Each output element
    // accumulates over k in ascending order in the tile and the remainder
    // paths alike.
    ParallelFor(0, m,
                [&](size_t row_begin, size_t row_end) {
                  size_t i = row_begin;
                  for (; i + 2 <= row_end; i += 2) {
                    const double* __restrict a0 = a_data + i * n;
                    const double* __restrict a1 = a0 + n;
                    double* __restrict o0 = o_data + i * p;
                    double* __restrict o1 = o0 + p;
                    size_t j = 0;
                    for (; j + 4 <= p; j += 4) {
                      double s00 = 0.0, s01 = 0.0, s02 = 0.0, s03 = 0.0;
                      double s10 = 0.0, s11 = 0.0, s12 = 0.0, s13 = 0.0;
                      for (size_t k = 0; k < n; ++k) {
                        const double av0 = a0[k], av1 = a1[k];
                        const double* bk = b_data + k * p + j;
                        const double v0 = bk[0], v1 = bk[1];
                        const double v2 = bk[2], v3 = bk[3];
                        s00 += av0 * v0;
                        s01 += av0 * v1;
                        s02 += av0 * v2;
                        s03 += av0 * v3;
                        s10 += av1 * v0;
                        s11 += av1 * v1;
                        s12 += av1 * v2;
                        s13 += av1 * v3;
                      }
                      o0[j] = s00;
                      o0[j + 1] = s01;
                      o0[j + 2] = s02;
                      o0[j + 3] = s03;
                      o1[j] = s10;
                      o1[j + 1] = s11;
                      o1[j + 2] = s12;
                      o1[j + 3] = s13;
                    }
                    for (; j < p; ++j) {
                      double sa = 0.0, sb = 0.0;
                      for (size_t k = 0; k < n; ++k) {
                        const double bv = b_data[k * p + j];
                        sa += a0[k] * bv;
                        sb += a1[k] * bv;
                      }
                      o0[j] = sa;
                      o1[j] = sb;
                    }
                  }
                  for (; i < row_end; ++i) {
                    const double* __restrict a_row = a_data + i * n;
                    double* __restrict o_row = o_data + i * p;
                    size_t j = 0;
                    for (; j + 4 <= p; j += 4) {
                      double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
                      for (size_t k = 0; k < n; ++k) {
                        const double av = a_row[k];
                        const double* bk = b_data + k * p + j;
                        s0 += av * bk[0];
                        s1 += av * bk[1];
                        s2 += av * bk[2];
                        s3 += av * bk[3];
                      }
                      o_row[j] = s0;
                      o_row[j + 1] = s1;
                      o_row[j + 2] = s2;
                      o_row[j + 3] = s3;
                    }
                    for (; j < p; ++j) {
                      double s = 0.0;
                      for (size_t k = 0; k < n; ++k) {
                        s += a_row[k] * b_data[k * p + j];
                      }
                      o_row[j] = s;
                    }
                  }
                },
                GrainForCost(n * p));
    return;
  }
  constexpr size_t kKB = 64, kJB = 256;
  ParallelFor(0, m,
              [&](size_t row_begin, size_t row_end) {
                for (size_t i = row_begin; i < row_end; ++i) {
                  double* o_row = o_data + i * p;
                  std::fill(o_row, o_row + p, 0.0);
                }
                for (size_t jj = 0; jj < p; jj += kJB) {
                  const size_t j_end = std::min(jj + kJB, p);
                  for (size_t kk = 0; kk < n; kk += kKB) {
                    const size_t k_end = std::min(kk + kKB, n);
                    for (size_t i = row_begin; i < row_end; ++i) {
                      const double* a_row = a_data + i * n;
                      double* o_row = o_data + i * p;
                      for (size_t k = kk; k < k_end; ++k) {
                        const double av = a_row[k];
                        const double* b_row = b_data + k * p;
                        for (size_t j = jj; j < j_end; ++j) {
                          o_row[j] += av * b_row[j];
                        }
                      }
                    }
                  }
                }
              },
              GrainForCost(n * p));
}

void MultiplyTransposedInto(const Matrix& a, const Matrix& b, Matrix* out) {
  LIMEQO_CHECK(a.cols() == b.cols());
  LIMEQO_CHECK(out != &a && out != &b);
  const size_t m = a.rows(), n = b.rows(), r = a.cols();
  out->ResizeUninitialized(m, n);
  const double* a_data = a.data();
  const double* b_data = b.data();
  double* o_data = out->data();
  // 2x4 register tile: two output rows share the four b-row loads, giving
  // eight independent dot-product chains in flight. Every output element
  // accumulates over c in ascending order in all of the tile/remainder
  // paths, so results do not depend on tiling or chunk boundaries.
  auto dot_row = [](const double* __restrict a_row,
                    const double* __restrict b_base,
                    double* __restrict o_row, size_t b_count, size_t width) {
    size_t j = 0;
    for (; j + 4 <= b_count; j += 4) {
      const double* b0 = b_base + j * width;
      const double* b1 = b0 + width;
      const double* b2 = b1 + width;
      const double* b3 = b2 + width;
      double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
      for (size_t c = 0; c < width; ++c) {
        const double av = a_row[c];
        s0 += av * b0[c];
        s1 += av * b1[c];
        s2 += av * b2[c];
        s3 += av * b3[c];
      }
      o_row[j] = s0;
      o_row[j + 1] = s1;
      o_row[j + 2] = s2;
      o_row[j + 3] = s3;
    }
    for (; j < b_count; ++j) {
      const double* b_row = b_base + j * width;
      double acc = 0.0;
      for (size_t c = 0; c < width; ++c) acc += a_row[c] * b_row[c];
      o_row[j] = acc;
    }
  };
  ParallelFor(
      0, m,
      [&](size_t row_begin, size_t row_end) {
        size_t i = row_begin;
        for (; i + 2 <= row_end; i += 2) {
          const double* __restrict a0 = a_data + i * r;
          const double* __restrict a1 = a0 + r;
          double* __restrict o0 = o_data + i * n;
          double* __restrict o1 = o0 + n;
          size_t j = 0;
          for (; j + 4 <= n; j += 4) {
            const double* b0 = b_data + j * r;
            const double* b1 = b0 + r;
            const double* b2 = b1 + r;
            const double* b3 = b2 + r;
            double s00 = 0.0, s01 = 0.0, s02 = 0.0, s03 = 0.0;
            double s10 = 0.0, s11 = 0.0, s12 = 0.0, s13 = 0.0;
            for (size_t c = 0; c < r; ++c) {
              const double av0 = a0[c], av1 = a1[c];
              const double v0 = b0[c], v1 = b1[c], v2 = b2[c], v3 = b3[c];
              s00 += av0 * v0;
              s01 += av0 * v1;
              s02 += av0 * v2;
              s03 += av0 * v3;
              s10 += av1 * v0;
              s11 += av1 * v1;
              s12 += av1 * v2;
              s13 += av1 * v3;
            }
            o0[j] = s00;
            o0[j + 1] = s01;
            o0[j + 2] = s02;
            o0[j + 3] = s03;
            o1[j] = s10;
            o1[j + 1] = s11;
            o1[j + 2] = s12;
            o1[j + 3] = s13;
          }
          for (; j < n; ++j) {
            const double* b_row = b_data + j * r;
            double sa = 0.0, sb = 0.0;
            for (size_t c = 0; c < r; ++c) {
              sa += a0[c] * b_row[c];
              sb += a1[c] * b_row[c];
            }
            o0[j] = sa;
            o1[j] = sb;
          }
        }
        for (; i < row_end; ++i) {
          dot_row(a_data + i * r, b_data, o_data + i * n, n, r);
        }
      },
      GrainForCost(n * r));
}

void TransposedMultiplyInto(const Matrix& a, const Matrix& b, Matrix* out) {
  LIMEQO_CHECK(a.rows() == b.rows());
  LIMEQO_CHECK(out != &a && out != &b);
  const size_t m = a.rows(), n = a.cols(), r = b.cols();
  out->ResizeUninitialized(n, r);
  const double* a_data = a.data();
  const double* b_data = b.data();
  double* o_data = out->data();
  // Parallel over output rows (columns of `a`), four at a time with the
  // accumulators in a stack tile so the i-loop never stores into `out`.
  // The four consecutive a-columns share each a-row cache line. Per output
  // element the accumulation order over i is ascending in every path, so
  // results are independent of the tiling and of chunk boundaries.
  constexpr size_t kMaxTileCols = 32;
  if (r <= kMaxTileCols) {
    ParallelFor(
        0, n,
        [&](size_t col_begin, size_t col_end) {
          size_t j = col_begin;
          for (; j + 4 <= col_end; j += 4) {
            double acc0[kMaxTileCols] = {0.0};
            double acc1[kMaxTileCols] = {0.0};
            double acc2[kMaxTileCols] = {0.0};
            double acc3[kMaxTileCols] = {0.0};
            for (size_t i = 0; i < m; ++i) {
              const double* __restrict a_seg = a_data + i * n + j;
              const double* __restrict b_row = b_data + i * r;
              const double av0 = a_seg[0], av1 = a_seg[1];
              const double av2 = a_seg[2], av3 = a_seg[3];
              for (size_t c = 0; c < r; ++c) {
                const double bv = b_row[c];
                acc0[c] += av0 * bv;
                acc1[c] += av1 * bv;
                acc2[c] += av2 * bv;
                acc3[c] += av3 * bv;
              }
            }
            std::copy(acc0, acc0 + r, o_data + j * r);
            std::copy(acc1, acc1 + r, o_data + (j + 1) * r);
            std::copy(acc2, acc2 + r, o_data + (j + 2) * r);
            std::copy(acc3, acc3 + r, o_data + (j + 3) * r);
          }
          for (; j < col_end; ++j) {
            double acc[kMaxTileCols] = {0.0};
            for (size_t i = 0; i < m; ++i) {
              const double av = a_data[i * n + j];
              const double* __restrict b_row = b_data + i * r;
              for (size_t c = 0; c < r; ++c) acc[c] += av * b_row[c];
            }
            std::copy(acc, acc + r, o_data + j * r);
          }
        },
        GrainForCost(m * r));
    return;
  }
  constexpr size_t kColBlock = 8;
  ParallelFor(0, n,
              [&](size_t col_begin, size_t col_end) {
                for (size_t jb = col_begin; jb < col_end; jb += kColBlock) {
                  const size_t j_end = std::min(jb + kColBlock, col_end);
                  for (size_t j = jb; j < j_end; ++j) {
                    double* o_row = o_data + j * r;
                    std::fill(o_row, o_row + r, 0.0);
                  }
                  for (size_t i = 0; i < m; ++i) {
                    const double* a_row = a_data + i * n;
                    const double* b_row = b_data + i * r;
                    for (size_t j = jb; j < j_end; ++j) {
                      const double av = a_row[j];
                      double* o_row = o_data + j * r;
                      for (size_t c = 0; c < r; ++c) o_row[c] += av * b_row[c];
                    }
                  }
                }
              },
              GrainForCost(m * r));
}

std::string Matrix::ToString(int decimals) const {
  std::ostringstream os;
  os << "[";
  for (size_t i = 0; i < rows_; ++i) {
    os << (i == 0 ? "[" : " [");
    for (size_t j = 0; j < cols_; ++j) {
      os << FormatDouble((*this)(i, j), decimals);
      if (j + 1 < cols_) os << ", ";
    }
    os << "]";
    if (i + 1 < rows_) os << ",\n";
  }
  os << "]";
  return os.str();
}

}  // namespace limeqo::linalg
