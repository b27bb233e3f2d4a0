#include "core/svt.h"

#include <cmath>
#include <vector>

#include "common/thread_pool.h"
#include "linalg/svd.h"

namespace limeqo::core {

SvtCompleter::SvtCompleter(SvtOptions options) : options_(options) {
  LIMEQO_CHECK(options_.delta > 0.0);
  LIMEQO_CHECK(options_.max_iterations > 0);
}

StatusOr<linalg::Matrix> SvtCompleter::Complete(const WorkloadMatrix& w) {
  if (w.NumComplete() == 0) {
    return Status::FailedPrecondition(
        "SVT needs at least one complete observation");
  }
  const size_t n = static_cast<size_t>(w.num_queries());
  const size_t k = static_cast<size_t>(w.num_hints());
  const linalg::Matrix& values = w.values();
  // M of the paper: 1 on complete cells, 0 elsewhere.
  linalg::Matrix mask(n, k);
  for (size_t i = 0; i < n; ++i) {
    const CellState* states = w.row_states(static_cast<int>(i));
    for (size_t j = 0; j < k; ++j) {
      if (states[j] == CellState::kComplete) mask(i, j) = 1.0;
    }
  }

  const double tau = options_.tau > 0.0
                         ? options_.tau
                         : 5.0 * std::sqrt(static_cast<double>(n * k));

  double observed_norm = 0.0;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < k; ++j) {
      if (mask(i, j) > 0.0) observed_norm += values(i, j) * values(i, j);
    }
  }
  observed_norm = std::sqrt(observed_norm);
  if (observed_norm == 0.0) {
    return Status::FailedPrecondition("all observed entries are zero");
  }

  linalg::Matrix y = values.Hadamard(mask) * options_.delta;
  linalg::Matrix z(n, k);
  // Per-row residual partials: rows are updated independently in parallel
  // and the partials are combined serially in row order, so the residual
  // (and therefore the stopping decision) is bitwise identical for any
  // thread count — a chunked deterministic reduction, no atomics.
  std::vector<double> row_resid(n, 0.0);
  const double* values_d = values.data();
  const double* mask_d = mask.data();
  const double delta = options_.delta;
  for (int iter = 0; iter < options_.max_iterations; ++iter) {
    z = linalg::SvdSoftThreshold(y, tau);
    const double* z_d = z.data();
    double* y_d = y.data();
    ParallelFor(
        0, n,
        [&](size_t row_begin, size_t row_end) {
          for (size_t i = row_begin; i < row_end; ++i) {
            double rs = 0.0;
            const size_t base = i * k;
            for (size_t j = 0; j < k; ++j) {
              const size_t c = base + j;
              if (mask_d[c] > 0.0) {
                const double d = values_d[c] - z_d[c];
                rs += d * d;
                y_d[c] += delta * d;
              }
            }
            row_resid[i] = rs;
          }
        },
        /*grain=*/std::max<size_t>(1, 2048 / (k + 1)));
    double resid = 0.0;
    for (size_t i = 0; i < n; ++i) resid += row_resid[i];
    if (std::sqrt(resid) / observed_norm < options_.tolerance) break;
  }

  // Pass observed entries through; predictions must be physically
  // meaningful (latencies are positive).
  z.ClampMin(0.0);
  double* z_d = z.data();
  ParallelFor(0, n, [&](size_t row_begin, size_t row_end) {
    for (size_t c = row_begin * k; c < row_end * k; ++c) {
      if (mask_d[c] > 0.0) z_d[c] = values_d[c];
    }
  });
  return z;
}

}  // namespace limeqo::core
