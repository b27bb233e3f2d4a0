#include "core/nuclear_norm.h"

#include <cmath>
#include <utility>
#include <vector>

#include "linalg/svd.h"

namespace limeqo::core {

NuclearNormCompleter::NuclearNormCompleter(NuclearNormOptions options)
    : options_(options) {
  LIMEQO_CHECK(options_.mu_fraction > 0.0 && options_.mu_fraction < 1.0);
  LIMEQO_CHECK(options_.mu_decay > 0.0 && options_.mu_decay < 1.0);
  LIMEQO_CHECK(options_.inner_iterations > 0);
}

StatusOr<linalg::Matrix> NuclearNormCompleter::Complete(
    const WorkloadMatrix& w) {
  if (w.NumComplete() == 0) {
    return Status::FailedPrecondition(
        "nuclear norm completion needs at least one complete observation");
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

  const linalg::Matrix zero_filled = values.Hadamard(mask);
  std::vector<double> sv = linalg::SingularValues(zero_filled);
  if (sv.empty() || sv[0] <= 0.0) {
    return Status::FailedPrecondition("all observed entries are zero");
  }
  const double mu_final = options_.mu_fraction * sv[0];

  linalg::Matrix x = zero_filled;
  // The proximal step's observed-entry overwrite touches only these cells;
  // precomputing them replaces a dense mask scan per inner iteration with a
  // sparse scatter, and `filled` is reused across iterations (the copy
  // assignment reuses its allocation).
  std::vector<std::pair<size_t, double>> observed_cells;
  const double* mask_d = mask.data();
  const double* values_d = values.data();
  for (size_t c = 0; c < n * k; ++c) {
    if (mask_d[c] > 0.0) observed_cells.emplace_back(c, values_d[c]);
  }
  linalg::Matrix filled;
  // Continuation: geometric decay of the shrinkage level toward mu_final.
  double mu = sv[0] * options_.mu_decay;
  while (true) {
    for (int iter = 0; iter < options_.inner_iterations; ++iter) {
      // Proximal step: fill observed entries, shrink singular values.
      filled = x;
      double* filled_d = filled.data();
      for (const auto& [c, v] : observed_cells) filled_d[c] = v;
      linalg::Matrix next = linalg::SvdSoftThreshold(filled, mu);
      double diff_sq = 0.0;
      const double* next_d = next.data();
      const double* x_d = x.data();
      for (size_t c = 0; c < n * k; ++c) {
        const double d = next_d[c] - x_d[c];
        diff_sq += d * d;
      }
      const double change =
          std::sqrt(diff_sq) / std::max(x.FrobeniusNorm(), 1e-12);
      x = std::move(next);
      if (change < options_.tolerance) break;
    }
    if (mu <= mu_final) break;
    mu = std::max(mu * options_.mu_decay, mu_final);
  }

  x.ClampMin(0.0);
  double* x_d = x.data();
  for (const auto& [c, v] : observed_cells) x_d[c] = v;
  return x;
}

}  // namespace limeqo::core
