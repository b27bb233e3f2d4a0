#ifndef LIMEQO_CORE_ONLINE_H_
#define LIMEQO_CORE_ONLINE_H_

#include <algorithm>
#include <limits>

#include "core/workload_matrix.h"

namespace limeqo::core {

/// The online path of the system model (paper Fig. 2): when a query
/// arrives, the DBMS' optimizer asks LimeQO whether a better plan than the
/// default has been *verified* offline; LimeQO replies with that plan's
/// hint or with the default.
///
/// No-regressions guarantee: a non-default hint is only served when its
/// complete (non-censored) observed latency strictly beats the observed
/// default latency. Absent data shift, served plans are therefore never
/// slower than the default optimizer's choice.
class OnlineOptimizer {
 public:
  /// Does not own the matrix; it must outlive the optimizer.
  explicit OnlineOptimizer(const WorkloadMatrix* matrix) : matrix_(matrix) {
    LIMEQO_CHECK(matrix != nullptr);
  }

  /// Hint to execute `query` with: the best verified hint, else 0 (default).
  int ChooseHint(int query) const {
    double runner_up = 0.0;
    return ChooseHint(query, &runner_up);
  }

  /// ChooseHint that also returns, in *runner_up, the smallest complete
  /// latency among the row's other hints: +infinity when there is none or
  /// when the default is incomplete. One pass over the row's state and
  /// value slices: the engine runs this for every row of a snapshot-chunk
  /// rebuild, and whenever a drained observation may have moved a row's
  /// verified best past the runner-up it keeps (ExplorationEngine::FoldCell).
  int ChooseHint(int query, double* runner_up) const {
    const WorkloadMatrix& w = *matrix_;
    LIMEQO_CHECK(query >= 0 && query < w.num_queries());
    const CellState* states = w.row_states(query);
    const double* values = w.row_values(query);
    *runner_up = std::numeric_limits<double>::infinity();
    // Default never measured: serve it.
    if (states[0] != CellState::kComplete) return 0;
    int best = 0;
    double best_latency = values[0];
    double second = std::numeric_limits<double>::infinity();
    for (int j = 1; j < w.num_hints(); ++j) {
      if (states[j] != CellState::kComplete) continue;
      if (values[j] < best_latency) {
        second = best_latency;
        best_latency = values[j];
        best = j;
      } else {
        second = std::min(second, values[j]);
      }
    }
    *runner_up = second;
    return best;
  }

  /// True when a non-default plan has been verified for this query.
  bool HasVerifiedPlan(int query) const { return ChooseHint(query) != 0; }

 private:
  const WorkloadMatrix* matrix_;
};

}  // namespace limeqo::core

#endif  // LIMEQO_CORE_ONLINE_H_
