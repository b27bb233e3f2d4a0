#ifndef LIMEQO_CORE_WORKLOAD_MATRIX_H_
#define LIMEQO_CORE_WORKLOAD_MATRIX_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "linalg/matrix.h"

namespace limeqo::core {

/// Observation state of one cell of the workload matrix. One byte: the
/// matrix and every snapshot chunk store one per (query, hint) cell.
enum class CellState : uint8_t {
  /// Never executed: latency unknown.
  kUnobserved = 0,
  /// Executed to completion: exact latency known.
  kComplete,
  /// Execution was cut off at a timeout: only a lower bound is known
  /// (a censored observation, paper Sec. 4.1).
  kCensored,
};

/// The partially observed workload matrix W-tilde of the paper (Fig. 1 and
/// Eq. 1/5): rows are queries, columns are hints, entries are latencies.
///
/// Two aligned row-major arrays hold Algorithm 2's inputs:
///  * values(): observed latency for complete cells, the timeout value for
///              censored cells, 0 for unobserved cells;
///  * states:   the CellState of each cell.
/// Together they determine the paper's mask M (1 exactly on complete cells)
/// and threshold matrix T (timeout(), non-zero exactly on censored cells),
/// so neither is stored.
///
/// Hint column 0 is the DBMS default plan by convention.
class WorkloadMatrix {
 public:
  WorkloadMatrix(int num_queries, int num_hints);

  int num_queries() const { return static_cast<int>(values_.rows()); }
  int num_hints() const { return static_cast<int>(values_.cols()); }

  /// Records a completed execution of (query, hint) with the given latency.
  /// Re-observing a cell overwrites it (e.g. re-running after data shift).
  void Observe(int query, int hint, double latency);

  /// Records a censored execution: the plan ran for `timeout` seconds
  /// without finishing, so its true latency is >= timeout.
  void ObserveCensored(int query, int hint, double timeout);

  /// Forgets an observation (used when data shift invalidates measurements).
  void Clear(int query, int hint);

  CellState state(int query, int hint) const;
  /// Contiguous state slice of one row (num_hints entries). Hot serving
  /// paths (the decision kernel's row scan) read this instead of paying a
  /// bounds check per cell.
  const CellState* row_states(int query) const {
    return &states_[static_cast<size_t>(query) *
                    static_cast<size_t>(num_hints())];
  }
  bool IsComplete(int query, int hint) const {
    return state(query, hint) == CellState::kComplete;
  }
  bool IsUnobserved(int query, int hint) const {
    return state(query, hint) == CellState::kUnobserved;
  }

  /// Observed value: exact latency for complete cells, the lower bound for
  /// censored cells. Must not be called on unobserved cells.
  double observed(int query, int hint) const;

  /// Censoring threshold of (query, hint): the recorded bound for a
  /// censored cell, 0 otherwise (T in the paper).
  double timeout(int query, int hint) const {
    return state(query, hint) == CellState::kCensored ? values_(query, hint)
                                                      : 0.0;
  }

  const linalg::Matrix& values() const { return values_; }
  /// Contiguous values() slice of one row (num_hints entries), the
  /// companion of row_states for hot row scans.
  const double* row_values(int query) const {
    return values_.data() +
           static_cast<size_t>(query) * static_cast<size_t>(num_hints());
  }

  /// Minimum *complete* observed latency in the row; infinity when the row
  /// has no complete observation. Censored cells never define the row best:
  /// their true latency is at least the censoring threshold, which was the
  /// row minimum at execution time.
  double RowMinObserved(int query) const;

  /// Hint index achieving RowMinObserved; -1 when no complete observation.
  int BestObservedHint(int query) const;

  /// BestObservedHint per row, with the default hint 0 for rows that have
  /// no complete observation: the no-regression serving choice.
  std::vector<int> BestObservedHints() const;

  /// Current workload latency P(W-tilde) (paper Eq. 2): sum over rows of the
  /// best complete observation.
  double CurrentWorkloadLatency() const;

  /// Number of cells in each state.
  int NumComplete() const;
  int NumCensored() const;
  int NumUnobserved() const;

  /// Fraction of cells with a complete observation.
  double FillFraction() const;

  /// All unobserved (query, hint) cells.
  std::vector<std::pair<int, int>> UnobservedCells() const;

  /// Appends `count` new all-unobserved query rows (workload shift,
  /// Sec. 5.3). Returns the index of the first new row.
  int AppendQueries(int count);

 private:
  linalg::Matrix values_;
  std::vector<CellState> states_;  // row-major n*k

  size_t CellIndex(int query, int hint) const;
};

}  // namespace limeqo::core

#endif  // LIMEQO_CORE_WORKLOAD_MATRIX_H_
