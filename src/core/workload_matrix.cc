#include "core/workload_matrix.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace limeqo::core {

WorkloadMatrix::WorkloadMatrix(int num_queries, int num_hints)
    : values_(num_queries, num_hints),
      states_(static_cast<size_t>(num_queries) * num_hints,
              CellState::kUnobserved) {
  // Zero queries is a legal (empty) workload: fleets start with no rows
  // and grow by AppendQueries as queries arrive. The hint space, by
  // contrast, is fixed by the DBMS and must be non-empty.
  LIMEQO_CHECK(num_queries >= 0 && num_hints > 0);
}

size_t WorkloadMatrix::CellIndex(int query, int hint) const {
  LIMEQO_CHECK(query >= 0 && query < num_queries());
  LIMEQO_CHECK(hint >= 0 && hint < num_hints());
  return static_cast<size_t>(query) * num_hints() + hint;
}

void WorkloadMatrix::Observe(int query, int hint, double latency) {
  LIMEQO_CHECK(latency >= 0.0);
  const size_t idx = CellIndex(query, hint);
  states_[idx] = CellState::kComplete;
  values_(query, hint) = latency;
}

void WorkloadMatrix::ObserveCensored(int query, int hint, double timeout) {
  LIMEQO_CHECK(timeout > 0.0);
  const size_t idx = CellIndex(query, hint);
  // A later complete observation always supersedes a censored one; a
  // censored observation never downgrades a complete one.
  if (states_[idx] == CellState::kComplete) return;
  // Censoring bounds only tighten: each censored run proves latency >=
  // its timeout, so the cell keeps the largest bound ever observed. A
  // re-probe cut off earlier than a previous one (possible when a
  // revisit-censored policy runs with an optimistic model prediction)
  // must not erase the stronger evidence.
  if (states_[idx] == CellState::kCensored &&
      values_(query, hint) >= timeout) {
    return;
  }
  states_[idx] = CellState::kCensored;
  values_(query, hint) = timeout;
}

void WorkloadMatrix::Clear(int query, int hint) {
  const size_t idx = CellIndex(query, hint);
  states_[idx] = CellState::kUnobserved;
  values_(query, hint) = 0.0;
}

CellState WorkloadMatrix::state(int query, int hint) const {
  return states_[CellIndex(query, hint)];
}

double WorkloadMatrix::observed(int query, int hint) const {
  LIMEQO_CHECK(state(query, hint) != CellState::kUnobserved);
  return values_(query, hint);
}

double WorkloadMatrix::RowMinObserved(int query) const {
  double best = std::numeric_limits<double>::infinity();
  for (int j = 0; j < num_hints(); ++j) {
    if (IsComplete(query, j)) best = std::min(best, values_(query, j));
  }
  return best;
}

int WorkloadMatrix::BestObservedHint(int query) const {
  int best = -1;
  double best_latency = std::numeric_limits<double>::infinity();
  for (int j = 0; j < num_hints(); ++j) {
    if (IsComplete(query, j) && values_(query, j) < best_latency) {
      best_latency = values_(query, j);
      best = j;
    }
  }
  return best;
}

std::vector<int> WorkloadMatrix::BestObservedHints() const {
  std::vector<int> hints(num_queries(), 0);
  for (int i = 0; i < num_queries(); ++i) {
    hints[i] = std::max(BestObservedHint(i), 0);
  }
  return hints;
}

double WorkloadMatrix::CurrentWorkloadLatency() const {
  double total = 0.0;
  for (int i = 0; i < num_queries(); ++i) {
    const double m = RowMinObserved(i);
    if (std::isfinite(m)) total += m;
  }
  return total;
}

int WorkloadMatrix::NumComplete() const {
  int n = 0;
  for (CellState s : states_) n += (s == CellState::kComplete) ? 1 : 0;
  return n;
}

int WorkloadMatrix::NumCensored() const {
  int n = 0;
  for (CellState s : states_) n += (s == CellState::kCensored) ? 1 : 0;
  return n;
}

int WorkloadMatrix::NumUnobserved() const {
  int n = 0;
  for (CellState s : states_) n += (s == CellState::kUnobserved) ? 1 : 0;
  return n;
}

double WorkloadMatrix::FillFraction() const {
  if (states_.empty()) return 0.0;  // empty workload: nothing to fill
  return static_cast<double>(NumComplete()) /
         static_cast<double>(states_.size());
}

std::vector<std::pair<int, int>> WorkloadMatrix::UnobservedCells() const {
  std::vector<std::pair<int, int>> cells;
  for (int i = 0; i < num_queries(); ++i) {
    for (int j = 0; j < num_hints(); ++j) {
      if (IsUnobserved(i, j)) cells.emplace_back(i, j);
    }
  }
  return cells;
}

int WorkloadMatrix::AppendQueries(int count) {
  LIMEQO_CHECK(count > 0);
  const int first = num_queries();
  const std::vector<double> zero_row(num_hints(), 0.0);
  for (int c = 0; c < count; ++c) {
    values_.AppendRow(zero_row);
    states_.insert(states_.end(), num_hints(), CellState::kUnobserved);
  }
  return first;
}

}  // namespace limeqo::core
