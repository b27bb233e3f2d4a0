#include "core/explorer.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

namespace limeqo::core {
namespace {

double WallSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Free observations (defaults, post-shift re-runs) are not optional: the
/// matrix invariants assume every active row has its default class
/// observed. A transiently failing backend is retried — each Execute call
/// rolls a fresh fault decision, so the loop terminates almost surely for
/// any failure probability < 1 — and a backend that fails the same cell
/// this many times in a row is treated as permanently broken.
constexpr int kMaxFreeObservationAttempts = 10000;

BackendResult ExecuteFreeObservation(WorkloadBackend* backend, int query,
                                     int hint) {
  for (int attempt = 0; attempt < kMaxFreeObservationAttempts; ++attempt) {
    const BackendResult r = backend->Execute(query, hint, 0.0);
    if (!r.failed) return r;
  }
  LIMEQO_CHECK(false);  // backend permanently failing a free observation
  return BackendResult{};
}

}  // namespace

OfflineExplorer::OfflineExplorer(WorkloadBackend* backend,
                                 ExplorationPolicy* policy,
                                 const ExplorerOptions& options)
    : backend_(backend),
      policy_(policy),
      options_(options),
      engine_(WorkloadMatrix(options.initial_queries >= 0
                                 ? options.initial_queries
                                 : backend->num_queries(),
                             backend->num_hints()),
              /*predictor=*/nullptr),
      rng_(options.seed) {
  LIMEQO_CHECK(backend != nullptr && policy != nullptr);
  LIMEQO_CHECK(options.batch_size > 0);
  LIMEQO_CHECK(options.timeout_alpha > 1.0);
  LIMEQO_CHECK(matrix().num_queries() <= backend->num_queries());
  // Default plans are known from normal (online) operation: observe them
  // at zero offline cost. Hints that produce the *same plan* as the default
  // (detectable from EXPLAIN output, no execution needed) share its
  // latency, so those cells are revealed too.
  for (int i = 0; i < matrix().num_queries(); ++i) {
    ObserveDefaultClass(i);
  }
}

void OfflineExplorer::ObserveDefaultClass(int query) {
  const BackendResult r = ExecuteFreeObservation(backend_, query, 0);
  for (int j : backend_->EquivalentHints(query, 0)) {
    engine_.Observe(query, j, r.observed_latency);
  }
}

std::vector<TrajectoryPoint> OfflineExplorer::Explore(double budget_seconds) {
  LIMEQO_CHECK(budget_seconds >= 0.0);
  const double deadline = offline_seconds_ + budget_seconds;
  std::vector<TrajectoryPoint> trajectory;
  trajectory.push_back(RecordPoint());
  while (offline_seconds_ < deadline) {
    const double t0 = WallSeconds();
    StatusOr<std::vector<Candidate>> batch =
        policy_->SelectBatch(matrix(), options_.batch_size, &rng_);
    overhead_seconds_ += WallSeconds() - t0;
    if (!batch.ok() || batch->empty()) break;  // nothing left to explore
    for (const Candidate& c : *batch) {
      if (offline_seconds_ >= deadline) break;
      ExecuteCandidate(c);
    }
    trajectory.push_back(RecordPoint());
  }
  return trajectory;
}

void OfflineExplorer::ExecuteCandidate(const Candidate& candidate) {
  const int q = candidate.query;
  const int h = candidate.hint;
  LIMEQO_CHECK(q >= 0 && q < matrix().num_queries());
  LIMEQO_CHECK(h >= 0 && h < matrix().num_hints());

  // Timeout rule (Algorithm 1 line 10 / Eq. 4): never run a candidate
  // longer than the current best known plan for that query; additionally
  // cap at alpha times the model's prediction when one is available.
  double timeout = 0.0;  // 0 = no timeout
  if (options_.use_timeouts) {
    double limit = matrix().RowMinObserved(q);
    if (candidate.predicted_latency > 0.0) {
      limit = std::min(limit,
                       candidate.predicted_latency * options_.timeout_alpha);
    }
    if (std::isfinite(limit)) timeout = limit;
  }

  const BackendResult r = backend_->Execute(q, h, timeout);
  if (r.failed) {
    // A failed execution never ran to a measurable result: nothing enters
    // the matrix, and — the no-double-charge invariant — nothing is added
    // to the offline clock or the execution counters. The candidate simply
    // remains unobserved; the policy is free to propose it again.
    ++num_failed_executions_;
    return;
  }
  // The exploration clock advances by the time actually spent (Eq. 3): the
  // full latency on completion, the timeout value on a cut-off.
  offline_seconds_ += r.observed_latency;
  ++num_executions_;
  max_single_charge_ = std::max(max_single_charge_, r.observed_latency);
  if (r.timed_out) {
    ++num_timeouts_;
    // The whole plan-equivalence class shares the lower bound.
    for (int j : backend_->EquivalentHints(q, h)) {
      engine_.ObserveCensored(q, j, r.observed_latency);
    }
  } else {
    // One execution measures every hint with the identical plan.
    for (int j : backend_->EquivalentHints(q, h)) {
      engine_.Observe(q, j, r.observed_latency);
    }
  }
}

void OfflineExplorer::AddNewQueries(int count) {
  LIMEQO_CHECK(count > 0);
  const int first = engine_.AppendQueries(count);
  LIMEQO_CHECK(matrix().num_queries() <= backend_->num_queries());
  for (int i = first; i < matrix().num_queries(); ++i) {
    ObserveDefaultClass(i);
  }
}

void OfflineExplorer::ResetAfterDataShift() {
  // Everything the model has learned describes the old data: drop the
  // predictions and the warm-start factors before re-seeding the matrix,
  // so nothing fitted pre-shift can leak into post-shift fits (the
  // CompleteFrom no-leak contract).
  engine_.InvalidateModel();
  for (int i = 0; i < matrix().num_queries(); ++i) {
    int best = matrix().BestObservedHint(i);
    if (best < 0) best = 0;
    for (int j = 0; j < matrix().num_hints(); ++j) engine_.Clear(i, j);
    // The previous best hint keeps serving the online path, so its latency
    // on the new data is observed for free (and so is its plan class).
    const BackendResult r = ExecuteFreeObservation(backend_, i, best);
    for (int j : backend_->EquivalentHints(i, best)) {
      engine_.Observe(i, j, r.observed_latency);
    }
  }
}

std::vector<int> OfflineExplorer::BestHints() const {
  return matrix().BestObservedHints();
}

TrajectoryPoint OfflineExplorer::RecordPoint() const {
  TrajectoryPoint p;
  p.offline_seconds = offline_seconds_;
  p.workload_latency = matrix().CurrentWorkloadLatency();
  p.overhead_seconds = overhead_seconds_;
  p.complete_cells = matrix().NumComplete();
  p.censored_cells = matrix().NumCensored();
  return p;
}

}  // namespace limeqo::core
