#ifndef LIMEQO_CORE_EXPLORER_H_
#define LIMEQO_CORE_EXPLORER_H_

/// \file
/// The offline exploration driver of the paper's Algorithm 1: batched
/// policy-driven execution against a WorkloadBackend with timeout
/// censoring, budget accounting, and the workload-shift entry points
/// (AddNewQueries, ResetAfterDataShift).

#include <memory>
#include <vector>

#include "common/rng.h"
#include "core/backend.h"
#include "core/engine.h"
#include "core/policy.h"
#include "core/workload_matrix.h"

namespace limeqo::core {

/// Options for the offline exploration driver.
struct ExplorerOptions {
  /// Cells executed per exploration step (m in Algorithm 1).
  int batch_size = 20;
  /// alpha in Algorithm 1 line 10: a candidate's timeout is
  /// min(current row best, alpha * predicted latency).
  double timeout_alpha = 2.0;
  /// Disables timeouts entirely (every execution runs to completion);
  /// exists for ablations.
  bool use_timeouts = true;
  /// Number of query rows initially active; -1 means all backend queries.
  /// Fig. 9 starts with 70% of the workload and adds the rest later. 0 is
  /// a legal *cold start*: the explorer begins with an empty matrix (no
  /// default observations, nothing to explore) and grows row-by-row as
  /// traffic attaches via AddNewQueries — the fleet bring-up path, where
  /// an engine is stood up before its workload exists.
  int initial_queries = -1;
  /// Seed for policy tie-breaking / random fallback.
  uint64_t seed = 99;
};

/// One point of the exploration trajectory, recorded after every batch.
struct TrajectoryPoint {
  /// Cumulative offline execution time T(W~) in seconds (paper Eq. 3).
  double offline_seconds = 0.0;
  /// Current workload latency P(W~) in seconds (paper Eq. 2).
  double workload_latency = 0.0;
  /// Cumulative model overhead (prediction/selection wall time) in seconds.
  double overhead_seconds = 0.0;
  /// Workload-matrix cells with a complete observation at this point.
  int complete_cells = 0;
  /// Workload-matrix cells holding a censored (timed-out) lower bound.
  int censored_cells = 0;
};

/// The offline exploration driver (the loop of Algorithm 1 and the offline
/// path of Fig. 2): repeatedly asks the policy for a batch of cells,
/// executes them against the backend with timeouts, and updates the
/// workload matrix, while accounting offline execution time (simulated) and
/// model overhead (measured wall time) separately.
class OfflineExplorer {
 public:
  /// Neither pointer is owned; both must outlive the explorer. The default
  /// column (hint 0) is observed for every active query at construction, at
  /// zero offline cost: the workload runs repeatedly anyway, so default
  /// latencies are known (paper Sec. 5 "Techniques and tests").
  OfflineExplorer(WorkloadBackend* backend, ExplorationPolicy* policy,
                  const ExplorerOptions& options);

  /// Runs exploration until `budget_seconds` of simulated offline execution
  /// time has been spent (the last batch may overshoot slightly) or nothing
  /// is left to explore. Can be called repeatedly to continue exploring;
  /// time accumulates. Returns the trajectory points recorded during this
  /// call.
  std::vector<TrajectoryPoint> Explore(double budget_seconds);

  /// Registers `count` newly arrived queries (workload shift, Sec. 5.3).
  /// Their default plans are observed at zero offline cost (first execution
  /// always uses the default plan to avoid regressions).
  void AddNewQueries(int count);

  /// Handles a data shift (Sec. 5.4): all stale measurements are dropped
  /// and each query's previous best hint is re-observed on the new data at
  /// zero offline cost (those executions happen on the online path).
  void ResetAfterDataShift();

  /// The partially observed workload matrix W-tilde built so far.
  const WorkloadMatrix& matrix() const { return engine_.matrix(); }

  /// The exploration engine owning the matrix. Components that keep
  /// observing after the offline loop (the online serving plane) attach
  /// here — there is no direct mutable matrix access: every mutation goes
  /// through the engine's train plane so that published ServingSnapshots
  /// can never be bypassed.
  ExplorationEngine& engine() { return engine_; }
  const ExplorationEngine& engine() const { return engine_; }

  /// Replaces the matrix wholesale (the resume-from-disk path of
  /// limeqo_sim). Invalidates any model state held by the engine.
  void LoadMatrix(const WorkloadMatrix& matrix) {
    engine_.ResetMatrix(matrix);
  }

  /// Cumulative offline execution time spent so far.
  double offline_seconds() const { return offline_seconds_; }

  /// Cumulative model overhead (wall time inside the policy).
  double overhead_seconds() const { return overhead_seconds_; }

  /// Candidate executions charged to the offline clock (free observations —
  /// defaults, post-drift re-observations — are not counted).
  int num_executions() const { return num_executions_; }

  /// Charged executions that were cut off by their timeout. Every one of
  /// them produced censored cells, so this ties matrix censoring back to
  /// BackendResult::timed_out for invariant checks.
  int num_timeouts() const { return num_timeouts_; }

  /// Candidate executions the backend reported as *failed*
  /// (BackendResult::failed — e.g. a FaultyBackend that exhausted its
  /// internal retries). Failed executions are dropped whole: no offline
  /// charge, no matrix observation, no num_executions() count — the
  /// no-double-charge invariant for transient faults.
  int num_failed_executions() const { return num_failed_executions_; }

  /// Largest single charge any execution added to the offline clock; the
  /// budget in Explore can be overshot by at most this much.
  double max_single_charge() const { return max_single_charge_; }

  /// Current workload latency P(W~).
  double WorkloadLatency() const {
    return matrix().CurrentWorkloadLatency();
  }

  /// Best hint per query: the best complete observation, or hint 0 (the
  /// default) when nothing better was verified. This is the no-regressions
  /// output of Algorithm 1 lines 13-15.
  std::vector<int> BestHints() const;

 private:
  /// Executes one candidate, charges its cost, and records the observation
  /// (shared by the whole plan-equivalence class of the executed hint).
  void ExecuteCandidate(const Candidate& candidate);

  /// Observes the default plan's latency for the query (zero offline cost)
  /// and propagates it to every hint with an identical plan.
  void ObserveDefaultClass(int query);

  TrajectoryPoint RecordPoint() const;

  WorkloadBackend* backend_;
  ExplorationPolicy* policy_;
  ExplorerOptions options_;
  ExplorationEngine engine_;
  Rng rng_;
  double offline_seconds_ = 0.0;
  double overhead_seconds_ = 0.0;
  int num_executions_ = 0;
  int num_timeouts_ = 0;
  int num_failed_executions_ = 0;
  double max_single_charge_ = 0.0;
};

}  // namespace limeqo::core

#endif  // LIMEQO_CORE_EXPLORER_H_
