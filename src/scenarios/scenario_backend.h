#ifndef LIMEQO_SCENARIOS_SCENARIO_BACKEND_H_
#define LIMEQO_SCENARIOS_SCENARIO_BACKEND_H_

/// \file
/// ScenarioBackend: the common contract of scenario worlds — a
/// WorkloadBackend plus ground truth, drift, and execution accounting for
/// invariant checking.

#include "core/backend.h"

namespace limeqo::scenarios {

/// The contract every scenario world implements: a core::WorkloadBackend
/// (the only interface exploration components ever see) plus the
/// ground-truth, drift, and accounting surface the SimulationDriver needs
/// to machine-check the paper's invariants against knowledge no real
/// deployment has.
///
/// Implementations: SyntheticBackend (a bare planted latency surface — the
/// matrix-only path) and SimDbScenarioBackend (the same surface compiled
/// into a simdb::SimulatedDatabase with catalog, plan trees, and cost
/// estimates — the path that feeds the neural arms).
class ScenarioBackend : public core::WorkloadBackend {
 public:
  ~ScenarioBackend() override = default;

  // --- Drift ---------------------------------------------------------------
  /// Data shift (paper Sec. 5.4): a `severity` fraction of query rows gets a
  /// freshly drawn latency profile. Advances the world's drift generation.
  virtual void ApplyDrift(double severity) = 0;

  // --- Serving path --------------------------------------------------------
  /// Observed latency of serving (query, hint) as the `serving_index`-th
  /// serving of the online phase. Const, thread-safe, and a pure function
  /// of (world generation, cell, serving_index): unlike Execute, whose
  /// per-execution noise is keyed by the cell's visit count (mutable
  /// state), the serving-path noise is keyed by the global serving index —
  /// so concurrent serving threads observe identical latencies in every
  /// interleaving, which is what makes the concurrent serving trace
  /// bitwise reproducible at any thread count. Never times out (the online
  /// path serves to completion).
  virtual double ServeLatency(int query, int hint,
                              uint64_t serving_index) const = 0;

  // --- Ground truth (for invariant checking only) --------------------------
  /// Noise-free latency of (query, hint) in the current generation.
  virtual double TrueLatency(int query, int hint) const = 0;
  /// Sum over queries of the default hint's true latency (P(W) at hint 0).
  virtual double DefaultWorkloadLatency() const = 0;
  /// Sum over queries of the per-row true minimum (the oracle's P(W)).
  virtual double OptimalWorkloadLatency() const = 0;
  /// Largest true latency in the current world.
  virtual double MaxTrueLatency() const = 0;

  // --- Execution accounting ------------------------------------------------
  /// Total Execute() calls served.
  virtual int executions() const = 0;
  /// Executions that reported BackendResult::timed_out.
  virtual int timeouts_reported() const = 0;
  /// Largest observed_latency any Execute() call has returned.
  virtual double max_single_charge() const = 0;
};

}  // namespace limeqo::scenarios

#endif  // LIMEQO_SCENARIOS_SCENARIO_BACKEND_H_
